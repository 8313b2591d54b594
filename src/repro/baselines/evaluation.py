"""Scoring a model against measured evaluation windows.

The windows come from :func:`repro.core.sampling.run_windows`, the loop
the learning campaign measures through too, so every model is scored
against identical observations.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.metrics import error_summary
from repro.core.model import PowerModel
from repro.core.sampling import EvalWindow
from repro.errors import ConfigurationError


def score_model(model: PowerModel, windows: Sequence[EvalWindow]) -> dict:
    """Error summary of *model* against the measured power of *windows*."""
    if not windows:
        raise ConfigurationError("no evaluation windows")
    measured = [window.power_w for window in windows]
    estimated = [model.predict_total(window.frequency_hz, window.features)
                 for window in windows]
    return error_summary(measured, estimated)
