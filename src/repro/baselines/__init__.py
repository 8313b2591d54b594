"""Baseline power models the paper compares against."""

from repro.baselines.bertran import (BERTRAN_EVENTS, bertran_campaign,
                                     learn_bertran_model)
from repro.baselines.cpuload import CPU_LOAD_EVENTS, learn_cpu_load_model
from repro.baselines.evaluation import score_model
from repro.baselines.happy import (HAPPY_BASE_EVENTS, HappyLearningReport,
                                   learn_happy_model)
from repro.baselines.raplmodel import RaplEstimator, calibrate_rest_of_system
from repro.core.sampling import (SMT_OVERLAP, EvalWindow, run_windows,
                                 smt_overlap_rate)

__all__ = [
    "BERTRAN_EVENTS", "CPU_LOAD_EVENTS", "EvalWindow", "HAPPY_BASE_EVENTS",
    "HappyLearningReport", "RaplEstimator", "SMT_OVERLAP",
    "bertran_campaign", "calibrate_rest_of_system", "learn_bertran_model",
    "learn_cpu_load_model", "learn_happy_model", "run_windows",
    "score_model", "smt_overlap_rate",
]
