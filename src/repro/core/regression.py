"""Multivariate regression backends for power-model learning.

The paper correlates counter values with power measurements "using a
multivariate regression" (Section 3, Figure 1 step 4).  Three standard
backends are provided:

* ordinary least squares (the default in the literature it cites),
* ridge (L2) regression, for when sampling produces collinear counters,
* non-negative least squares, which guarantees physically meaningful
  (power-additive) coefficients — the published i3-2120 formula has only
  positive terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np
from scipy import optimize

from repro.errors import ConfigurationError, InsufficientDataError
from repro.units import left_sum


@dataclass(frozen=True)
class RegressionResult:
    """A fitted linear model ``power = intercept + coefficients . x``."""

    #: Feature name -> watts per (event/second).
    coefficients: Dict[str, float]
    intercept: float
    #: Coefficient of determination on the training data.
    r2: float
    #: Number of training samples.
    samples: int
    method: str

    def predict(self, features: Dict[str, float]) -> float:
        """Evaluate the model on one feature vector (missing features = 0)."""
        return self.intercept + left_sum(
            weight * features.get(name, 0.0)
            for name, weight in self.coefficients.items())


def _design_matrix(samples: Sequence[Dict[str, float]],
                   features: Sequence[str]) -> np.ndarray:
    matrix = np.zeros((len(samples), len(features)))
    for row, sample in enumerate(samples):
        for column, name in enumerate(features):
            matrix[row, column] = sample.get(name, 0.0)
    return matrix


def _training_r2(targets: np.ndarray, predictions: np.ndarray) -> float:
    ss_res = float(np.sum((targets - predictions) ** 2))
    ss_tot = float(np.sum((targets - targets.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _check_inputs(samples: Sequence[Dict[str, float]],
                  targets: Sequence[float],
                  features: Sequence[str]) -> np.ndarray:
    if len(samples) != len(targets):
        raise ConfigurationError("samples and targets length mismatch")
    if not features:
        raise ConfigurationError("at least one feature required")
    if len(samples) < len(features) + 1:
        raise InsufficientDataError(
            f"{len(samples)} samples cannot fit {len(features)} features")
    return np.asarray(targets, dtype=float)


def fit_ols(samples: Sequence[Dict[str, float]], targets: Sequence[float],
            features: Sequence[str], fit_intercept: bool = True
            ) -> RegressionResult:
    """Ordinary least squares."""
    y = _check_inputs(samples, targets, features)
    x = _design_matrix(samples, features)
    if fit_intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
    solution, *_ = np.linalg.lstsq(x, y, rcond=None)
    if fit_intercept:
        intercept, weights = float(solution[0]), solution[1:]
    else:
        intercept, weights = 0.0, solution
    predictions = x @ solution
    return RegressionResult(
        coefficients=dict(zip(features, map(float, weights))),
        intercept=intercept,
        r2=_training_r2(y, predictions),
        samples=len(samples),
        method="ols",
    )


def fit_ridge(samples: Sequence[Dict[str, float]], targets: Sequence[float],
              features: Sequence[str], alpha: float = 1.0,
              fit_intercept: bool = True) -> RegressionResult:
    """Ridge regression (intercept is never penalised)."""
    if alpha < 0:
        raise ConfigurationError("alpha must be >= 0")
    y = _check_inputs(samples, targets, features)
    x = _design_matrix(samples, features)
    if fit_intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
    penalty = alpha * np.eye(x.shape[1])
    if fit_intercept:
        penalty[0, 0] = 0.0
    solution = np.linalg.solve(x.T @ x + penalty, x.T @ y)
    if fit_intercept:
        intercept, weights = float(solution[0]), solution[1:]
    else:
        intercept, weights = 0.0, solution
    predictions = x @ solution
    return RegressionResult(
        coefficients=dict(zip(features, map(float, weights))),
        intercept=intercept,
        r2=_training_r2(y, predictions),
        samples=len(samples),
        method="ridge",
    )


def fit_nnls(samples: Sequence[Dict[str, float]], targets: Sequence[float],
             features: Sequence[str], fit_intercept: bool = True
             ) -> RegressionResult:
    """Non-negative least squares: all coefficients (and intercept) >= 0."""
    y = _check_inputs(samples, targets, features)
    x = _design_matrix(samples, features)
    if fit_intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
    solution, _residual = optimize.nnls(x, y)
    if fit_intercept:
        intercept, weights = float(solution[0]), solution[1:]
    else:
        intercept, weights = 0.0, solution
    predictions = x @ solution
    return RegressionResult(
        coefficients=dict(zip(features, map(float, weights))),
        intercept=intercept,
        r2=_training_r2(y, predictions),
        samples=len(samples),
        method="nnls",
    )


#: Backend registry, keyed by method name.
METHODS = {
    "ols": fit_ols,
    "ridge": fit_ridge,
    "nnls": fit_nnls,
}


def fit(samples: Sequence[Dict[str, float]], targets: Sequence[float],
        features: Sequence[str], method: str = "nnls",
        **kwargs) -> RegressionResult:
    """Fit with a named backend."""
    try:
        backend = METHODS[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown regression method {method!r}; "
            f"available: {sorted(METHODS)}") from None
    return backend(samples, targets, features, **kwargs)
