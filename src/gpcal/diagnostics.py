"""Emulator accuracy assessment: leave-one-out error, predictivity
coefficient Q2, the confidence-interval inclusion test, and the posterior
validation report.

Leave-one-out predictions hold every fitted hyperparameter, the trend
coefficients included, at its full-fit value; only the conditioning set
changes when a point is dropped, so they follow in closed form from the
full fit's factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emulator import FittedEmulator
from .errors import DataError
from .fileio import write_json

#: 95% intervals use the conventional 1.96 factor exactly
Z_95 = 1.96


def cross_validated_predictions(emulator: FittedEmulator):
    """Leave-one-out predictions for every training point, physical units.

    Returns ``(mu_cv, var_cv)``: the held-out predictive means and variances
    (the latter include the held-out point's nugget). All hyperparameters,
    the trend coefficients included, stay at their full-fit values, so the
    closed-form identity e_cv,i = [R^-1 (y - F beta)]_i / [R^-1]_ii gives
    them; it agrees with a literal drop-one-row loop to machine precision.
    """
    tr = emulator.training
    m = tr.m
    if m < 2:
        raise DataError("cross validation requires at least 2 training points")
    if emulator.degenerate:
        return tr.y_phys.copy(), np.zeros(m)
    Rinv_diag = np.diag(emulator._gls.R.inverse())
    e_cv = emulator._gls.alpha / Rinv_diag
    mu_std = tr.y - e_cv
    v = emulator.hyper.sigma2 / Rinv_diag
    mu_phys = mu_std * tr.y_scale + tr.y_mean
    var_phys = v * tr.y_scale ** 2
    return mu_phys, var_phys


def loocv_error(emulator: FittedEmulator) -> float:
    """Mean squared leave-one-out prediction error, physical units."""
    mu_cv, _ = cross_validated_predictions(emulator)
    return float(np.mean((emulator.training.y_phys - mu_cv) ** 2))


def q2_loocv(emulator: FittedEmulator) -> float:
    """Predictivity coefficient from cross-validated predictions:
    1 - sum (y - mu_cv)^2 / sum (y - ybar)^2. Needs no extra simulator runs."""
    tr = emulator.training
    if tr.m < 2:
        raise DataError("q2_loocv requires at least 2 training points")
    y = tr.y_phys
    denom = float(np.sum((y - y.mean()) ** 2))
    if denom <= 0:
        raise DataError("training outputs are all equal; Q2 is undefined")
    mu_cv, _ = cross_validated_predictions(emulator)
    return 1.0 - float(np.sum((y - mu_cv) ** 2)) / denom


def interval_covered(y, mean, half) -> np.ndarray:
    """Inclusion test with a machine-epsilon guard so exact interpolation
    hits (zero-width intervals) count as covered despite float rounding."""
    y = np.asarray(y, float)
    return np.abs(y - np.asarray(mean, float)) <= (
        np.asarray(half, float) + 1e-12 * (1.0 + np.abs(y)))


@dataclass
class ValidationReport:
    """Bundle of accuracy metrics plus per-point residual records."""

    n_points: int
    rmse: float | None = None
    coverage_95: float | None = None
    residuals: list = field(default_factory=list)  # (predicted, sd, actual)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"n_points": self.n_points, "rmse": self.rmse,
             "coverage_95": self.coverage_95,
             "residuals": [list(r) for r in self.residuals]}
        d.update(self.extra)
        return d

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())
