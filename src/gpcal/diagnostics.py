"""Emulator accuracy assessment: LOOCV error, predictivity coefficient Q2,
confidence-interval coverage, and residual reports.

Cross-validated predictions hold the fitted hyperparameters fixed by default;
only the conditioning set changes when a point is dropped ("refit='none'").
Trend re-estimation per fold ("refit='trend'") and full per-fold
re-estimation ("refit='mle'") are available as options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .emulator import FittedEmulator, TrainingSet, _cv_heldout, fit_mle
from .errors import ConfigError, DataError
from .fileio import write_csv, write_json

#: 95% intervals use the conventional 1.96 factor exactly
Z_95 = 1.96


def _z_value(level: float) -> float:
    if not 0 < level < 1:
        raise ConfigError(f"confidence level must be in (0, 1), got {level}")
    # ndtri is scipy.stats.norm.ppf bit for bit, without importing scipy.stats
    return Z_95 if level == 0.95 else float(ndtri(0.5 * (1.0 + level)))


def cross_validated_predictions(emulator: FittedEmulator, fold_labels=None,
                                refit: str = "none"):
    """Held-out predictions for every training point, physical units.

    Returns ``(mu_cv, var_cv)``: the cross-validated predictive means and
    variances (the latter include the held-out point's nugget).

    ``fold_labels`` defaults to leave-one-out. With ``refit='none'`` all
    hyperparameters including the trend coefficients stay at their full-fit
    values; the LOOCV case then uses the closed-form identity
    e_cv,i = [R^-1 (y - F beta)]_i / [R^-1]_ii, which agrees with a literal
    drop-one-row loop to machine precision.
    """
    if refit not in ("none", "trend", "mle"):
        raise ConfigError(f"refit must be one of none/trend/mle, got {refit!r}")
    tr = emulator.training
    m = tr.m
    if m < 2:
        raise DataError("cross validation requires at least 2 training points")
    if emulator.degenerate:
        return tr.y_phys.copy(), np.zeros(m)
    if fold_labels is None:
        fold_labels = np.arange(m)
    fold_labels = np.asarray(fold_labels)

    loo = np.unique(fold_labels).size == m
    if refit == "none" and loo:
        Rinv_diag = np.diag(emulator._gls.R.inverse())
        e_cv = emulator._gls.alpha / Rinv_diag
        mu_std = tr.y - e_cv
        v = emulator.hyper.sigma2 / Rinv_diag
    elif refit in ("none", "trend"):
        beta_fixed = emulator.hyper.beta if refit == "none" else None
        mu_std, v_unit = _cv_heldout(tr, emulator.trend, emulator.kernel,
                                     emulator.hyper.nugget, fold_labels,
                                     beta_fixed=beta_fixed)
        v = emulator.hyper.sigma2 * v_unit
    else:
        mu_std = np.empty(m)
        v = np.empty(m)
        for k in np.unique(fold_labels):
            te = fold_labels == k
            sub = TrainingSet(tr.x_phys[~te], tr.y_phys[~te],
                              scale_inputs=tr.scale_inputs,
                              standardize_outputs=tr.standardize_outputs)
            fit = fit_mle(sub, emulator.trend, emulator.kernel.kind,
                          p=emulator.kernel.p)
            mean_k, mse_k = fit.predict_batch(tr.x_phys[te],
                                              warn_extrapolation=False)
            mu_std[te] = (mean_k - tr.y_mean) / tr.y_scale
            v[te] = (mse_k / tr.y_scale ** 2
                     + fit.hyper.sigma2 * np.mean(np.atleast_1d(fit.hyper.nugget)))
    mu_phys = mu_std * tr.y_scale + tr.y_mean
    var_phys = v * tr.y_scale ** 2
    return mu_phys, var_phys


def loocv_error(emulator: FittedEmulator, refit: str = "none") -> float:
    """Mean squared leave-one-out prediction error, physical units."""
    mu_cv, _ = cross_validated_predictions(emulator, refit=refit)
    return float(np.mean((emulator.training.y_phys - mu_cv) ** 2))


def q2_loocv(emulator: FittedEmulator, refit: str = "none") -> float:
    """Predictivity coefficient from cross-validated predictions:
    1 - sum (y - mu_cv)^2 / sum (y - ybar)^2. Needs no extra simulator runs."""
    tr = emulator.training
    if tr.m < 2:
        raise DataError("q2_loocv requires at least 2 training points")
    y = tr.y_phys
    denom = float(np.sum((y - y.mean()) ** 2))
    if denom <= 0:
        raise DataError("training outputs are all equal; Q2 is undefined")
    mu_cv, _ = cross_validated_predictions(emulator, refit=refit)
    return 1.0 - float(np.sum((y - mu_cv) ** 2)) / denom


def _check_overlap(emulator: FittedEmulator, test_x: np.ndarray) -> None:
    tr = emulator.training.x_phys
    for row in np.atleast_2d(test_x):
        if np.any(np.all(np.isclose(tr, row, rtol=1e-12, atol=1e-12), axis=1)):
            import warnings
            warnings.warn(
                "test points overlap the training set; accuracy estimates can "
                "be misleadingly high when test samples sit near training "
                "samples", UserWarning, stacklevel=3)
            return


def q2_test(emulator: FittedEmulator, test_x, test_y) -> float:
    """Test-sample predictivity coefficient Q2 = 1 - SSE / SST against an
    independent validation set."""
    test_x = np.atleast_2d(np.asarray(test_x, float))
    test_y = np.asarray(test_y, float).reshape(-1)
    if test_y.size < 2:
        raise DataError("q2_test requires at least 2 validation points")
    denom = float(np.sum((test_y - test_y.mean()) ** 2))
    if denom <= 0:
        raise DataError("validation outputs are all equal; Q2 is undefined")
    _check_overlap(emulator, test_x)
    mean, _ = emulator.predict_batch(test_x, warn_extrapolation=False)
    return 1.0 - float(np.sum((test_y - mean) ** 2)) / denom


def interval_covered(y, mean, half) -> np.ndarray:
    """Inclusion test with a machine-epsilon guard so exact interpolation
    hits (zero-width intervals) count as covered despite float rounding."""
    y = np.asarray(y, float)
    return np.abs(y - np.asarray(mean, float)) <= (
        np.asarray(half, float) + 1e-12 * (1.0 + np.abs(y)))


def coverage_report(emulator: FittedEmulator, test_x, test_y,
                    level: float = 0.95) -> float:
    """Fraction of test points whose observation falls inside the symmetric
    predictive interval mean +/- z * sqrt(mse)."""
    test_x = np.atleast_2d(np.asarray(test_x, float))
    test_y = np.asarray(test_y, float).reshape(-1)
    if test_y.size < 1:
        raise DataError("coverage_report requires at least 1 test point")
    mean, mse = emulator.predict_batch(test_x, warn_extrapolation=False)
    half = _z_value(level) * np.sqrt(mse)
    return float(np.mean(interval_covered(test_y, mean, half)))


@dataclass
class ValidationReport:
    """Bundle of accuracy metrics plus per-point residual records."""

    n_points: int
    q2: float | None = None
    loocv_error: float | None = None
    rmse: float | None = None
    coverage_95: float | None = None
    residuals: list = field(default_factory=list)  # (predicted, sd, actual)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {"n_points": self.n_points, "q2": self.q2,
             "loocv_error": self.loocv_error, "rmse": self.rmse,
             "coverage_95": self.coverage_95,
             "residuals": [list(r) for r in self.residuals]}
        d.update(self.extra)
        return d

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_residuals_csv(self, path) -> None:
        write_csv(path, ["predicted", "sd", "actual"], self.residuals)


def validate_emulator(emulator: FittedEmulator, test_x, test_y,
                      level: float = 0.95) -> ValidationReport:
    """Full test-sample report: Q2, coverage, RMSE and residual table."""
    test_x = np.atleast_2d(np.asarray(test_x, float))
    test_y = np.asarray(test_y, float).reshape(-1)
    mean, mse = emulator.predict_batch(test_x, warn_extrapolation=False)
    report = ValidationReport(n_points=test_y.size)
    report.q2 = q2_test(emulator, test_x, test_y)
    report.coverage_95 = coverage_report(emulator, test_x, test_y, level)
    report.rmse = float(np.sqrt(np.mean((test_y - mean) ** 2)))
    report.loocv_error = loocv_error(emulator) if emulator.training.m >= 2 else None
    report.residuals = [(float(mu), float(np.sqrt(v)), float(y))
                        for mu, v, y in zip(mean, mse, test_y)]
    return report
