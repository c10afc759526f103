"""Gaussian-process (Kriging) emulators.

Supports Simple Kriging (known constant mean), Ordinary Kriging (estimated
constant), Universal Kriging (linear or custom trend basis), hyperparameter
estimation by concentrated maximum likelihood or K-fold cross validation, and
BLUP prediction with mean-square error.

All linear algebra runs in a scaled space: inputs min-max scaled to [0, 1]
from the training data, outputs standardized to mean 0 / variance 1.
Predictions are destandardized at the boundary. Trend coefficients, process
variance and length-scales stored in :class:`Hyperparameters` refer to the
scaled space; ``FittedEmulator.process_variance`` reports the physical-unit
process variance.

No explicit matrix inverses: everything goes through the cached Cholesky
factor of the correlation matrix and a QR factorization of the whitened
trend basis.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from .design import _lhs_points
from .errors import (ConfigError, DataError, ExtrapolationWarning, FitError,
                     IllConditionedError, NumericalError)
from .fileio import atomic_write
from .kernels import (DEFAULT_NUGGET, CorrelationMatrix, KernelSpec,
                      SiteDistances, correlation_matrix, cross_corr_matrix)
from .spaces import DesignMatrix

EMULATOR_FORMAT_VERSION = 1

#: objective value used to mark failed hyperparameter candidates
_BIG = 1e25


@dataclass(frozen=True, eq=False)
class TrendSpec:
    """Trend (regression mean) specification.

    kinds:
      known_constant  Simple Kriging; fixed mean ``mu`` in physical units,
                      zero estimated coefficients
      constant        Ordinary Kriging; single basis f(x) = 1
      linear          Universal Kriging; basis [1, x_1, ..., x_d] on scaled inputs
      custom          user-supplied basis callables, each mapping an (m, d)
                      scaled input array to m values
    """

    kind: str = "constant"
    mu: float = 0.0
    basis: tuple = ()

    def __post_init__(self):
        if self.kind not in ("known_constant", "constant", "linear", "custom"):
            raise ConfigError(f"unknown trend kind {self.kind!r}")
        if self.kind == "custom" and not self.basis:
            raise ConfigError("custom trend requires at least one basis callable")

    def n_basis(self, d: int) -> int:
        return {"known_constant": 0, "constant": 1,
                "linear": d + 1}.get(self.kind, len(self.basis))

    def build_matrix(self, Xs: np.ndarray) -> np.ndarray:
        """Evaluate basis functions at scaled inputs; (m, n) matrix."""
        m, d = Xs.shape
        if self.kind == "known_constant":
            return np.empty((m, 0))
        if self.kind == "constant":
            return np.ones((m, 1))
        if self.kind == "linear":
            return np.hstack([np.ones((m, 1)), Xs])
        cols = [np.asarray(f(Xs), dtype=float).reshape(m) for f in self.basis]
        return np.column_stack(cols)

    def to_dict(self) -> dict:
        if self.kind == "custom":
            raise ConfigError("custom trend bases are not serializable")
        return {"kind": self.kind, "mu": self.mu}

    @classmethod
    def from_dict(cls, d) -> "TrendSpec":
        return cls(d["kind"], d.get("mu", 0.0))


@dataclass(frozen=True, eq=False)
class Hyperparameters:
    """Fitted GP hyperparameters (scaled space): trend coefficients beta,
    process variance sigma2, length-scales omega, roughness p, nugget."""

    beta: np.ndarray
    sigma2: float
    omega: np.ndarray
    p: np.ndarray
    nugget: np.ndarray

    def to_dict(self) -> dict:
        return {"beta": np.asarray(self.beta).tolist(),
                "sigma2": float(self.sigma2),
                "omega": np.asarray(self.omega).tolist(),
                "p": np.asarray(self.p).tolist(),
                "nugget": np.asarray(self.nugget).tolist()}


class TrainingSet:
    """Training data with scaling metadata.

    Inputs are min-max scaled per training set; outputs are standardized to
    mean 0 / variance 1. Constant input columns scale to 0; constant outputs
    flip ``degenerate`` and short-circuit fitting to a constant predictor.
    """

    def __init__(self, x_phys, y_phys, scale_inputs=True, standardize_outputs=True):
        x = np.atleast_2d(np.asarray(x_phys, dtype=float))
        y = np.asarray(y_phys, dtype=float).reshape(-1)
        if x.shape[0] != y.size:
            raise DataError(f"{x.shape[0]} input rows but {y.size} outputs")
        if x.shape[0] < 1:
            raise DataError("empty training set")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("training data contains non-finite values")
        self.x_phys = x
        self.y_phys = y
        self.scale_inputs = bool(scale_inputs)
        self.standardize_outputs = bool(standardize_outputs)
        if scale_inputs:
            self.x_min = x.min(axis=0)
            span = x.max(axis=0) - self.x_min
            self.x_span = np.where(span > 0, span, 1.0)
        else:
            self.x_min = np.zeros(x.shape[1])
            self.x_span = np.ones(x.shape[1])
        ystd = float(np.std(y))
        self.degenerate = ystd < 1e-14 * max(1.0, float(np.abs(y).max(initial=0.0)))
        if standardize_outputs and not self.degenerate:
            self.y_mean = float(np.mean(y))
            self.y_scale = ystd
        else:
            self.y_mean = 0.0
            self.y_scale = 1.0
        self.X = (x - self.x_min) / self.x_span
        self.y = (y - self.y_mean) / self.y_scale

    @property
    def m(self) -> int:
        return self.x_phys.shape[0]

    @property
    def dim(self) -> int:
        return self.x_phys.shape[1]

    def scale_x(self, x_phys) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x_phys, dtype=float)) - self.x_min) / self.x_span

    @classmethod
    def from_design(cls, design: DesignMatrix, y, **kw) -> "TrainingSet":
        return cls(design.to_physical(), y, **kw)

    def mu_std(self, mu_phys: float) -> float:
        return (mu_phys - self.y_mean) / self.y_scale


def _trend_values(training: TrainingSet, trend: TrendSpec, beta, Xs) -> np.ndarray:
    """Standardized trend mean at scaled points."""
    if trend.kind == "known_constant":
        return np.full(Xs.shape[0], training.mu_std(trend.mu))
    return trend.build_matrix(Xs) @ beta


def gls_beta(training: TrainingSet, trend: TrendSpec, R: CorrelationMatrix) -> np.ndarray:
    """Generalized-least-squares trend coefficients
    beta = (F' R^-1 F)^-1 F' R^-1 y, via triangular solves and QR."""
    F = trend.build_matrix(training.X)
    if F.shape[1] == 0:
        return np.empty(0)
    G = R.half_solve(F)
    z = R.half_solve(training.y)
    Q, Rq = np.linalg.qr(G)
    diag = np.abs(np.diag(Rq))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise DataError("trend basis is rank-deficient on this design "
                        "(e.g. constant input column with a linear trend)")
    return solve_triangular(Rq, Q.T @ z, lower=False)


def sigma2_hat(training: TrainingSet, trend: TrendSpec, beta,
               R: CorrelationMatrix) -> float:
    """Profiled process variance (1/m)(y - F beta)' R^-1 (y - F beta).

    Divides by m, not m - n. Zero residuals give 0, which callers flag as
    degenerate."""
    resid = training.y - _trend_values(training, trend, beta, training.X)
    z = R.half_solve(resid)
    return float(z @ z) / training.m


def neg_log_likelihood(training: TrainingSet, trend: TrendSpec,
                       spec: KernelSpec, nugget=DEFAULT_NUGGET) -> float:
    """Concentrated negative log-likelihood with beta and sigma2 profiled out:
    (m/2) log(2 pi sigma2) + (1/2) log|R| + m/2, reported in physical output
    units (the standardization offset m*log(y_scale) is added back so scaling
    the outputs by c shifts the value by m*log|c| without moving the argmin).
    """
    return _concentrated_nll(training, trend, spec, nugget, training.X)


def _concentrated_nll(training: TrainingSet, trend: TrendSpec,
                      spec: KernelSpec, nugget, sites) -> float:
    """:func:`neg_log_likelihood` with the training inputs given as ``sites``:
    ``training.X`` or a :class:`SiteDistances` of it, which gives the same
    value to the last bit."""
    R = correlation_matrix(sites, spec, nugget, auto_escalate=False)
    beta = gls_beta(training, trend, R)
    s2 = max(sigma2_hat(training, trend, beta, R), np.finfo(float).tiny)
    m = training.m
    return (0.5 * m * math.log(2.0 * math.pi * s2) + 0.5 * R.logdet + 0.5 * m
            + m * math.log(training.y_scale))


class FittedEmulator:
    """Conditioned GP ready for prediction. Immutable after construction;
    ``predict``/``predict_batch`` are pure and thread-safe."""

    def __init__(self, training: TrainingSet, trend: TrendSpec,
                 kernel: KernelSpec, nugget=DEFAULT_NUGGET,
                 sigma2_override=None, auto_escalate=True):
        if kernel.dim != training.dim:
            raise DataError(f"kernel dimension {kernel.dim} != input dimension "
                            f"{training.dim}")
        self.training = training
        self.trend = trend
        self.kernel = kernel
        self.degenerate = training.degenerate
        self.variance_degenerate = training.degenerate
        if self.degenerate:
            self.hyper = Hyperparameters(np.empty(0), 0.0, kernel.omega.copy(),
                                         kernel.p.copy(), np.zeros(training.m))
            self._R = None
            return
        n = trend.n_basis(training.dim)
        if n >= 1 and training.m < n + 1:
            raise DataError(f"need at least {n + 1} training points for a "
                            f"{trend.kind} trend, got {training.m}")
        R = correlation_matrix(training.X, kernel, nugget, auto_escalate=auto_escalate)
        beta = gls_beta(training, trend, R)
        s2 = sigma2_hat(training, trend, beta, R)
        self.variance_degenerate = s2 <= 1e-15
        if sigma2_override is not None:
            s2 = float(sigma2_override)
        self.hyper = Hyperparameters(beta, s2, kernel.omega.copy(),
                                     kernel.p.copy(), R.nugget)
        self._R = R
        self._F = trend.build_matrix(training.X)
        resid = training.y - _trend_values(training, trend, beta, training.X)
        self._resid_solve = R.solve(resid)
        if n:
            self._G = R.half_solve(self._F)
            self._Q, self._Rq = np.linalg.qr(self._G)
        else:
            self._G = self._Q = self._Rq = None

    # -- basic introspection ------------------------------------------------

    @property
    def m(self) -> int:
        return self.training.m

    @property
    def dim(self) -> int:
        return self.training.dim

    @property
    def process_variance(self) -> float:
        """sigma2 in physical output units."""
        return self.hyper.sigma2 * self.training.y_scale ** 2

    def in_training_box(self, x_phys) -> bool:
        x = np.atleast_2d(np.asarray(x_phys, float))
        lo = self.training.x_phys.min(axis=0)
        hi = self.training.x_phys.max(axis=0)
        return bool(np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12))

    # -- prediction ---------------------------------------------------------

    def _trend_at(self, Xs: np.ndarray) -> np.ndarray:
        return _trend_values(self.training, self.trend, self.hyper.beta, Xs)

    def _clamp_mse(self, mse_std: np.ndarray) -> np.ndarray:
        tol = 1e-12 * max(self.hyper.sigma2, 1.0)
        if np.any(mse_std < -tol):
            raise NumericalError(
                f"materially negative predictive MSE ({mse_std.min():.3e}); "
                "numerical breakdown in the correlation solves")
        return np.maximum(mse_std, 0.0)

    def predict(self, x_star, warn_extrapolation: bool = True):
        """Predictive mean and MSE at one point, in physical units."""
        means, mses = self.predict_batch(np.atleast_2d(np.asarray(x_star, float)),
                                         warn_extrapolation=warn_extrapolation)
        return float(means[0]), float(mses[0])

    def predict_batch(self, x_star, with_covariance: bool = False,
                      warn_extrapolation: bool = True):
        """Predictive means and MSE vector (physical units) at a batch of
        points; optionally also the full posterior covariance matrix.

        The covariance is the natural matrix extension of the pointwise MSE:
        sigma2 * [R(x*_a, x*_b) - r_a' R^-1 r_b + u_a' (F' R^-1 F)^-1 u_b]
        with u = F' R^-1 r - f. Its diagonal is the MSE vector.
        """
        if isinstance(x_star, DesignMatrix):
            x_star = x_star.to_physical()
        X = np.atleast_2d(np.asarray(x_star, dtype=float))
        if X.shape[1] != self.dim:
            raise DataError(f"points have dimension {X.shape[1]}, "
                            f"emulator has {self.dim}")
        if warn_extrapolation and X.size and not self.in_training_box(X):
            warnings.warn("prediction outside the training bounding box; GP "
                          "extrapolation can carry large errors",
                          ExtrapolationWarning, stacklevel=2)
        if self.degenerate:
            means = np.full(X.shape[0], self.training.y_phys[0])
            mses = np.zeros(X.shape[0])
            if with_covariance:
                return means, mses, np.zeros((X.shape[0], X.shape[0]))
            return means, mses

        tr = self.training
        Xs = tr.scale_x(X)
        q = Xs.shape[0]
        rmat = cross_corr_matrix(tr.X, Xs, self.kernel)          # (m, q)
        mean_std = self._trend_at(Xs) + rmat.T @ self._resid_solve
        Z = self._R.half_solve(rmat)                             # (m, q)
        var_red = np.einsum("ij,ij->j", Z, Z)
        if self._G is not None:
            U = self._G.T @ Z - self.trend.build_matrix(Xs).T    # (n, q)
            W = solve_triangular(self._Rq.T, U, lower=True)
            trend_term = np.einsum("ij,ij->j", W, W)
        else:
            W = None
            trend_term = 0.0
        s2 = self.hyper.sigma2
        mse_std = self._clamp_mse(s2 * (1.0 - var_red + trend_term))
        means = mean_std * tr.y_scale + tr.y_mean
        mses = mse_std * tr.y_scale ** 2
        if not with_covariance:
            return means, mses
        Rss = cross_corr_matrix(Xs, Xs, self.kernel)
        cov_std = s2 * (Rss - Z.T @ Z)
        if W is not None:
            cov_std += s2 * (W.T @ W)
        cov_std = 0.5 * (cov_std + cov_std.T)
        np.fill_diagonal(cov_std, mse_std)
        return means, mses, cov_std * tr.y_scale ** 2

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": EMULATOR_FORMAT_VERSION,
            "trend": self.trend.to_dict(),
            "kernel": self.kernel.to_dict(),
            "hyperparameters": self.hyper.to_dict(),
            "scaling": {
                "scale_inputs": self.training.scale_inputs,
                "standardize_outputs": self.training.standardize_outputs,
                "x_min": self.training.x_min.tolist(),
                "x_span": self.training.x_span.tolist(),
                "y_mean": self.training.y_mean,
                "y_scale": self.training.y_scale,
            },
            "training": {
                "x": self.training.x_phys.tolist(),
                "y": self.training.y_phys.tolist(),
            },
            "degenerate": self.degenerate,
        }

    def save(self, path) -> None:
        atomic_write(Path(path), json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, d) -> "FittedEmulator":
        if d.get("version") != EMULATOR_FORMAT_VERSION:
            raise DataError(f"unsupported emulator format version "
                            f"{d.get('version')!r}")
        scaling = d["scaling"]
        training = TrainingSet(d["training"]["x"], d["training"]["y"],
                               scale_inputs=scaling["scale_inputs"],
                               standardize_outputs=scaling["standardize_outputs"])
        trend = TrendSpec.from_dict(d["trend"])
        kernel = KernelSpec.from_dict(d["kernel"])
        hyper = d["hyperparameters"]
        nugget = np.asarray(hyper["nugget"], dtype=float)
        return cls(training, trend, kernel, nugget=nugget,
                   sigma2_override=hyper["sigma2"])

    @classmethod
    def load(cls, path) -> "FittedEmulator":
        path = Path(path)
        if not path.exists():
            raise DataError(f"emulator file not found: {path}")
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_emulator(training: TrainingSet, trend: TrendSpec, kernel: KernelSpec,
                   nugget=DEFAULT_NUGGET, sigma2_override=None,
                   auto_escalate=True) -> FittedEmulator:
    """Condition a GP on training data with fixed kernel hyperparameters."""
    return FittedEmulator(training, trend, kernel, nugget=nugget,
                          sigma2_override=sigma2_override,
                          auto_escalate=auto_escalate)


def _multistart_minimize(objective, lb, ub, n_restarts, seed):
    """L-BFGS-B from LHS-distributed starting points in [lb, ub]; returns the
    best (value, argmin) with ties broken first-found."""
    rng = np.random.default_rng(seed)
    u = _lhs_points(n_restarts, lb.size, rng, midpoint=False)
    starts = lb + u * (ub - lb)
    results = []
    for t0 in starts:
        try:
            res = minimize(objective, t0, method="L-BFGS-B",
                           bounds=list(zip(lb, ub)))
            results.append((float(res.fun), res.x))
        except (np.linalg.LinAlgError, FloatingPointError):
            results.append((_BIG, t0))
    return results


def fit_mle(training: TrainingSet, trend: TrendSpec, kernel: str = "gaussian",
            p=None, free_p: bool = False, p_bounds=(0.0, 2.0),
            omega_bounds=(1e-3, 1e3), n_restarts: int = 5, seed: int = 0,
            nugget=DEFAULT_NUGGET) -> FittedEmulator:
    """Maximum-likelihood fit: multistart bounded minimization of the
    concentrated negative log-likelihood over log(omega) (and p when
    ``free_p`` is set for the power-exponential kind).

    Restart starting points are drawn by Latin hypercube over the bound box;
    ties between equally good optima go to the first-found candidate. Same
    data and seed reproduce the fit bit-for-bit.
    """
    if training.degenerate:
        return build_emulator(training, trend,
                              KernelSpec(kernel, np.ones(training.dim), p))
    d = training.dim
    template = KernelSpec(kernel, np.ones(d), p)
    if free_p and kernel != "power_exponential":
        raise ConfigError("free_p applies only to the power_exponential kind")
    lo, hi = float(omega_bounds[0]), float(omega_bounds[1])
    if not 0 < lo < hi:
        raise ConfigError(f"invalid omega bounds ({lo}, {hi})")
    lb = np.full(d, math.log(lo))
    ub = np.full(d, math.log(hi))
    if free_p:
        lb = np.concatenate([lb, np.full(d, p_bounds[0])])
        ub = np.concatenate([ub, np.full(d, p_bounds[1])])

    def unpack(t):
        omega = np.exp(t[:d])
        return template.with_params(omega, t[d:] if free_p else None)

    # distances and assembly scratch for every restart of this fit only
    sites = SiteDistances(training.X)

    def objective(t):
        try:
            val = _concentrated_nll(training, trend, unpack(t), nugget, sites)
        except (IllConditionedError, DataError, np.linalg.LinAlgError):
            return _BIG
        return val if np.isfinite(val) else _BIG

    results = _multistart_minimize(objective, lb, ub, n_restarts, seed)
    del sites  # freed before the final conditioning, to keep peak memory down
    best_val, best_t = min(results, key=lambda r: r[0])
    if best_val >= _BIG:
        raise FitError(f"all {n_restarts} MLE restarts failed to produce a "
                       "finite likelihood; check the data and kernel choice")
    return build_emulator(training, trend, unpack(best_t), nugget=nugget)


def make_folds(m: int, k: int, seed: int) -> np.ndarray:
    """Deterministic fold assignment: seeded shuffle then round-robin.
    Returns an array of fold labels in [0, k)."""
    if not 2 <= k <= m:
        raise DataError(f"fold count must satisfy 2 <= K <= m, got K={k}, m={m}")
    order = np.random.default_rng(seed).permutation(m)
    labels = np.empty(m, dtype=int)
    labels[order] = np.arange(m) % k
    return labels


def _cv_heldout(training: TrainingSet, trend: TrendSpec, spec: KernelSpec,
                nugget, fold_labels: np.ndarray, beta_fixed=None):
    """Held-out predictions for each fold with fixed (omega, p).

    If ``beta_fixed`` is None the trend coefficients are re-estimated by GLS
    on each fold's retained points (a genuine reduced fit); otherwise the
    given coefficients are reused and only the conditioning set changes.

    Returns standardized held-out means ``mu_cv`` and unit-process-variance
    predictive factors ``v_cv`` (these include the held-out points' own
    nugget, i.e. they are variances for predicting the noisy observation).
    """
    m = training.m
    nug = np.asarray(nugget, dtype=float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    mu_cv = np.empty(m)
    v_cv = np.empty(m)
    for k in np.unique(fold_labels):
        te = fold_labels == k
        tr_idx = np.nonzero(~te)[0]
        te_idx = np.nonzero(te)[0]
        if tr_idx.size == 0 or te_idx.size == 0:
            raise DataError("cross-validation fold is empty")
        Xtr, Xte = training.X[tr_idx], training.X[te_idx]
        ytr = training.y[tr_idx]
        Rk = correlation_matrix(Xtr, spec, nug[tr_idx], auto_escalate=False)
        if trend.kind == "known_constant":
            beta_k = np.empty(0)
            trend_tr = np.full(tr_idx.size, training.mu_std(trend.mu))
            trend_te = np.full(te_idx.size, training.mu_std(trend.mu))
            Ftr = None
        else:
            Ftr = trend.build_matrix(Xtr)
            if beta_fixed is None:
                G = Rk.half_solve(Ftr)
                Q, Rq = np.linalg.qr(G)
                diag = np.abs(np.diag(Rq))
                if diag.min() <= 1e-12 * max(diag.max(), 1.0):
                    raise DataError("trend basis is rank-deficient on a CV fold")
                beta_k = solve_triangular(Rq, Q.T @ Rk.half_solve(ytr), lower=False)
            else:
                beta_k = beta_fixed
            trend_tr = Ftr @ beta_k
            trend_te = trend.build_matrix(Xte) @ beta_k
        resid = ytr - trend_tr
        rte = cross_corr_matrix(Xtr, Xte, spec)                  # (m_tr, m_te)
        mu_cv[te_idx] = trend_te + rte.T @ Rk.solve(resid)
        Z = Rk.half_solve(rte)
        v = (1.0 + nug[te_idx]) - np.einsum("ij,ij->j", Z, Z)
        if Ftr is not None and beta_fixed is None:
            U = G.T @ Z - trend.build_matrix(Xte).T
            W = solve_triangular(Rq.T, U, lower=True)
            v = v + np.einsum("ij,ij->j", W, W)
        v_cv[te_idx] = v
    return mu_cv, np.maximum(v_cv, np.finfo(float).tiny)


def fit_cv(training: TrainingSet, trend: TrendSpec, kernel: str = "gaussian",
           k_folds: int = 10, p=None, free_p: bool = False,
           p_bounds=(0.0, 2.0), omega_bounds=(1e-3, 1e3),
           n_restarts: int = 5, seed: int = 0,
           nugget=DEFAULT_NUGGET) -> FittedEmulator:
    """Cross-validation fit: length-scales (and roughness exponents when
    ``free_p`` is set for the power-exponential kind) minimize the sum of
    squared held-out prediction errors over K folds (K = m gives LOOCV); the
    process variance is then the mean of squared predictive-sd-standardized
    held-out residuals.

    Folds re-estimate trend coefficients on their retained points. Fold
    assignment is a seeded shuffle followed by round-robin. Ties in the CV
    objective (e.g. data lying exactly on the trend) are broken by the
    smallest length-scale vector norm.
    """
    if training.degenerate:
        return build_emulator(training, trend,
                              KernelSpec(kernel, np.ones(training.dim), p))
    d = training.dim
    fold_labels = make_folds(training.m, k_folds, seed)
    template = KernelSpec(kernel, np.ones(d), p)
    if free_p and kernel != "power_exponential":
        raise ConfigError("free_p applies only to the power_exponential kind")
    lo, hi = float(omega_bounds[0]), float(omega_bounds[1])
    lb = np.full(d, math.log(lo))
    ub = np.full(d, math.log(hi))
    if free_p:
        lb = np.concatenate([lb, np.full(d, p_bounds[0])])
        ub = np.concatenate([ub, np.full(d, p_bounds[1])])

    def unpack(t):
        return template.with_params(np.exp(t[:d]), t[d:] if free_p else None)

    def objective(t):
        try:
            mu_cv, _ = _cv_heldout(training, trend, unpack(t), nugget, fold_labels)
        except (IllConditionedError, DataError, np.linalg.LinAlgError):
            return _BIG
        val = float(np.sum((training.y - mu_cv) ** 2))
        return val if np.isfinite(val) else _BIG

    results = _multistart_minimize(objective, lb, ub, n_restarts, seed)
    best_val = min(v for v, _ in results)
    if best_val >= _BIG:
        raise FitError(f"all {n_restarts} CV restarts failed")
    tol = 1e-12 * max(1.0, abs(best_val))
    tied = [t for v, t in results if v <= best_val + tol]
    best_t = min(tied, key=lambda t: float(np.linalg.norm(np.exp(t[:d]))))
    spec = unpack(best_t)
    mu_cv, v_cv = _cv_heldout(training, trend, spec, nugget, fold_labels)
    resid = training.y - mu_cv
    sigma2_cv = float(np.mean(resid ** 2 / v_cv))
    return build_emulator(training, trend, spec, nugget=nugget,
                          sigma2_override=sigma2_cv)
