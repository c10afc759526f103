"""Gaussian-process (Kriging) emulators.

Supports Simple Kriging (known constant mean), Ordinary Kriging (estimated
constant), Universal Kriging (linear trend basis), hyperparameter
estimation by concentrated maximum likelihood or K-fold cross validation, and
BLUP prediction with mean-square error.

All linear algebra runs in a scaled space: inputs min-max scaled to [0, 1]
from the training data, outputs standardized to mean 0 / variance 1.
Predictions are destandardized at the boundary. Trend coefficients, process
variance and length-scales stored in :class:`Hyperparameters` refer to the
scaled space; ``FittedEmulator.process_variance`` reports the physical-unit
process variance.

Prediction and the likelihood form no explicit matrix inverse: they go
through the cached Cholesky factor of the correlation matrix and a QR
factorization of the whitened trend basis. Two exceptions: the CV fit forms
the projected precision matrix from that factor and inverts each fold's
small block of it (:func:`_cv_heldout`), and the fixed-rows predictor the
log posterior calls applies the training matrix's inverse through the
eigendecompositions of its Kronecker factors when the training rows are a
row-major product of x and theta rows, the ``cross`` design's layout
(:meth:`FittedEmulator._fixed_rows_predictor`). That path agrees with
``predict_batch`` to rounding, not bit for bit; every other layout keeps the
dense solves, bit for bit.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .design import _lhs_points
from .errors import (ConfigError, DataError, ExtrapolationWarning, FitError,
                     IllConditionedError, NumericalError)
from .fileio import (_BOOL, _FLOAT, _NONNEGATIVE, _check, _choice, _list, _number,
                     _open, _variant, checked, read_json, write_json)
from .kernels import (DEFAULT_NUGGET, KERNEL_KINDS, CorrelationMatrix,
                      KernelSpec, SiteDistances, _corr_1d, _cross_factors,
                      _nugget_vector, _product_corr, _tri_solve, correlation_matrix,
                      cross_corr_matrix)

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
    """

    kind: str = "constant"
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("known_constant", "constant", "linear"):
            raise ConfigError(f"unknown trend kind {self.kind!r}")

    def n_basis(self, d: int) -> int:
        return {"known_constant": 0, "constant": 1, "linear": d + 1}[self.kind]

    def build_matrix(self, Xs: np.ndarray) -> np.ndarray:
        """Evaluate basis functions at scaled inputs; (m, n) matrix."""
        m, d = Xs.shape
        if self.kind == "known_constant":
            return np.empty((m, 0))
        if self.kind == "constant":
            return np.ones((m, 1))
        return np.hstack([np.ones((m, 1)), Xs])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mu": self.mu}


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

    def mu_std(self, mu_phys: float) -> float:
        return (mu_phys - self.y_mean) / self.y_scale


class _GLS:
    """Generalized least squares of the standardized training outputs ``y``
    on the trend basis ``F`` under one factored correlation ``R``, and the
    BLUP algebra conditioned on it.

    beta = (F' R^-1 F)^-1 F' R^-1 y is estimated from the whitened basis
    G = L^-1 F by QR, and F, G and its triangular factor Rq are kept for the
    trend-uncertainty term of the prediction. Simple Kriging's basis has no
    columns: the same algebra then runs on empty products (G is (m, 0), Rq
    and beta are empty, and every trend-uncertainty term is +0.0), and the
    trend is the known constant ``mu``. ``alpha`` = R^-1 (y - trend) is
    solved on first read and then kept; the likelihood never reads it.
    """

    def __init__(self, training: TrainingSet, trend: TrendSpec, R: CorrelationMatrix):
        self.R = R
        self.mu = training.mu_std(trend.mu)
        self.F = F = trend.build_matrix(training.X)
        self.G = R.half_solve(F)
        Q, self.Rq = np.linalg.qr(self.G)
        diag = np.abs(np.diag(self.Rq))
        if np.any(diag <= 1e-12 * max(diag.max(initial=0.0), 1.0)):
            raise DataError("trend basis is rank-deficient on this design "
                            "(e.g. constant input column with a linear trend)")
        self.beta = _tri_solve(self.Rq, Q.T @ R.half_solve(training.y), False)
        self.resid = training.y - self.trend(F)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return self.R.solve(self.resid)

    def trend(self, F) -> np.ndarray:
        """Trend mean at the sites whose basis rows are ``F``."""
        return np.full(F.shape[0], self.mu) if F.shape[1] == 0 else F @ self.beta

    def sigma2(self) -> float:
        """Profiled process variance (1/m) resid' R^-1 resid."""
        z = self.R.half_solve(self.resid)
        return float(z @ z) / self.resid.size

    def predict(self, r, Fs, sets):
        """``(r' alpha, Z, W)`` at the ``sets`` site sets of q sites each
        whose cross-correlations to the conditioning sites are the columns
        of ``r`` (m, sets q), set by set, with basis rows ``Fs`` (sets q, n):
        the BLUP mean less the trend, Z = L^-1 r, and W = Rq^-T (G' Z - Fs'),
        (n, sets q). Unit-variance MSE: 1 - |Z_j|^2 + |W_j|^2.

        r' alpha is one matrix-vector product per set, a batched product
        over the sets' contiguous (m, q) blocks, since such a product's bits
        depend on its column count; the solves' do not."""
        blocks = np.ascontiguousarray(r.reshape(r.shape[0], sets, -1).transpose(1, 0, 2))
        r_alpha = (blocks.transpose(0, 2, 1) @ self.alpha).reshape(-1)
        Z = self.R.half_solve(r)
        return r_alpha, Z, _tri_solve(self.Rq.T, self.G.T @ Z - Fs.T, True)


def _concentrated_nll(training: TrainingSet, trend: TrendSpec,
                      spec: KernelSpec, nugget, sites) -> float:
    """Concentrated negative log-likelihood with beta and sigma2 profiled out:
    (m/2) log(2 pi sigma2) + (1/2) log|R| + m/2, reported in physical output
    units (the standardization offset m*log(y_scale) is added back so scaling
    the outputs by c shifts the value by m*log|c| without moving the argmin).

    The training inputs are given as ``sites``: ``training.X`` or a
    :class:`SiteDistances` of it, which gives the same value to the last
    bit. Nothing reads the matrix after its factorization, so it is factored
    in place."""
    R = correlation_matrix(sites, spec, nugget, auto_escalate=False,
                           _keep_values=False)
    s2 = max(_GLS(training, trend, R).sigma2(), np.finfo(float).tiny)
    m = training.m
    return (0.5 * m * math.log(2.0 * math.pi * s2) + 0.5 * R.logdet + 0.5 * m
            + m * math.log(training.y_scale))


def _eigh(A: np.ndarray):
    """``np.linalg.eigh(A)``, each eigenvalue then recomputed as its vector's
    Rayleigh quotient in ``np.longdouble``. ``eigh``'s eigenvalues err by
    about eps |A|, and a Kronecker spectrum lam_a mu_b + tau multiplies that
    by the other factor's eigenvalue: on the cross designs the tests check,
    covariances then lost up to 9e-10 of the process variance, against
    1.7e-10 with the quotients (no gain where long double is double). The
    quotients cost O(n^3) outside BLAS: 0.3 s at n = 480."""
    _, Q = np.linalg.eigh(A)
    Ql = Q.astype(np.longdouble)
    return np.einsum("ij,ij->j", Ql, A.astype(np.longdouble) @ Ql).astype(float), Q


def _gram(A: np.ndarray, lead: tuple) -> np.ndarray:
    """The (K, q, q) products A_k'A_k of the K column blocks of A, ``lead``
    = (K, q), in one batched matmul."""
    B = A.reshape((A.shape[0],) + lead)
    return B.transpose(1, 2, 0) @ B.transpose(1, 0, 2)


class FittedEmulator:
    """Conditioned GP ready for prediction. The construction solves for
    R^-1 (y - trend) as well as factoring R, so nothing changes after it;
    ``predict_batch`` is pure and thread-safe."""

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
        if self.degenerate:
            self.hyper = Hyperparameters(np.empty(0), 0.0, kernel.omega.copy(),
                                         kernel.p.copy(), np.zeros(training.m))
            self._gls = None
            return
        n = trend.n_basis(training.dim)
        if training.m < n + 1:
            raise DataError(f"need at least {n + 1} training points for a "
                            f"{trend.kind} trend, got {training.m}")
        R = correlation_matrix(training.X, kernel, nugget, auto_escalate=auto_escalate)
        self._gls = _GLS(training, trend, R)
        self._gls.alpha  # solved here, so nothing changes after construction
        s2 = self._gls.sigma2() if sigma2_override is None else float(sigma2_override)
        self.hyper = Hyperparameters(self._gls.beta, s2, kernel.omega.copy(),
                                     kernel.p.copy(), R.nugget)

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

    def _clamp_mse(self, mse_std: np.ndarray) -> np.ndarray:
        """``mse_std`` with its rounding-level negatives set to 0, in place;
        raises on a materially negative one."""
        tol = 1e-12 * max(self.hyper.sigma2, 1.0)
        lowest = np.fmin.reduce(mse_std, axis=None, initial=0.0)     # nan skipped
        if lowest < -tol:
            raise NumericalError(
                f"materially negative predictive MSE ({lowest:.3e}); "
                "numerical breakdown in the correlation solves")
        return np.maximum(mse_std, 0.0, out=mse_std)

    def predict_batch(self, x_star, with_covariance: bool = False,
                      warn_extrapolation: bool = True):
        """Predictive means and MSE vector (physical units) at a batch of
        points; optionally also the full posterior covariance matrix.

        The covariance is the natural matrix extension of the pointwise MSE:
        sigma2 * [R(x*_a, x*_b) - r_a' R^-1 r_b + u_a' (F' R^-1 F)^-1 u_b]
        with u = F' R^-1 r - f. Its diagonal is the MSE vector.
        """
        X = np.atleast_2d(np.asarray(x_star, dtype=float))
        if X.shape[1] != self.dim:
            raise DataError(f"points have dimension {X.shape[1]}, "
                            f"emulator has {self.dim}")
        if not np.isfinite(X).all():             # the solves do not check
            raise DataError("prediction points must be finite")
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

        Xs = self.training.scale_x(X)
        # the q points as a stack of one site set: (m, 1, q) and (1, q, n)
        rmat = cross_corr_matrix(self.training.X, Xs, self.kernel)[:, None]
        Fs = self.trend.build_matrix(Xs)[None]
        mean = self._gls.trend(Fs[0])[None]
        if not with_covariance:
            means, mses = self._blup(rmat, Fs, mean)
            return means[0], mses[0]
        means, cov = self._blup(rmat, Fs, mean, cross_corr_matrix(Xs, Xs, self.kernel))
        return means[0], cov[0].diagonal().copy(), cov[0]

    def _blup(self, rmat, Fs, trend_mean, Rss=None):
        """(K, q) physical-unit means and MSEs, or means and (K, q, q)
        covariances when ``Rss`` = R(x*, x*) is given, at a stack of K site
        sets of q sites, with cross-correlations ``rmat`` (m, K, q), basis rows
        ``Fs`` (K, q, n) and their trend means ``trend_mean`` (K, q), or (1, q, n)
        and (1, q) shared by every set: the algebra of :meth:`predict_batch` (a
        stack of one) and :meth:`_fixed_rows_predictor`'s dense path, for
        every trend, n = 0 included. One solve serves all K q columns."""
        lead = rmat.shape[1:]
        cols = math.prod(lead)
        Fs = np.broadcast_to(Fs, lead + Fs.shape[-1:]).reshape(cols, Fs.shape[-1])
        r_alpha, Z, W = self._gls.predict(rmat.reshape(rmat.shape[0], cols), Fs, lead[0])
        var_red = np.einsum("ij,ij->j", Z, Z).reshape(lead)
        trend_term = np.einsum("ij,ij->j", W, W).reshape(lead)
        mean_std = trend_mean + r_alpha.reshape(lead)
        if Rss is None:
            return self._physical(mean_std, var_red, trend_term)
        return self._physical(mean_std, var_red, trend_term, Rss - _gram(Z, lead),
                              _gram(W, lead))

    def _physical(self, mean_std, var_red, trend_term, reduced=None, WtW=None):
        """(K, q) means and MSEs in physical units from the unit-variance
        BLUP terms at a stack of K site sets of q sites: the (K, q)
        standardized means, |Z_j|^2 and |W_j|^2 (zeros for a basis of no
        columns). With the (K, q, q) ``reduced`` = R(x*, x*) - Z'Z and
        ``WtW`` = W'W, means and the (K, q, q) covariances instead,
        symmetrized and with the MSEs on their diagonals; ``reduced`` and
        ``WtW`` are scaled in place."""
        tr = self.training
        s2 = self.hyper.sigma2
        mse_std = self._clamp_mse(s2 * (1.0 - var_red + trend_term))
        means = mean_std * tr.y_scale
        means += tr.y_mean
        if reduced is None:
            return means, mse_std * tr.y_scale ** 2
        cov_std = np.multiply(reduced, s2, out=reduced)
        cov_std += np.multiply(WtW, s2, out=WtW)
        q = cov_std.shape[-1]
        cov = cov_std + cov_std.swapaxes(-1, -2)
        cov *= 0.5
        # the diagonals of every stacked matrix, as one strided view
        cov.reshape(cov.shape[:-2] + (q * q,))[..., ::q + 1] = mse_std
        cov *= tr.y_scale ** 2
        return means, cov

    def _fixed_rows_predictor(self, x_fixed):
        """``thetas -> (means, covs)``: for a (K, dt) stack of finite thetas
        of the last ``dt = dim - x_fixed.shape[1]`` inputs, the (K, q) means
        and (K, q, q) covariances of ``predict_batch`` at each theta's rows
        ``[x_fixed, theta]``, without the extrapolation warning. A row
        agrees with its own stack of one to rounding, not bit for bit.

        What does not depend on theta is computed here once: the scaled x
        columns, their kernel factors, R(x*, x*), whose theta factors all
        have distance exactly 0, and, unless the trend is ``linear``, the
        trend basis rows and means, which then hold no theta. The callable
        builds each theta's scaled sites only for a ``linear`` trend, and
        returns no MSE vector, only the covariance that carries it. It
        keeps no scratch between calls, so it is as thread-safe as the
        emulator. A degenerate emulator gives its constant and a zero
        covariance. Otherwise:

        - When the scaled training rows are the row-major product of the
          fixed columns' distinct rows and the theta columns' distinct rows
          (:func:`_cross_factors`: a ``cross`` design's layout, read from
          the training data, so a reloaded emulator takes it too), each
          theta costs O(n_t^2 + n_x n_t + n_x q^2) whatever m = n_x n_t is
          (:meth:`_kronecker_moments`). It agrees with the dense path to
          rounding, not bit for bit: the tests hold the means to 1e-8
          relative and the covariances to 1e-9 of the process variance.
        - Otherwise, for a nugget that is not one constant, or where the
          Kronecker spectrum is not positive, the dense path runs, for a
          stack of one bit for bit ``predict_batch``: each call evaluates
          each theta kernel factor once on the m-vector |X_k - theta_k|
          (every column of the stacked rows' factor is that vector),
          multiplies it into a fresh copy of the x product in dimension
          order, as the stacked assembly does, and solves against the
          training factor, one solve for the whole stack.
        """
        x = np.atleast_2d(np.asarray(x_fixed, dtype=float))
        (q, dx), d = x.shape, self.dim
        if dx > d:
            raise DataError(f"fixed rows have dimension {dx}, emulator has {d}")
        tr, dt = self.training, d - dx
        rows = np.zeros((q, d))                   # theta columns: any constant
        rows[:, :dx] = (x - tr.x_min[:dx]) / tr.x_span[:dx]
        t_min, t_span, gls = tr.x_min[dx:], tr.x_span[dx:], self._gls
        if self.degenerate:
            def moments(ts):
                K = len(ts)
                return np.full((K, q), tr.y_phys[0]), np.zeros((K, q, q))
        else:
            if self.trend.kind == "linear":
                def basis(ts):
                    Xs = np.empty((len(ts), q, d))
                    Xs[:, :, :dx] = rows[:, :dx]
                    Xs[:, :, dx:] = ts[:, None, :]
                    Fs = self.trend.build_matrix(Xs.reshape(-1, d))
                    return Fs.reshape(len(ts), q, d + 1), gls.trend(Fs).reshape(-1, q)
            else:
                fixed = self.trend.build_matrix(rows)[None]   # (1, q, n)
                fixed_mean = gls.trend(fixed[0])[None]        # (1, q)
                for a in (fixed, fixed_mean):
                    a.setflags(write=False)

                def basis(ts):
                    return fixed, fixed_mean
            Rss = cross_corr_matrix(rows, rows, self.kernel)
            Rss.setflags(write=False)
            factors = _cross_factors(tr.X, dx)
            moments = None if factors is None else self._kronecker_moments(
                *factors, rows[:, :dx], Rss, basis)
            if moments is None:
                moments = self._dense_moments(rows[:, :dx], Rss, basis)

        def predict(thetas):
            thetas = np.asarray(thetas, dtype=float)
            if thetas.ndim != 2 or thetas.shape[1] != dt:
                raise DataError(f"theta stack has shape {thetas.shape}, "
                                f"expected (K, {dt})")
            ts = (thetas - t_min) / t_span                           # (K, dt)
            return moments(ts)
        return predict

    def _dense_moments(self, xs, Rss, basis):
        """``ts -> (means, cov)`` through :meth:`_blup` at the scaled fixed
        rows ``xs`` and a (K, dt) stack of scaled thetas ``ts``, whose basis
        rows and their trend means ``basis(ts)`` gives (:meth:`_blup`)."""
        kind, omega, p = self.kernel.kind, self.kernel.omega, self.kernel.p
        dx = xs.shape[1]
        rx = _product_corr(self.training.X[:, :dx], xs, self.kernel)
        rx.setflags(write=False)
        X_t = [np.ascontiguousarray(self.training.X[:, k:k + 1])
               for k in range(dx, self.dim)]

        def moments(ts):
            Fs, trend_mean = basis(ts)
            r = np.empty((rx.shape[0], ts.shape[0], rx.shape[1]))  # (m, K, q)
            r[:] = rx[:, None, :]
            for k, col in enumerate(X_t):
                r *= _corr_1d(kind, np.abs(col - ts[:, k]), omega[dx + k],
                              p[dx + k])[:, :, None]
            return self._blup(r, Fs, trend_mean, Rss)
        return moments

    def _kronecker_moments(self, u_x, u_t, xs, Rss, basis):
        """``ts -> (means, cov)`` for training rows laid out as
        ``[u_x[a], u_t[b]]`` at row a * n_t + b, at the scaled fixed rows
        ``xs`` (q, dx) and a (K, dt) stack of scaled thetas ``ts``, whose
        basis rows and their trend means ``basis(ts)`` gives (:meth:`_blup`);
        None where the dense path must serve instead.

        With K = R_x (x) R_t + tau I = (Q_x (x) Q_t) diag(lam_a mu_b + tau)
        (Q_x (x) Q_t)', a theta's cross-correlations are r = R_x(u_x, xs)
        (x) r_t, so Z'Z = r' K^-1 r = P' diag(w) P with P = Q_x' R_x(u_x, xs)
        and w_a = sum_b (Q_t' r_t)_b^2 / (lam_a mu_b + tau). The mean's
        r' alpha and the trend term's F' K^-1 r contract r_t against
        R_x(u_x, xs)' times alpha and K^-1 F, reshaped to (n_x, n_t), which
        are formed here once. alpha, beta, F and the trend's QR come from the
        dense conditioning, which does not depend on theta (Saatci 2011;
        Stegle et al. 2011); as in :meth:`_blup`, a basis of no columns runs
        the same steps on empty products. A stack's r_t are the rows of one
        (K, n_t) matrix, so each step above is one matrix product for all K.
        """
        nugget = self.hyper.nugget
        if not np.all(nugget == nugget[0]):
            return None
        gls, (n_x, dx), n_t = self._gls, u_x.shape, u_t.shape[0]
        kind, omega, p = self.kernel.kind, self.kernel.omega, self.kernel.p
        spec_t = KernelSpec(kind, omega[dx:], p[dx:])
        omega_t, p_t = spec_t.omega, spec_t.p
        lam, Q_x = _eigh(_product_corr(u_x, u_x, self.kernel))
        mu, Q_t = _eigh(_product_corr(u_t, u_t, spec_t))
        spectrum = np.outer(lam, mu) + nugget[0]
        if not np.all(spectrum > 0):
            return None
        D_inv = 1.0 / spectrum                                   # (n_x, n_t)
        r_x = _product_corr(u_x, xs, self.kernel)                # (n_x, q)
        q = r_x.shape[1]
        P = Q_x.T @ r_x
        PP = (P[:, :, None] * P[:, None, :]).reshape(n_x, q * q)
        coef = np.hstack([gls.alpha[:, None], gls.R.solve(gls.F)])   # alpha, K^-1 F
        # E_T[b, k * q + i] = sum_a r_x[a, i] coef[a * n_t + b, k]
        E_T = np.einsum("ai,abk->bki", r_x, coef.reshape(n_x, n_t, -1)).reshape(n_t, -1)
        D_inv_T = np.ascontiguousarray(D_inv.T)
        for a in (D_inv_T, PP, E_T, Q_t):
            a.setflags(write=False)

        def moments(ts):
            Fs, trend_mean = basis(ts)
            K, n = len(ts), Fs.shape[2]
            # every theta dimension's kernel factor in one expression
            f = _corr_1d(kind, np.abs(ts[:, None, :] - u_t), omega_t, p_t)
            r_t = f[:, :, 0]                                     # (K, n_t)
            for k in range(1, f.shape[2]):
                r_t = r_t * f[:, :, k]
            # one row per theta, so each product is one gemm over the stack.
            # A row's bits can depend on K: OpenBLAS's gemm kernels round a
            # row by the row block it falls in (on a 480-row cross design,
            # stacks of 1-3 give a row the same bits and stacks of 4 or more
            # other ones). numpy sends a single row to gemv, which rounds
            # differently again, so a stack of one goes as a stack of two
            if K == 1:
                r_t = np.vstack([r_t, r_t])
            s = r_t @ Q_t
            ZtZ = ((s * s) @ D_inv_T) @ PP                       # (K, q q)
            v = r_t @ E_T                                        # (K, (1 + n) q)
            ZtZ, v = ZtZ[:K], v[:K]
            var_red = ZtZ[:, ::q + 1]
            ZtZ = ZtZ.reshape(K, q, q)
            mean_std = trend_mean + v[:, :q]
            # F' K^-1 r - f per basis function, one column per (theta, site)
            V = v[:, q:].reshape(K, n, q).transpose(1, 0, 2)
            W = _tri_solve(gls.Rq.T, (V - Fs.transpose(2, 0, 1)).reshape(n, K * q), True)
            return self._physical(mean_std, var_red,
                                  np.einsum("ij,ij->j", W, W).reshape(K, q),
                                  Rss - ZtZ, _gram(W, (K, q)))
        return moments

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
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, d, source="emulator document") -> "FittedEmulator":
        """The emulator a :meth:`to_dict` document describes. A document that
        breaks its schema, or whose derived fields are not what its training
        data, trend and kernel give, is a :class:`DataError` naming
        ``source`` and the dotted key."""
        sized = checked(d, _SIZES, DataError, source)
        doc = checked(d, _document(len(sized["training"]["y"]),
                                   len(sized["kernel"]["omega"])), DataError, source)
        scaling, hyper = doc["scaling"], doc["hyperparameters"]
        training = TrainingSet(doc["training"]["x"], doc["training"]["y"],
                               scaling["scale_inputs"], scaling["standardize_outputs"])
        em = cls(training, TrendSpec(**doc["trend"]), KernelSpec(**doc["kernel"]),
                 nugget=hyper["nugget"], sigma2_override=hyper["sigma2"])
        got = _fields(doc)
        for key, want in _fields(em.to_dict()).items():
            if got[key] != want and not (key == "hyperparameters.beta"
                                         and em._beta_agrees(got[key])):
                raise DataError(f"{source}: {key} {reprlib.repr(got[key])} is not "
                                f"{reprlib.repr(want)}, what its training data, trend "
                                "and kernel give")
        return em

    def _beta_agrees(self, beta) -> bool:
        """Whether ``beta`` is this emulator's trend coefficients to within
        BETA_TOL of their GLS standard errors, or BETA_TOL relative."""
        if len(beta) != self.hyper.beta.size:
            return False
        Rq_inv = _tri_solve(self._gls.Rq, np.eye(len(beta)), False)
        se = np.sqrt(self.hyper.sigma2 * np.sum(Rq_inv ** 2, axis=1))
        return np.allclose(beta, self.hyper.beta, rtol=BETA_TOL, atol=BETA_TOL * se)

    @classmethod
    def load(cls, path) -> "FittedEmulator":
        return cls.from_dict(read_json(path), path)


#: a loaded beta is re-solved, and a BLAS at another thread count moves it
#: by up to 1.4e-5 of its standard error (0.2 relative) where R is near
#: singular: the tolerance of the comparison, in standard errors
BETA_TOL = 1e-3


def _fields(doc) -> dict:
    """``{dotted key: value}`` of a document's fields, two levels deep."""
    return {f"{k}.{s}" if s else k: v for k, section in doc.items()
            for s, v in (section.items() if isinstance(section, dict) else [("", section)])}


_POSITIVE = _number(lambda v: 0 < v <= sys.float_info.max, "a finite number > 0")
#: the lists whose lengths size the rest of the document
_SIZES = _open({"training": _open({"y": _list(_FLOAT)}),
                "kernel": _open({"omega": _list(_POSITIVE)})})


def _document(m: int, d: int) -> dict:
    """The schema of an emulator document of m training sites in d dimensions."""
    floats = _list(_FLOAT)
    return {
        "version": _check(lambda v: type(v) is int and v == EMULATOR_FORMAT_VERSION,
                          f"{EMULATOR_FORMAT_VERSION}, the supported format version"),
        "trend": _variant("kind", dict.fromkeys(("known_constant", "constant", "linear"),
                                                {"mu": _FLOAT})),
        "kernel": {"kind": _choice(KERNEL_KINDS), "omega": _list(_POSITIVE, d),
                   "p": _list(_number(lambda v: 0 <= v <= 2, "in [0, 2]"), d)},
        "hyperparameters": {"beta": floats, "sigma2": _NONNEGATIVE, "omega": floats,
                            "p": floats, "nugget": _list(_NONNEGATIVE, m)},
        "scaling": {"scale_inputs": _BOOL, "standardize_outputs": _BOOL, "x_min": floats,
                    "x_span": floats, "y_mean": _FLOAT, "y_scale": _FLOAT},
        "training": {"x": _list(_list(_FLOAT, d), m), "y": _list(_FLOAT, m)},
        "degenerate": _BOOL,
    }


#: the box every hyperparameter fit searches the length-scales omega in
OMEGA_BOUNDS = (1e-3, 1e3)


def _multistart(loss, d: int, kernel: str, n_restarts: int, seed: int, what: str,
                jac: bool = False):
    """Minimize ``loss(spec)`` over log(omega) by L-BFGS-B from
    ``n_restarts`` LHS-distributed starts in the :data:`OMEGA_BOUNDS` box; a
    power-exponential kind keeps p = 2.

    Without ``jac``, ``loss`` returns the value and L-BFGS-B takes finite
    differences of it. With ``jac``, ``loss`` returns ``(value, gradient,
    *extra)``, the gradient over log(omega), and L-BFGS-B uses the first
    two. A candidate whose loss raises a numerical error or is not finite
    scores ``_BIG``, with a zero gradient and no extra under ``jac``:
    ``(_BIG, 0)``. Returns every restart's ``(value, spec, out)`` in start
    order, ``out`` being the loss's scored evaluation at the restart's end
    point; raises :class:`FitError` if no value is finite.

    Each distinct omega is evaluated once per call: L-BFGS-B asks again for
    the points of an iterate it restores after a failed line search, and a
    memo keyed by the bytes of omega answers them (with a copy of the
    gradient under ``jac``) and gives each restart's ``out``. ``loss`` is a
    pure function of omega at a fixed BLAS thread count, so every bit and
    the L-BFGS-B path are unchanged.
    """
    if n_restarts < 1:
        raise ConfigError(f"{what} fit needs n_restarts >= 1, got {n_restarts}")
    lb = np.full(d, math.log(OMEGA_BOUNDS[0]))
    ub = np.full(d, math.log(OMEGA_BOUNDS[1]))

    def unpack(t):
        return KernelSpec(kernel, np.exp(t))

    def evaluate(spec):
        try:
            out = loss(spec)
            value, grad = out[:2] if jac else (out, None)
            if np.isfinite(value) and (grad is None or np.isfinite(grad).all()):
                return out
        except (IllConditionedError, DataError, np.linalg.LinAlgError):
            pass
        return (_BIG, np.zeros(d)) if jac else _BIG

    memo = {}  # this fit's objective, by the bytes of omega

    def objective(t):
        spec = unpack(t)
        key = spec.omega.tobytes()
        if key not in memo:
            memo[key] = evaluate(spec)
        out = memo[key]
        return (out[0], out[1].copy()) if jac else out

    rng = np.random.default_rng(seed)
    u = _lhs_points(n_restarts, d, rng, midpoint=False)
    starts = lb + u * (ub - lb)
    results = []
    for t0 in starts:
        res = minimize(objective, t0, method="L-BFGS-B", jac=jac,
                       bounds=list(zip(lb, ub)))
        spec = unpack(res.x)     # an iterate L-BFGS-B evaluated
        results.append((float(res.fun), spec, memo[spec.omega.tobytes()]))
    if min(v for v, _, _ in results) >= _BIG:
        raise FitError(f"all {n_restarts} {what} restarts failed to produce a "
                       "finite objective; check the data and kernel choice")
    return results


def fit_mle(training: TrainingSet, trend: TrendSpec, kernel: str = "gaussian",
            n_restarts: int = 5, seed: int = 0, nugget=DEFAULT_NUGGET) -> FittedEmulator:
    """Maximum-likelihood fit: multistart bounded minimization of the
    concentrated negative log-likelihood over log(omega).

    Restart starting points are drawn by Latin hypercube over the
    :data:`OMEGA_BOUNDS` box; ties between equally good optima go to the
    first-found candidate. Same data and seed reproduce the fit bit-for-bit.
    L-BFGS-B takes finite differences of the objective, and each distinct
    omega it requests is evaluated once in the fit (:func:`_multistart`).
    """
    _nugget_vector(nugget, training.m)  # a bad nugget fails here, not per restart
    if training.degenerate:
        return FittedEmulator(training, trend,
                              KernelSpec(kernel, np.ones(training.dim)))
    # the training distances, shared by every restart of this fit only
    sites = SiteDistances(training.X)
    results = _multistart(
        lambda spec: _concentrated_nll(training, trend, spec, nugget, sites),
        training.dim, kernel, n_restarts, seed, "MLE")
    del sites  # freed before the final conditioning, to keep peak memory down
    best = min(results, key=lambda r: r[0])[1]
    return FittedEmulator(training, trend, best, nugget=nugget)


def make_folds(m: int, k: int, seed: int) -> np.ndarray:
    """Deterministic fold assignment: seeded shuffle then round-robin.
    Returns an array of fold labels in [0, k)."""
    if not 2 <= k <= m:
        raise DataError(f"fold count must satisfy 2 <= K <= m, got K={k}, m={m}")
    order = np.random.default_rng(seed).permutation(m)
    labels = np.empty(m, dtype=int)
    labels[order] = np.arange(m) % k
    return labels


def _fold_layout(fold_labels: np.ndarray):
    """``(fold, blocks)`` for :func:`_cv_heldout`: each point's fold in [0, K),
    and the (folds, s) point indices of each fold size s, solved as one stack."""
    _, fold, size = np.unique(fold_labels, return_inverse=True, return_counts=True)
    return fold, [np.array([np.flatnonzero(fold == f) for f in np.flatnonzero(size == s)])
                  for s in np.unique(size)]


def _cv_heldout(training: TrainingSet, trend: TrendSpec, spec: KernelSpec,
                nugget, folds, sites: SiteDistances):
    """Held-out predictions for each fold with fixed (omega, p), the trend
    coefficients re-estimated by GLS on each fold's retained points, from one
    factorization of K = R + diag(nugget) of all m sites.

    With the projected precision Q = K^-1 - K^-1 F (F' K^-1 F)^-1 F' K^-1
    (Q = K^-1, and y - mu for y, under a known constant), fold I's held-out
    residuals are e_I = (Q_II)^-1 (Q y)_I, and their variances per unit
    process variance, the held-out nuggets included, are diag((Q_II)^-1);
    :func:`fit_cv` gives the references. ``folds`` (:func:`_fold_layout`)
    and ``sites``, a :class:`SiteDistances` of ``training.X``, are reused.

    Returns standardized held-out means ``mu_cv`` = y - e, ``v_cv``, and the
    gradient of the CV loss sum(e^2) over log(omega): <dK/d log omega_k,
    G + G'> with u_I = (Q_II)^-1 e_I and
    G = sum_I (Q_:I u_I)(Q_:I e_I)' - (Q u)(Q y)'.
    """
    m = training.m
    R = correlation_matrix(sites, spec, nugget, auto_escalate=False)
    gls = _GLS(training, trend, R)
    Q = R.inverse()
    H = _tri_solve(gls.Rq.T, gls.F.T @ Q, True)   # (K^-1 F Rq^-1)'
    Q -= H.T @ H
    Qy = gls.alpha                                # K^-1 (y - F beta)
    fold, blocks = folds
    e, v, u = np.empty(m), np.empty(m), np.empty(m)
    for idx in blocks:
        C = np.linalg.inv(Q[idx[:, :, None], idx[:, None, :]])
        e[idx] = (C @ Qy[idx][:, :, None])[:, :, 0]
        v[idx] = np.diagonal(C, axis1=1, axis2=2)
        u[idx] = (C @ e[idx][:, :, None])[:, :, 0]
    mu_cv, v_cv = training.y - e, np.maximum(v, np.finfo(float).tiny)
    rows, k = (np.arange(m), fold), fold.max() + 1
    Pu, Pe = np.zeros((m, k)), np.zeros((m, k))
    Pu[rows], Pe[rows] = u, e
    G = (Q @ Pu) @ (Q @ Pe).T - np.outer(Q @ u, Qy)
    return mu_cv, v_cv, sites.log_derivatives(spec, R.values * (G + G.T))


def fit_cv(training: TrainingSet, trend: TrendSpec, kernel: str = "gaussian",
           k_folds: int = 10, n_restarts: int = 5, seed: int = 0,
           nugget=DEFAULT_NUGGET) -> FittedEmulator:
    """Cross-validation fit: length-scales minimize the sum of squared
    held-out prediction errors over K folds (K = m gives LOOCV); the process
    variance is then the mean of squared predictive-sd-standardized held-out
    residuals.

    Folds re-estimate trend coefficients on their retained points. Each
    candidate factors K = R + diag(nugget) once, and every fold's residuals
    e_I = (Q_II)^-1 (Q y)_I and variances diag((Q_II)^-1) come from the
    projected precision Q = K^-1 - K^-1 F (F' K^-1 F)^-1 F' K^-1 (Dubrule
    1983, Math. Geology, for LOO; Ginsbourger & Schaerer 2021, "Fast
    calculation of Gaussian process multiple-fold cross-validation residuals
    and their covariances", for K folds under universal kriging). L-BFGS-B
    gets the loss's gradient in closed form (:func:`_cv_heldout`). A
    candidate whose K does not factor fails, as in :func:`fit_mle`. Fold
    assignment is a seeded shuffle followed by round-robin. Ties in the CV
    objective (e.g. data lying exactly on the trend) are broken by the
    smallest length-scale vector norm. The process variance reads the
    held-out predictions that the winner's loss evaluation carries.
    """
    _nugget_vector(nugget, training.m)  # a bad nugget fails here, not per restart
    if training.degenerate:
        return FittedEmulator(training, trend,
                              KernelSpec(kernel, np.ones(training.dim)))
    folds = _fold_layout(make_folds(training.m, k_folds, seed))
    # the training distances, shared by every restart of this fit only
    sites = SiteDistances(training.X)

    def loss(spec):
        mu_cv, v_cv, grad = _cv_heldout(training, trend, spec, nugget, folds, sites)
        return float(np.sum((training.y - mu_cv) ** 2)), grad, mu_cv, v_cv

    results = _multistart(loss, training.dim, kernel, n_restarts, seed, "CV",
                          jac=True)
    del sites  # freed before the final conditioning, to keep peak memory down
    best_val = min(v for v, _, _ in results)
    tol = 1e-12 * max(1.0, abs(best_val))
    tied = [(spec, out) for v, spec, out in results if v <= best_val + tol]
    spec, out = min(tied, key=lambda t: float(np.linalg.norm(t[0].omega)))
    _, _, mu_cv, v_cv = out  # a finite loss, so its evaluation carries them
    resid = training.y - mu_cv
    sigma2_cv = float(np.mean(resid ** 2 / v_cv))
    return FittedEmulator(training, trend, spec, nugget=nugget,
                          sigma2_override=sigma2_cv)
