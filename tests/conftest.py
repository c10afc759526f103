"""Shared test oracles.

The dense predictor oracle reimplements the BLUP mean and both MSE forms
(partitioned-matrix and expanded) with explicit matrix inverses and its own
kernel formulas, independent of the library's solve-based code paths.
``kernel_eval``, ``weighted_distance`` and ``cross_correlation`` are the
point-wise forms of the library's kernel assembly that the kernel tests
probe it with. ``cross_rows`` lays sites out as a ``cross`` design does.
"""

import math

import numpy as np
import pytest

from gpcal.errors import DataError
from gpcal.kernels import SiteDistances, cross_corr_matrix


def weighted_distance(x_i, x_j, spec):
    """Sum-form weighted distance: sum_k |x_i,k - x_j,k|^p_k / omega_k.

    Uses the kernel's effective exponents (2 for gaussian, 1 for linear,
    exponential and Matern kinds, the spec's p for power-exponential). It
    matches the exponent of the power-exponential product only up to the
    reparameterization omega' = omega**p.
    """
    x_i = np.atleast_1d(np.asarray(x_i, float))
    x_j = np.atleast_1d(np.asarray(x_j, float))
    if x_i.shape != x_j.shape or x_i.size != spec.dim:
        raise DataError(
            f"dimension mismatch: points {x_i.size}/{x_j.size}, kernel {spec.dim}")
    return float(np.sum(np.abs(x_i - x_j) ** spec.p / spec.omega))


def kernel_eval(spec, x_i, x_j):
    """Correlation of two points through the library's assembly."""
    x_i = np.atleast_1d(np.asarray(x_i, float))
    x_j = np.atleast_1d(np.asarray(x_j, float))
    if x_i.size != spec.dim or x_j.size != spec.dim:
        raise DataError(
            f"dimension mismatch: points {x_i.size}/{x_j.size}, kernel {spec.dim}")
    return float(cross_corr_matrix(x_i.reshape(1, -1), x_j.reshape(1, -1), spec)[0, 0])


def cross_correlation(X, x_star, spec):
    """Correlation vector r(x*) between one point and the design sites X."""
    pts = np.atleast_2d(np.asarray(X, float))
    if pts.shape[0] == 0:
        return np.empty(0)
    return cross_corr_matrix(pts, np.atleast_2d(np.asarray(x_star, float)), spec)[:, 0]


def oracle_corr_1d(kind, h, omega, p):
    h = abs(float(h))
    if kind == "linear":
        return max(0.0, 1.0 - h / omega)
    if kind == "exponential":
        return math.exp(-h / omega)
    if kind == "power_exponential":
        return math.exp(-((h / omega) ** p))
    if kind == "gaussian":
        return math.exp(-(h * h) / (2.0 * omega * omega))
    if kind == "matern_3_2":
        s = math.sqrt(3.0) * h / omega
        return (1.0 + s) * math.exp(-s)
    if kind == "matern_5_2":
        s = math.sqrt(5.0) * h / omega
        return (1.0 + s + 5.0 * h * h / (3.0 * omega * omega)) * math.exp(-s)
    raise ValueError(kind)


def oracle_kernel(kind, omega, p, a, b):
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    val = 1.0
    for k in range(a.size):
        val *= oracle_corr_1d(kind, a[k] - b[k], omega[k], p[k])
    return val


def oracle_corr_matrix(kind, omega, p, A, B):
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = oracle_kernel(kind, omega, p, A[i], B[j])
    return out


def dense_oracle_predict(emulator, x_star):
    """Explicit-inverse BLUP mean and MSE (both the partitioned-matrix form
    and the expanded form) at one physical-unit point."""
    tr = emulator.training
    spec = emulator.kernel
    Xs = tr.X
    y = tr.y
    m = tr.m
    nug = np.asarray(emulator.hyper.nugget, float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    R = oracle_corr_matrix(spec.kind, spec.omega, spec.p, Xs, Xs) + np.diag(nug)
    xs = ((np.asarray(x_star, float) - tr.x_min) / tr.x_span).reshape(1, -1)
    r = oracle_corr_matrix(spec.kind, spec.omega, spec.p, Xs, xs)[:, 0]
    Rinv = np.linalg.inv(R)
    sigma2 = emulator.hyper.sigma2

    if emulator.trend.kind == "known_constant":
        mu = tr.mu_std(emulator.trend.mu)
        mean_std = mu + r @ Rinv @ (y - mu)
        mse_part = sigma2 * (1.0 - r @ Rinv @ r)
        mse_exp = mse_part
    else:
        F = emulator.trend.build_matrix(Xs)
        n = F.shape[1]
        beta = np.linalg.inv(F.T @ Rinv @ F) @ F.T @ Rinv @ y
        f = emulator.trend.build_matrix(xs)[0]
        mean_std = f @ beta + r @ Rinv @ (y - F @ beta)
        # partitioned-matrix form
        big = np.block([[np.zeros((n, n)), F.T], [F, R]])
        fr = np.concatenate([f, r])
        mse_part = sigma2 * (1.0 - fr @ np.linalg.inv(big) @ fr)
        # expanded form
        u = F.T @ Rinv @ r - f
        mse_exp = sigma2 * (1.0 - r @ Rinv @ r
                            + u @ np.linalg.inv(F.T @ Rinv @ F) @ u)
    mean = mean_std * tr.y_scale + tr.y_mean
    return (mean, mse_part * tr.y_scale ** 2, mse_exp * tr.y_scale ** 2)


def instance_omega(rng, kind, d):
    """Length-scale draw keeping the correlation matrix well-conditioned for
    LHS-spread designs so explicit-inverse oracles remain meaningful."""
    if kind == "gaussian":
        lo, hi = (0.08, 0.2) if d == 1 else (0.15, 0.5)
    elif kind in ("matern_3_2", "matern_5_2"):
        lo, hi = (0.2, 0.8) if d == 1 else (0.3, 1.2)
    elif kind == "power_exponential":
        lo, hi = 0.3, 1.0
    else:
        lo, hi = 0.3, 1.5
    return rng.uniform(lo, hi, d)


def random_instance(rng, kinds=("gaussian", "exponential", "matern_3_2",
                               "matern_5_2", "power_exponential"),
                    d_max=3, m_max=10, nugget=0.0):
    """Small random emulation problem with a well-spread design."""
    from gpcal import FittedEmulator, KernelSpec, TrainingSet, TrendSpec, lhs_design
    from gpcal.spaces import ParameterSpace

    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(max(4, d + 2), m_max + 1))
    kind = kinds[rng.integers(len(kinds))]
    space = ParameterSpace([f"x{k}" for k in range(d)], np.zeros(d), np.ones(d))
    X = lhs_design(m, space, seed=int(rng.integers(1 << 30))).to_physical()
    y = np.sin(3.0 * X[:, 0]) + 0.5 * X.sum(axis=1) + rng.normal(0, 0.3, m)
    omega = instance_omega(rng, kind, d)
    p = rng.uniform(1.0, 2.0, d) if kind == "power_exponential" else None
    trend = TrendSpec(("constant", "linear")[int(rng.integers(2))])
    training = TrainingSet(X, y)
    spec = KernelSpec(kind, omega, p)
    return FittedEmulator(training, trend, spec, nugget=nugget)


def cross_rows(u_x, u_t):
    """The rows [u_x[a], u_t[b]] at a * n_t + b, as a cross design lays them
    out."""
    return np.hstack([np.repeat(u_x, len(u_t), axis=0), np.tile(u_t, (len(u_x), 1))])


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def sites_made(monkeypatch):
    """The list every SiteDistances built during the test is appended to."""
    made, real = [], SiteDistances.__init__

    def init(self, X):
        real(self, X)
        made.append(self)

    monkeypatch.setattr(SiteDistances, "__init__", init)
    return made
