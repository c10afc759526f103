"""Spatial correlation kernels and correlation-matrix assembly.

Multi-dimensional correlations are tensor products of one-dimensional kernel
forms, each dimension with its own length-scale omega_k (and roughness p_k for
the power-exponential family). Distances are always computed on inputs scaled
to [0, 1]; length-scales are expressed in those scaled units.

Parameterization note: every kernel kind follows its own canonical
one-dimensional expression literally. In particular the Gaussian kind divides
the squared distance by 2*omega^2 while the power-exponential kind raises
(h/omega) to the p-th power; the sum-form weighted distance (|h|^p / omega)
computed by :func:`weighted_distance` therefore matches the exponent of the
power-exponential product only up to the documented reparameterization
omega' = omega**p. Conversions are never applied silently.

Assembly is in place and bit-identical. One routine (:func:`_product_corr`
over :func:`_corr_1d`) builds every correlation matrix: it runs each kind's
expression as the same numpy operations, in the same order, as the literal
out-of-place expression, but writes into reusable buffers, so assembling a
training matrix allocates one m x m array instead of dozens. A
:class:`SiteDistances` keeps the distance matrices of the training sites and
the scratch buffers for the life of one hyperparameter fit. Bit-identity is a
contract, not a nicety: the multistart L-BFGS-B in the emulator fits follows
the objective's last bits, so any change in rounding moves the fitted
optimum.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import ConfigError, DataError, IllConditionedError, NumericalWarning
from .spaces import DesignMatrix

KERNEL_KINDS = ("linear", "exponential", "power_exponential", "gaussian",
                "matern_3_2", "matern_5_2")

#: default nugget on scaled data, and the escalation ceiling (x10 steps)
DEFAULT_NUGGET = 1e-10
MAX_NUGGET = 1e-4


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Correlation kernel kind with per-dimension length-scales and, for the
    power-exponential family, roughness exponents p in [0, 2]."""

    kind: str
    omega: np.ndarray
    p: np.ndarray

    def __init__(self, kind: str, omega, p=None):
        if kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {kind!r}; options: {KERNEL_KINDS}")
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        if omega.ndim != 1 or not np.all(omega > 0):
            raise ConfigError("length-scales omega must be positive")
        d = omega.size
        if kind == "power_exponential":
            p = np.full(d, 2.0) if p is None else np.atleast_1d(np.asarray(p, float))
            if p.size != d:
                raise ConfigError(f"p has {p.size} entries, omega has {d}")
            if np.any(p < 0) or np.any(p > 2):
                raise ConfigError("roughness p must lie in [0, 2]")
        else:
            # fixed by the kind; an explicit p argument is ignored for these
            p = np.full(d, 2.0 if kind == "gaussian" else 1.0)
        omega.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.omega.size

    def with_params(self, omega, p=None) -> "KernelSpec":
        return KernelSpec(self.kind, omega,
                          p if p is not None else
                          (self.p if self.kind == "power_exponential" else None))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "omega": self.omega.tolist(), "p": self.p.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d) -> "KernelSpec":
        return cls(d["kind"], d["omega"], d.get("p"))

    @classmethod
    def from_json(cls, s: str) -> "KernelSpec":
        return cls.from_dict(json.loads(s))


def weighted_distance(x_i, x_j, spec: KernelSpec) -> float:
    """Sum-form weighted distance: sum_k |x_i,k - x_j,k|^p_k / omega_k.

    Uses the kernel's effective exponents (2 for gaussian, 1 for linear,
    exponential and Matern kinds, the spec's p for power-exponential).
    """
    x_i = np.atleast_1d(np.asarray(x_i, float))
    x_j = np.atleast_1d(np.asarray(x_j, float))
    if x_i.shape != x_j.shape or x_i.size != spec.dim:
        raise DataError(
            f"dimension mismatch: points {x_i.size}/{x_j.size}, kernel {spec.dim}")
    return float(np.sum(np.abs(x_i - x_j) ** spec.p / spec.omega))


def _corr_1d(kind: str, h: np.ndarray, omega: float, p: float,
             out: np.ndarray, work: list) -> np.ndarray:
    """One-dimensional correlation R(h) for |h| >= 0, computed in ``out``
    with ``work`` as scratch: ``_N_WORK[kind]`` arrays of h's shape.

    Each kind runs its canonical expression, noted beside it, as the same
    sequence of numpy operations the out-of-place expression performs, only
    written into buffers: the result is bit-identical to evaluating the
    expression.
    """
    if kind == "gaussian":                        # exp(-(h*h) / (2 omega^2))
        np.multiply(h, h, out=out)
        np.negative(out, out=out)
        out /= 2.0 * omega * omega
        return np.exp(out, out=out)
    np.divide(h, omega, out=out)                  # t = h / omega
    if kind == "linear":                          # max(0, 1 - t)
        np.subtract(1.0, out, out=out)
        return np.maximum(0.0, out, out=out)
    if kind == "exponential":                     # exp(-t)
        np.negative(out, out=out)
        return np.exp(out, out=out)
    if kind == "power_exponential":               # exp(-t**p)
        out **= p
        np.negative(out, out=out)
        return np.exp(out, out=out)
    if kind == "matern_3_2":                      # (1 + s) exp(-s), s = sqrt(3) t
        e = work[0]
        out *= math.sqrt(3.0)
        np.exp(np.negative(out, out=e), out=e)
        out += 1.0
        out *= e
        return out
    if kind == "matern_5_2":
        # (1 + s + 5 (h*h) / (3 omega^2)) exp(-s), s = sqrt(5) t
        e, q = work[0], work[1]
        out *= math.sqrt(5.0)
        np.exp(np.negative(out, out=e), out=e)
        out += 1.0
        np.multiply(h, h, out=q)
        q *= 5.0
        q /= 3.0 * omega * omega
        out += q
        out *= e
        return out
    raise ConfigError(f"unknown kernel kind {kind!r}")


#: scratch arrays _corr_1d needs per kind, besides its output
_N_WORK = {"matern_3_2": 1, "matern_5_2": 2}


def _abs_differences(A: np.ndarray, B: np.ndarray) -> list:
    """|a_k - b_k| for every pair of rows, one (|A|, |B|) matrix per dimension."""
    return [np.abs(A[:, k:k + 1] - B[None, :, k]) for k in range(A.shape[1])]


def _product_corr(out: np.ndarray, absdiff, spec: KernelSpec,
                  scratch: list) -> np.ndarray:
    """Write the tensor-product correlation prod_k R_k(absdiff[k]) into ``out``.

    The one assembly shared by :func:`cross_corr_matrix` and
    :func:`correlation_matrix`. It multiplies the factors in dimension order,
    as ``ones *= R_1; ones *= R_2; ...`` would, but writes the first factor
    straight into ``out`` (1.0 * x == x exactly) and builds each later one in
    ``scratch[-1]``. ``scratch`` is a list of :func:`_n_scratch` arrays of
    out's shape, the kind's work arrays first.
    """
    if not absdiff:
        out.fill(1.0)
    work = scratch[:_N_WORK.get(spec.kind, 0)]
    for k, h in enumerate(absdiff):
        factor = out if k == 0 else scratch[-1]
        _corr_1d(spec.kind, h, spec.omega[k], spec.p[k], factor, work)
        if k:
            out *= factor
    return out


def _n_scratch(spec: KernelSpec) -> int:
    return (spec.dim > 1) + _N_WORK.get(spec.kind, 0)


def kernel_eval(spec: KernelSpec, x_i, x_j) -> float:
    """Correlation of two points: product over dimensions of the 1-D kernel."""
    x_i = np.atleast_1d(np.asarray(x_i, float))
    x_j = np.atleast_1d(np.asarray(x_j, float))
    if x_i.size != spec.dim or x_j.size != spec.dim:
        raise DataError(
            f"dimension mismatch: points {x_i.size}/{x_j.size}, kernel {spec.dim}")
    return float(cross_corr_matrix(x_i.reshape(1, -1), x_j.reshape(1, -1), spec)[0, 0])


def _points(X) -> np.ndarray:
    if isinstance(X, (DesignMatrix, SiteDistances)):
        return X.points
    return np.atleast_2d(np.asarray(X, float))


def cross_corr_matrix(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """|A| x |B| correlation matrix between two point sets (scaled coords)."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise DataError(
            f"dimension mismatch: points {A.shape[1]}/{B.shape[1]}, kernel {spec.dim}")
    shape = (A.shape[0], B.shape[0])
    return _product_corr(np.empty(shape), _abs_differences(A, B), spec,
                         [np.empty(shape) for _ in range(_n_scratch(spec))])


class SiteDistances:
    """The per-dimension |x_i,k - x_j,k| matrices of one set of sites, with
    reusable scratch space for assembling their correlation matrix.

    Passing an instance to :func:`correlation_matrix` in place of the sites
    skips recomputing the distances, which do not depend on the kernel's
    parameters, and the scratch allocations; the result is bit-identical.
    A hyperparameter fit makes one for its training inputs and drops it when
    it returns. It holds (d + 3) m x m arrays at most, and its scratch makes
    it unsafe to share between threads.
    """

    def __init__(self, X):
        self.points = _points(X)
        self.absdiff = _abs_differences(self.points, self.points)
        self._scratch = []

    def correlation(self, spec: KernelSpec) -> np.ndarray:
        """The sites' correlation matrix, without nugget, in a fresh array."""
        m = self.points.shape[0]
        n = _n_scratch(spec)
        while len(self._scratch) < n:
            self._scratch.append(np.empty((m, m)))
        return _product_corr(np.empty((m, m)), self.absdiff, spec, self._scratch[:n])


def cross_correlation(X, x_star, spec: KernelSpec) -> np.ndarray:
    """Correlation vector r(x*) between one point and the m design sites."""
    pts = _points(X)
    if pts.shape[0] == 0:
        return np.empty(0)
    return cross_corr_matrix(pts, np.atleast_2d(np.asarray(x_star, float)), spec)[:, 0]


class CorrelationMatrix:
    """Nugget-augmented correlation matrix with a cached Cholesky factor.

    Immutable after construction; the factor is computed once in the
    constructor so instances can be shared across threads.
    """

    def __init__(self, values: np.ndarray, nugget):
        self.values = values
        self.nugget = nugget
        c, low = cho_factor(values, lower=True)
        self._cho = (c, low)
        # The C-ordered copy looks redundant (solve_triangular ignores the
        # upper triangle) but selects the transposed LAPACK triangular-solve
        # path; solving with c itself changes half_solve's last bits, and
        # with them the optimum that MLE fits reach.
        self._L = np.tril(c)
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(c))))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """R^{-1} b via the cached factorization."""
        return cho_solve(self._cho, b)

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b where R = L L^T."""
        return solve_triangular(self._L, b, lower=True)

    def inverse(self) -> np.ndarray:
        return cho_solve(self._cho, np.eye(self.m))


def correlation_matrix(X, spec: KernelSpec, nugget=DEFAULT_NUGGET,
                       auto_escalate: bool = True) -> CorrelationMatrix:
    """Assemble and factorize the m x m training correlation matrix.

    ``X`` holds the design sites, or is a :class:`SiteDistances` of them to
    reuse its distances and scratch. ``nugget`` may be a scalar or a
    per-point vector (heteroscedastic noise).
    If the Cholesky factorization fails, the nugget is escalated by factors of
    10 from max(nugget, 1e-10) up to 1e-4 before giving up; duplicate design
    sites with a zero nugget are rejected outright because the matrix is then
    singular in exact arithmetic regardless of floating-point luck.

    The matrix is assembled in one freshly allocated array (it becomes
    ``values``) and equals, bit for bit, ``cross_corr_matrix(X, X, spec)``
    with its diagonal set to 1 + nugget. |x_i - x_j| and |x_j - x_i| are the
    same double, so the product kernel is exactly symmetric and needs no
    symmetrizing copy.
    """
    pts = _points(X)
    m = pts.shape[0]
    if m < 1:
        raise DataError("correlation_matrix requires at least one design site")
    if pts.shape[1] != spec.dim:
        raise DataError(f"dimension mismatch: points {pts.shape[1]}, kernel {spec.dim}")
    nug = np.asarray(nugget, dtype=float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    elif nug.size != m:
        raise DataError(f"nugget vector has {nug.size} entries for {m} sites")
    if np.any(nug < 0):
        raise DataError("nugget must be nonnegative")

    R = (X if isinstance(X, SiteDistances) else SiteDistances(pts)).correlation(spec)
    diag = R.reshape(-1)[::m + 1]                # a view of R's diagonal
    diag[:] = 0.0                                # R.max(): off-diagonal only
    if m > 1 and R.max() >= 1.0:
        if np.all(nug == 0):
            raise IllConditionedError(
                "duplicate design sites make the correlation matrix singular; "
                "deduplicate the design or use a positive nugget")
    if spec.kind == "linear" and spec.dim > 1 and np.all(nug == 0):
        warnings.warn(
            "tensor-product linear kernel in d > 1 can be numerically "
            "indefinite; a positive nugget is recommended", NumericalWarning)

    extra = 0.0
    while True:
        diag[:] = 1.0 + (nug + extra)
        try:
            return CorrelationMatrix(R, nug + extra)
        except np.linalg.LinAlgError:
            pass
        if not auto_escalate:
            raise IllConditionedError(
                f"correlation matrix factorization failed at nugget {nug.max() + extra:g}")
        nxt = DEFAULT_NUGGET if extra == 0.0 else extra * 10.0
        if nxt > MAX_NUGGET:
            raise IllConditionedError(
                "correlation matrix is not positive definite even at nugget "
                f"{MAX_NUGGET:g}; the design likely contains (near-)duplicate points")
        extra = nxt
        warnings.warn(f"nugget escalated to {extra:g} to factorize the "
                      "correlation matrix", NumericalWarning)
