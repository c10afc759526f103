"""Spatial correlation kernels and correlation-matrix assembly.

Multi-dimensional correlations are tensor products of one-dimensional kernel
forms, each dimension with its own length-scale omega_k (and roughness p_k for
the power-exponential family). Distances are always computed on inputs scaled
to [0, 1]; length-scales are expressed in those scaled units.

Parameterization note: every kernel kind follows its own canonical
one-dimensional expression literally. In particular the Gaussian kind divides
the squared distance by 2*omega^2 while the power-exponential kind raises
(h/omega) to the p-th power, so a Gaussian length-scale equals a p = 2
power-exponential one only up to a factor sqrt(2). Conversions are never
applied silently.

Assembly is bit-identical to the literal out-of-place expressions. Each
kind's expression runs as the same numpy operations, in the same order
(:func:`_corr_1d`), and the factors are multiplied in dimension order. A
one-shot matrix (:func:`cross_corr_matrix`, or :func:`correlation_matrix`
given the sites) is assembled entry by entry, in place
(:func:`_product_corr`). A hyperparameter fit, MLE or CV, instead keeps a
:class:`SiteDistances` of its training sites: it evaluates each kernel factor
once per distinct distance and gathers the values into the matrix, and it
owns the buffers the MLE objective's Cholesky factor is computed in, so an
objective call allocates one m x m array. A CV objective assembles the full
training matrix once and slices every fold's training and held-out blocks
from it: a kernel entry depends only on its two sites, so the slices equal
the fold's own assembly bit for bit. Bit-identity is a contract, not a
nicety: the multistart L-BFGS-B in the emulator fits follows the objective's
last bits, so any change in rounding moves the fitted optimum.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf

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

    The entry-by-entry assembly behind :func:`cross_corr_matrix` and a
    one-shot :func:`correlation_matrix`. It multiplies the factors in
    dimension order, as ``ones *= R_1; ones *= R_2; ...`` would, but writes
    the first factor straight into ``out`` (1.0 * x == x exactly) and builds
    each later one in ``scratch[-1]``. ``scratch`` is a list of
    :func:`_n_scratch` arrays of out's shape, the kind's work arrays first.
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


def _points(X) -> np.ndarray:
    if isinstance(X, (DesignMatrix, SiteDistances)):
        return X.points
    return np.atleast_2d(np.asarray(X, float))


def _assemble(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The |A| x |B| correlation matrix in a fresh array, entry by entry."""
    shape = (A.shape[0], B.shape[0])
    return _product_corr(np.empty(shape), _abs_differences(A, B), spec,
                         [np.empty(shape) for _ in range(_n_scratch(spec))])


def cross_corr_matrix(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """|A| x |B| correlation matrix between two point sets (scaled coords)."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise DataError(
            f"dimension mismatch: points {A.shape[1]}/{B.shape[1]}, kernel {spec.dim}")
    return _assemble(A, B, spec)


class SiteDistances:
    """The distances between one set of m sites, as distinct values, and the
    buffers a hyperparameter fit reuses to assemble and factor their
    correlation matrix.

    For each dimension k it keeps the distinct values ``u_k`` of
    |x_i,k - x_j,k| and an m x m index ``inv_k`` with |x_i,k - x_j,k| =
    u_k[inv_k[i, j]]. It also owns an F-ordered and a C-ordered m x m buffer
    that :func:`correlation_matrix` factors into when given the instance in
    place of the sites. A fit (``fit_mle`` or ``fit_cv``) makes one for its
    training inputs and drops it when it returns. Its buffers make it unsafe
    to share between threads, and a factor that borrows them is valid only
    until the next factorization from the same instance.
    """

    def __init__(self, X):
        self.points = _points(X)
        m, d = self.points.shape
        self._distinct, self._inverse = [], []
        for k in range(d):
            col = self.points[:, k]
            u, inv = np.unique(np.abs(col[:, None] - col[None, :]),
                               return_inverse=True)
            self._distinct.append(u)
            self._inverse.append(inv.reshape(m, m))
        # untouched until first used, so a CV fit never maps the factor pair
        self._gather = np.empty((m, m)) if d > 1 else None
        self._factor_buffers = (np.empty((m, m), order="F"), np.empty((m, m)))

    @property
    def absdiff(self) -> list:
        """The per-dimension |x_i,k - x_j,k| matrices, rebuilt on each access."""
        return [u[inv] for u, inv in zip(self._distinct, self._inverse)]

    def correlation(self, spec: KernelSpec) -> np.ndarray:
        """The sites' correlation matrix, without nugget, in a fresh array:
        each kernel factor is evaluated once per distinct distance, gathered,
        and multiplied in dimension order as :func:`_product_corr` does."""
        m = self.points.shape[0]
        out = np.empty((m, m))
        if not self._inverse:
            out.fill(1.0)
        n_work = _N_WORK.get(spec.kind, 0)
        for k, (u, inv) in enumerate(zip(self._distinct, self._inverse)):
            f = _corr_1d(spec.kind, u, spec.omega[k], spec.p[k], np.empty(u.size),
                         [np.empty(u.size) for _ in range(n_work)])
            # mode="clip" takes no bounds-checking copy; inv is in range
            if k == 0:
                np.take(f, inv, out=out, mode="clip")
            else:
                out *= np.take(f, inv, out=self._gather, mode="clip")
        return out


class CorrelationMatrix:
    """Nugget-augmented correlation matrix with a cached Cholesky factor.

    ``values`` must be exactly symmetric. The factor is computed once in the
    constructor. By default it lives in fresh arrays and the instance is
    immutable and shareable across threads. Given ``buffers``, an
    (F-ordered, C-ordered) pair of m x m arrays owned by a
    :class:`SiteDistances`, the factor is computed into them instead: the
    same bits without fresh m x m allocations, but the instance is valid only
    until the buffers' next use, so it must not outlive one objective
    evaluation of a fit.
    """

    def __init__(self, values: np.ndarray, nugget, *, buffers=None):
        self.values = values
        self.nugget = nugget
        m = values.shape[0]
        work, L = (buffers if buffers is not None else
                   (np.empty((m, m), order="F"), np.empty((m, m))))
        c, L = _factor_into(values, work, L)
        self._cho = (c, True)
        self._L = L
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


def _factor_into(values: np.ndarray, work: np.ndarray, L: np.ndarray):
    """``cho_factor(values, lower=True)`` and a C-ordered copy of it, computed
    in the F-ordered ``work`` and the C-ordered ``L``: the same LAPACK call on
    the same F-ordered input, so the same bits, and the same errors.

    ``values`` must be exactly symmetric: it is copied in through the
    transposed view ``work.T``, a contiguous copy. The C-ordered copy looks
    redundant (solve_triangular ignores the upper triangle) but selects the
    transposed LAPACK triangular-solve path; solving with the F-ordered
    factor itself changes half_solve's last bits, and with them the optimum
    that MLE fits reach. Only the layout matters: zeroing the upper triangle
    (np.tril) changes no bit.
    """
    if not np.isfinite(values).all():            # cho_factor's check_finite
        raise ValueError("array must not contain infs or NaNs")
    np.copyto(work.T, values)
    c, info = dpotrf(work, lower=1, overwrite_a=1, clean=0)
    if info:                                     # only > 0 for valid buffers
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    np.copyto(L, c)
    return c, L


def correlation_matrix(X, spec: KernelSpec, nugget=DEFAULT_NUGGET,
                       auto_escalate: bool = True) -> CorrelationMatrix:
    """Assemble and factorize the m x m training correlation matrix.

    ``X`` holds the design sites, or is a :class:`SiteDistances` of them to
    reuse its distances and buffers: the factor is then computed in the
    instance's buffers and is valid only until the next call with it.
    ``nugget`` may be a scalar or a per-point vector (heteroscedastic noise).
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
    nug = _nugget_vector(nugget, m)
    if isinstance(X, SiteDistances):
        return _factor(X.correlation(spec), nug, spec, auto_escalate,
                       X._factor_buffers)
    return _factor(_assemble(pts, pts, spec), nug, spec, auto_escalate)


def _nugget_vector(nugget, m: int) -> np.ndarray:
    """A scalar or per-point nugget as a checked vector of m entries."""
    nug = np.asarray(nugget, dtype=float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    elif nug.size != m:
        raise DataError(f"nugget vector has {nug.size} entries for {m} sites")
    if np.any(nug < 0):
        raise DataError("nugget must be nonnegative")
    return nug


def _factor(R: np.ndarray, nug: np.ndarray, spec: KernelSpec,
            auto_escalate: bool, buffers=None) -> CorrelationMatrix:
    """Factorize a C-ordered m x m kernel matrix ``R`` of m sites, in place.

    The factor step of :func:`correlation_matrix`, which the CV fits also
    call on blocks sliced from one assembled matrix. ``R``'s diagonal is
    overwritten with 1 + nugget, so it need not hold 1; ``nug`` is a checked
    vector (:func:`_nugget_vector`). Rejects duplicate sites under a zero
    nugget, warns on the indefinite-prone linear product kernel, and escalates
    the nugget if asked (see :func:`correlation_matrix`). ``buffers`` are
    passed on to :class:`CorrelationMatrix`; every escalation step recopies
    ``R`` into them.
    """
    m = R.shape[0]
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
            return CorrelationMatrix(R, nug + extra, buffers=buffers)
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
