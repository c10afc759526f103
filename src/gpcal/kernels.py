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

Every assembly is bit-identical to the literal expressions: each kind's
factor is its canonical expression (:func:`_corr_1d`), and the factors are
multiplied in dimension order into ones. A one-shot matrix
(:func:`cross_corr_matrix`, or :func:`correlation_matrix` given the sites)
evaluates them entry by entry (:func:`_product_corr`). A hyperparameter fit,
MLE or CV, instead keeps a :class:`SiteDistances` of its training sites: it
evaluates each kernel factor once per distinct distance. On a ``cross``
design's layout, rows that are the row-major product of n_x x rows and n_t
theta rows (:func:`_cross_factors`, the one reader of that layout here and
in the Kronecker predictor), it reads each factor as an n_x x n_x or
n_t x n_t block and broadcasts the blocks into the matrix; on any other
layout it gathers each factor's values into the m x m matrix. A CV objective
factors that full training matrix once and takes every fold from the one
factor; its gradient evaluates each factor's closed-form log-derivative
(:func:`_dlog_corr_1d`) on the same distinct distances
(:meth:`SiteDistances.log_derivatives`). Every :class:`CorrelationMatrix`
computes its factor in arrays of its own, except for the MLE objective,
which never reads its matrix again and so factors it in the array it was
assembled in. A :class:`SiteDistances` checks the finiteness of what it
assembles, on a ``cross`` layout from the distinct factor values alone.
Bit-identity is a contract, not a nicety: the MLE multistart L-BFGS-B takes
finite differences of the objective, so it follows the objective's last bits,
and any change in rounding moves the fitted optimum.

One step departs from the plain matrix, and only inside the factorization:
every correlation below ``eps**2`` (4.9e-32) is zeroed in the working copy
handed to ``dpotrf`` (:class:`CorrelationMatrix`). At small length-scales the
product kernels underflow to thousands of entries below 1e-300, and a
Cholesky over subnormal numbers runs about ten times slower. The zeroed
entries lie far below the rounding of any sum they enter, so only negligible
entries of the factor change. On every matrix and fit path the tests check,
the log-determinant, the solves and the objective values keep the bits of
the plain factorization, and so do the fitted optima and written artifacts.
The assembled ``values`` stay the plain kernel matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import ConfigError, DataError, IllConditionedError, NumericalWarning

KERNEL_KINDS = ("linear", "exponential", "power_exponential", "gaussian",
                "matern_3_2", "matern_5_2")

#: default nugget on scaled data, and the escalation ceiling (x10 steps)
DEFAULT_NUGGET = 1e-10
MAX_NUGGET = 1e-4
#: correlations below this (eps**2, 4.9e-32) are zeroed before factoring
_NEGLIGIBLE = np.finfo(float).eps ** 2
#: the error a non-finite correlation raises, as ``cho_factor``'s scan words it
_NOT_FINITE = "array must not contain infs or NaNs"
#: edge of the square tiles in which a factor is copied to C order
_TILE = 128


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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "omega": self.omega.tolist(), "p": self.p.tolist()}


def _corr_1d(kind: str, h: np.ndarray, omega: float, p: float) -> np.ndarray:
    """One-dimensional correlation R(h) for |h| >= 0, as a fresh array: each
    kind's canonical expression, written out literally."""
    if kind == "gaussian":
        return np.exp(-(h * h) / (2.0 * omega * omega))
    t = h / omega
    if kind == "linear":
        return np.maximum(0.0, 1.0 - t)
    if kind == "exponential":
        return np.exp(-t)
    if kind == "power_exponential":
        return np.exp(-t ** p)
    if kind == "matern_3_2":
        s = math.sqrt(3.0) * t
        return (1.0 + s) * np.exp(-s)
    if kind == "matern_5_2":
        s = math.sqrt(5.0) * t
        return (1.0 + s + 5.0 * (h * h) / (3.0 * omega * omega)) * np.exp(-s)
    raise ConfigError(f"unknown kernel kind {kind!r}")


def _dlog_corr_1d(kind: str, h: np.ndarray, omega: float, p: float) -> np.ndarray:
    """d log R(h) / d log omega for :func:`_corr_1d`'s R, in closed form. It
    is 0 at h = 0, and 0 for the linear kind from h = omega on, where R is 0."""
    t = h / omega
    if kind == "gaussian":
        return t * t
    if kind == "linear":
        s = np.where(t < 1.0, t, 0.0)
        return s / (1.0 - s)
    if kind in ("exponential", "power_exponential"):      # p = 1 for the first
        return p * t ** p
    if kind == "matern_3_2":
        s = math.sqrt(3.0) * t
        return s * s / (1.0 + s)
    if kind == "matern_5_2":
        s = math.sqrt(5.0) * t
        return s * s * (1.0 + s) / (3.0 + 3.0 * s + s * s)
    raise ConfigError(f"unknown kernel kind {kind!r}")


def _product_corr(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The |A| x |B| tensor-product correlation prod_k R_k(|a_k - b_k|), entry
    by entry: ones, times each dimension's factor in dimension order (the
    first product is the first factor itself, since 1.0 * x == x exactly).

    Column k of A and B uses ``spec``'s k-th length-scale and roughness, so
    ``spec`` may have more dimensions than the points; no check is made.
    """
    out = np.ones((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        out *= _corr_1d(spec.kind, np.abs(A[:, k:k + 1] - B[None, :, k]),
                        spec.omega[k], spec.p[k])
    return out


def cross_corr_matrix(A: np.ndarray, B: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """|A| x |B| correlation matrix between two point sets (scaled coords)."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    if A.shape[1] != spec.dim or B.shape[1] != spec.dim:
        raise DataError(
            f"dimension mismatch: points {A.shape[1]}/{B.shape[1]}, kernel {spec.dim}")
    return _product_corr(A, B, spec)


def _cross_factors(X: np.ndarray, dx: int):
    """``(u_x, u_t)`` when the rows of ``X`` are the row-major product of n_x
    distinct rows u_x of its first ``dx`` columns and n_t distinct rows u_t
    of the others, X[a * n_t + b] = [u_x[a], u_t[b]]; None otherwise. This
    is the ``cross`` design's layout; it is read from the rows alone."""
    m, d = X.shape
    if not 0 < dx < d:
        return None
    n_t = int(np.argmin(np.all(X[:, :dx] == X[0, :dx], axis=1))) or m
    if m % n_t:
        return None
    blocks = X.reshape(m // n_t, n_t, d)
    u_x, u_t = blocks[:, 0, :dx], blocks[0, :, dx:]
    if not ((blocks[:, :, :dx] == u_x[:, None]).all()
            and (blocks[:, :, dx:] == u_t[None]).all()
            and len(np.unique(u_x, axis=0)) == len(u_x)
            and len(np.unique(u_t, axis=0)) == n_t):
        return None
    return u_x.copy(), u_t.copy()


class SiteDistances:
    """The distances between one set of m sites, as distinct values.

    For each dimension k it keeps the distinct values ``u_k`` of
    |x_i,k - x_j,k| and an m x m index ``inv_k`` with |x_i,k - x_j,k| =
    u_k[inv_k[i, j]], so :meth:`correlation` evaluates each kernel factor,
    and :meth:`log_derivatives` each factor's derivative, on ``u_k`` alone.
    It also records, once, whether the sites are the row-major product of
    the distinct rows of their first dx columns and of the others
    (:func:`_cross_factors`, the first such dx), as a ``cross`` design lays
    them out. A fit (``fit_mle`` or ``fit_cv``) makes one for its
    training inputs and drops it when it returns. Nothing in it changes after
    construction, so it is safe to share between threads.
    """

    def __init__(self, X):
        self.points = np.atleast_2d(np.asarray(X, float))
        m, d = self.points.shape
        self._layout = None                      # (dx, n_t) of a product layout
        for dx in range(1, d):
            factors = _cross_factors(self.points, dx)
            if factors is not None:
                self._layout = dx, len(factors[1])
                break
        self._distinct, self._inverse = [], []
        for k in range(d):
            col = self.points[:, k]
            u, inv = np.unique(np.abs(col[:, None] - col[None, :]),
                               return_inverse=True)
            self._distinct.append(u)
            self._inverse.append(inv.reshape(m, m))

    def correlation(self, spec: KernelSpec) -> np.ndarray:
        """The sites' correlation matrix, without nugget, in a fresh array,
        bit for bit :func:`_product_corr`'s. Each kernel factor is evaluated
        once per distinct distance and multiplied in dimension order. On a
        product layout the x factors depend only on the rows' x block and the
        theta factors only on their theta block, so each factor is read at
        the n_x x n_x or n_t x n_t block of its index and broadcast into one
        (n_x, n_t, n_x, n_t) array; otherwise each is gathered m x m.

        The result is checked finite, so :func:`correlation_matrix` does not
        scan it again; a non-finite one raises the ``ValueError`` that
        :class:`CorrelationMatrix` raises. On a product layout the distinct
        factor values are checked instead of the matrix: every factor lies
        in [0, 1] up to rounding, so a product of finite ones is finite.
        Otherwise the distinct values can outnumber the entries (about
        m^2 / 2 per dimension on a joint design), so the matrix is scanned."""
        m = self.points.shape[0]
        f = [_corr_1d(spec.kind, u, spec.omega[k], spec.p[k])
             for k, u in enumerate(self._distinct)]
        if self._layout is None:
            if not f:
                return np.ones((m, m))
            # mode="clip" takes no bounds-checking copy; inv is in range
            out = np.take(f[0], self._inverse[0], mode="clip")
            for v, inv in zip(f[1:], self._inverse[1:]):
                out *= np.take(v, inv, mode="clip")
            if not np.isfinite(out).all():
                raise ValueError(_NOT_FINITE)
            return out
        if not all(np.isfinite(v).all() for v in f):
            raise ValueError(_NOT_FINITE)
        dx, n_t = self._layout
        # the x block of index k is rows and columns a * n_t, the theta
        # block rows and columns 0..n_t-1; 1.0 * x == x, so starting the x
        # product from its first factor keeps the order's bits
        R_x = np.take(f[0], self._inverse[0][::n_t, ::n_t])
        for v, inv in zip(f[1:dx], self._inverse[1:dx]):
            R_x = R_x * np.take(v, inv[::n_t, ::n_t])
        t = [np.take(v, inv[:n_t, :n_t]) for v, inv in zip(f[dx:], self._inverse[dx:])]
        out = R_x[:, None, :, None] * t[0][None, :, None, :]   # (n_x, n_t, n_x, n_t)
        for R_t in t[1:]:
            out *= R_t[:, None, :]
        return out.reshape(m, m)

    def log_derivatives(self, spec: KernelSpec, A: np.ndarray) -> np.ndarray:
        """``g`` with g_k = sum_ij A_ij d log R_ij / d log omega_k for each
        dimension k, where R is the sites' correlation: given A = R o S, g_k
        is <dR/d log omega_k, S>. Each factor's derivative is evaluated once
        per distinct distance, against A summed over the entries at that
        distance."""
        a = A.reshape(-1)
        return np.array([
            np.bincount(inv.reshape(-1), weights=a, minlength=u.size)
            @ _dlog_corr_1d(spec.kind, u, spec.omega[k], spec.p[k])
            for k, (u, inv) in enumerate(zip(self._distinct, self._inverse))])


class CorrelationMatrix:
    """Nugget-augmented correlation matrix with a cached Cholesky factor.

    ``values`` must be exactly symmetric and is kept as given. The factor is
    computed once in the constructor, in fresh arrays, so the instance is
    immutable and safe to share between threads. It is ``cho_factor(values,
    lower=True)`` of ``values`` with its entries below ``eps**2`` zeroed: the
    same LAPACK call on the same F-ordered input, so the same bits, and the
    same errors. ``values`` is copied in through its transpose, a contiguous
    copy. The zeroing (every kernel kind is nonnegative, so the entry itself
    is compared) keeps ``dpotrf`` out of the subnormal numbers an underflowing
    kernel leaves, whose gradual-underflow arithmetic costs about ten times a
    clean factorization. The factor differs from that of ``values`` only in
    entries far below the rounding of the sums they enter; the tests check
    that ``logdet`` and the solves keep the plain factor's bits.

    ``_L`` is a C-ordered copy of the factor. It looks redundant
    (:func:`_tri_solve` ignores the upper triangle) but selects the
    transposed LAPACK triangular-solve path; solving with the F-ordered
    factor itself changes half_solve's last bits, and with them the optimum
    that MLE fits reach. Only the layout matters: zeroing the upper triangle
    (np.tril) changes no bit. The copy goes in ``_TILE`` x ``_TILE`` tiles
    that stay in cache: two thirds of one strided pass's time at m = 480.

    Finiteness is checked once, on ``values``, before the factorization: a
    finite positive-definite matrix has a finite factor, so the solves call
    LAPACK on it directly and scan nothing. Their right-hand sides must be
    finite; nothing here checks them.

    :func:`correlation_matrix` skips two of these steps where it can. A
    matrix assembled from a :class:`SiteDistances` was checked finite there
    (``_checked``), so it is not scanned again. A caller that never reads
    ``values`` (the MLE objective) has no use for the copy-in
    (``_in_place``): ``dpotrf`` then factors the buffer of ``values``
    itself, the same F-ordered input in the same memory layout, so the same
    bits, and ``values`` is None.
    """

    def __init__(self, values: np.ndarray, nugget, *, _checked: bool = False,
                 _in_place: bool = False):
        if not _checked and not np.isfinite(values).all():  # cho_factor's check
            raise ValueError(_NOT_FINITE)
        work = values.T if _in_place else values.T.copy(order="F")
        np.copyto(work, 0.0, where=work < _NEGLIGIBLE)
        c, info = dpotrf(work, lower=1, overwrite_a=1, clean=0)
        if info:                                     # only > 0 for F-ordered input
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        self.values = None if _in_place else values
        self.nugget = nugget
        self._cho = (c, True)
        self._L = L = np.empty(c.shape)             # np.ascontiguousarray(c), tiled
        for i in range(0, L.shape[0], _TILE):
            for j in range(0, L.shape[0], _TILE):
                L[i:i + _TILE, j:j + _TILE] = c[i:i + _TILE, j:j + _TILE]
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(c))))

    @property
    def m(self) -> int:
        return self._L.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """R^{-1} b via the cached factorization."""
        return _cho_solve(self._cho[0], b)

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b where R = L L^T."""
        return _tri_solve(self._L, b, True)

    def inverse(self) -> np.ndarray:
        return _cho_solve(self._cho[0], np.eye(self.m))


def _tri_solve(T: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """``solve_triangular(T, b, lower=lower)`` for finite float arrays,
    without its finiteness scans: the same LAPACK ``dtrtrs`` call on the same
    layout, so the same bits and, for a singular ``T``, the same
    ``LinAlgError``. Like scipy, a ``T`` that is not F-contiguous is solved
    as the transposed system on ``T.T``; the two paths round differently.
    """
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if T.flags.f_contiguous:
        x, info = dtrtrs(T, b, lower=lower)
    else:
        x, info = dtrtrs(T.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((c, True), b)`` for a finite lower Cholesky factor ``c``
    (F-ordered, as ``dpotrf`` returns it) and a finite ``b``, without the
    finiteness scans: the same ``dpotrs`` call, so the same bits."""
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    x, info = dpotrs(c, b, lower=1)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _cholesky(a: np.ndarray):
    """The lower factor ``cho_factor(a, lower=True)`` returns, in a fresh
    F-ordered array, or None when ``a`` is not positive definite. ``a`` must
    be finite; nothing here checks it."""
    c, info = dpotrf(a, lower=1, clean=0)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         'argument on entry to "POTRF".')
    return c if info == 0 else None


def correlation_matrix(X, spec: KernelSpec, nugget=DEFAULT_NUGGET,
                       auto_escalate: bool = True, *,
                       _keep_values: bool = True) -> CorrelationMatrix:
    """Assemble and factorize the m x m training correlation matrix.

    ``X`` holds the design sites, or is a :class:`SiteDistances` of them to
    assemble from its distinct distances. Either way the result owns its
    matrix and factor.
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

    A caller that never reads ``values`` passes ``_keep_values=False``:
    without ``auto_escalate`` the matrix is then factored in the buffer it
    was assembled in, and ``values`` is None. An escalating call keeps the
    matrix, since each retry factors it again.
    """
    distances = isinstance(X, SiteDistances)
    pts = X.points if distances else np.atleast_2d(np.asarray(X, float))
    m = pts.shape[0]
    if m < 1:
        raise DataError("correlation_matrix requires at least one design site")
    if pts.shape[1] != spec.dim:
        raise DataError(f"dimension mismatch: points {pts.shape[1]}, kernel {spec.dim}")
    nug = _nugget_vector(nugget, m)
    R = X.correlation(spec) if distances else _product_corr(pts, pts, spec)
    diag = R.reshape(-1)[::m + 1]                # a view of R's diagonal
    if np.all(nug == 0):                         # only then can sites clash
        diag[:] = 0.0                            # R.max(): off-diagonal only
        if m > 1 and R.max() >= 1.0:
            raise IllConditionedError(
                "duplicate design sites make the correlation matrix singular; "
                "deduplicate the design or use a positive nugget")
        if spec.kind == "linear" and spec.dim > 1:
            warnings.warn(
                "tensor-product linear kernel in d > 1 can be numerically "
                "indefinite; a positive nugget is recommended", NumericalWarning)

    checked = isinstance(X, SiteDistances)       # its correlation is finite
    in_place = not (_keep_values or auto_escalate)
    extra = 0.0
    while True:
        diag[:] = 1.0 + (nug + extra)
        try:
            return CorrelationMatrix(R, nug + extra, _checked=checked,
                                     _in_place=in_place)
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


def _nugget_vector(nugget, m: int) -> np.ndarray:
    """A scalar or per-point nugget as a checked vector of m entries."""
    nug = np.asarray(nugget, dtype=float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    elif nug.size != m:
        raise DataError(f"nugget vector has {nug.size} entries for {m} sites")
    if not np.all(np.isfinite(nug) & (nug >= 0)):
        raise DataError("nugget must be finite and nonnegative")
    return nug
