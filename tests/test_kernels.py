import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from gpcal import (ConfigError, DataError, IllConditionedError, KernelSpec,
                   NumericalWarning, correlation_matrix)
from gpcal.kernels import (KERNEL_KINDS, CorrelationMatrix, SiteDistances,
                           _dlog_corr_1d, _product_corr, _tri_solve,
                           cross_corr_matrix)

from conftest import (cross_correlation, cross_rows, kernel_eval, oracle_kernel,
                      weighted_distance)


def all_kind_specs(d=1, omega=1.0):
    om = np.full(d, omega)
    for kind in KERNEL_KINDS:
        yield KernelSpec(kind, om, [1.5] * d if kind == "power_exponential" else None)


# ------------------------------------------------------------- KernelSpec

def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("banana", [1.0])
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", [0.0])
    with pytest.raises(ConfigError):
        KernelSpec("power_exponential", [1.0], [2.5])
    spec = KernelSpec("gaussian", [1.0, 2.0], p=[0.3, 0.3])  # p ignored
    assert np.array_equal(spec.p, [2.0, 2.0])


def test_spec_json_roundtrip():
    spec = KernelSpec("power_exponential", [0.5, 2.0], [1.0, 1.8])
    back = KernelSpec(**json.loads(json.dumps(spec.to_dict())))
    assert back.kind == spec.kind
    assert np.array_equal(back.omega, spec.omega)
    assert np.array_equal(back.p, spec.p)


# ------------------------------------------------------ weighted distance

def test_weighted_distance_zero():
    for spec in all_kind_specs(d=2):
        assert weighted_distance([0.3, 0.4], [0.3, 0.4], spec) == 0.0


def test_weighted_distance_hand_values():
    spec = KernelSpec("power_exponential", [1.0], [2.0])
    assert weighted_distance([0.0], [0.5], spec) == pytest.approx(0.25, abs=1e-15)
    spec2 = KernelSpec("power_exponential", [1.0, 2.0], [1.0, 1.0])
    assert weighted_distance([0.0, 0.0], [1.0, 1.0], spec2) == pytest.approx(1.5, abs=1e-15)


def test_weighted_distance_dim_mismatch():
    spec = KernelSpec("gaussian", [1.0, 1.0])
    with pytest.raises(DataError):
        weighted_distance([0.0], [1.0], spec)


# ------------------------------------------------------------ kernel_eval

def test_unit_correlation_at_zero_distance():
    for spec in all_kind_specs(d=3, omega=0.7):
        x = np.array([0.2, 0.5, 0.9])
        assert kernel_eval(spec, x, x) == 1.0


def test_gaussian_at_h_equal_omega():
    spec = KernelSpec("gaussian", [0.4])
    got = kernel_eval(spec, [0.0], [0.4])
    assert got == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert got == pytest.approx(0.60653, abs=5e-6)


def test_linear_kernel_compact_support():
    spec = KernelSpec("linear", [0.3])
    assert kernel_eval(spec, [0.0], [0.3]) == 0.0
    assert kernel_eval(spec, [0.0], [0.9]) == 0.0
    assert kernel_eval(spec, [0.0], [0.15]) == pytest.approx(0.5, abs=1e-15)


def test_matern32_monotone_decay_to_zero():
    spec = KernelSpec("matern_3_2", [0.5])
    hs = np.linspace(0.0, 50.0, 400)
    vals = np.array([kernel_eval(spec, [0.0], [h]) for h in hs])
    assert np.all(np.diff(vals) <= 1e-15)
    assert vals[-1] < 1e-10


def test_symmetry_and_range(rng):
    for spec in all_kind_specs(d=2, omega=0.8):
        for _ in range(20):
            a = rng.uniform(0, 1, 2)
            b = rng.uniform(0, 1, 2)
            v1 = kernel_eval(spec, a, b)
            v2 = kernel_eval(spec, b, a)
            assert v1 == v2
            assert 0.0 <= v1 <= 1.0


def test_matches_independent_oracle(rng):
    for spec in all_kind_specs(d=3, omega=0.6):
        for _ in range(10):
            a = rng.uniform(0, 1, 3)
            b = rng.uniform(0, 1, 3)
            want = oracle_kernel(spec.kind, spec.omega, spec.p, a, b)
            assert kernel_eval(spec, a, b) == pytest.approx(want, abs=1e-15)


def test_correlation_profile_monotonicity():
    # larger omega -> higher correlation at fixed distance (p = 2)
    h = 0.35
    vals = [kernel_eval(KernelSpec("power_exponential", [w], [2.0]), [0.0], [h])
            for w in (0.2, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) > 0)
    # smaller p -> lower correlation at h < 1 (omega = 1)
    for h in (0.1, 0.35, 0.7, 0.95):
        vals = [kernel_eval(KernelSpec("power_exponential", [1.0], [p]), [0.0], [h])
                for p in (0.25, 0.75, 1.25, 2.0)]
        assert np.all(np.diff(vals) > 0)


# ----------------------------------------------------- correlation_matrix

def test_single_site_matrix():
    R = correlation_matrix(np.array([[0.5]]), KernelSpec("gaussian", [1.0]),
                           nugget=0.25)
    assert R.values.shape == (1, 1)
    assert R.values[0, 0] == pytest.approx(1.25, abs=1e-15)


def test_duplicate_sites_zero_nugget_rejected():
    X = np.array([[0.2, 0.3], [0.2, 0.3]])
    with pytest.raises(IllConditionedError):
        correlation_matrix(X, KernelSpec("gaussian", [1.0, 1.0]), nugget=0.0)


def test_duplicate_sites_allowed_with_nugget():
    X = np.array([[0.2], [0.2], [0.7]])
    R = correlation_matrix(X, KernelSpec("gaussian", [1.0]), nugget=1e-4)
    assert R.m == 3


def test_three_site_gaussian_matches_hand_oracle():
    X = np.array([[0.0], [0.5], [1.0]])
    spec = KernelSpec("gaussian", [1.0])
    R = correlation_matrix(X, spec, nugget=0.0)
    want = np.array([
        [1.0, math.exp(-0.125), math.exp(-0.5)],
        [math.exp(-0.125), 1.0, math.exp(-0.125)],
        [math.exp(-0.5), math.exp(-0.125), 1.0]])
    assert np.max(np.abs(R.values - want)) <= 1e-15


def test_positive_definite_for_all_kinds(rng):
    X = rng.uniform(0, 1, (12, 2))
    for spec in all_kind_specs(d=2, omega=0.5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            R = correlation_matrix(X, spec, nugget=1e-10)
        assert np.all(np.diag(R.values) == pytest.approx(1.0 + 1e-10, abs=1e-16))
        assert np.max(np.abs(R.values - R.values.T)) <= 1e-14


def test_nugget_escalation_warns_and_recovers():
    # tightly clustered (but distinct) points: zero-nugget Cholesky fails,
    # escalation recovers at a tiny nugget
    X = np.linspace(0.0, 0.01, 20).reshape(-1, 1)
    spec = KernelSpec("gaussian", [1.0])
    with pytest.warns(NumericalWarning):
        R = correlation_matrix(X, spec, nugget=0.0)
    assert 0.0 < R.nugget.max() <= 1e-4
    with pytest.raises(IllConditionedError):
        correlation_matrix(X, spec, nugget=0.0, auto_escalate=False)


def test_correlation_one_but_distinct_points_rejected_at_zero_nugget():
    # floating-point-distinct points whose correlation rounds to exactly 1
    X = np.array([[0.0], [1e-9], [2e-9], [1.0]])
    spec = KernelSpec("gaussian", [1e3])
    with pytest.raises(IllConditionedError):
        correlation_matrix(X, spec, nugget=0.0)


def test_heteroscedastic_nugget_vector():
    X = np.array([[0.0], [0.5], [1.0]])
    nug = np.array([0.1, 0.2, 0.3])
    R = correlation_matrix(X, KernelSpec("gaussian", [0.5]), nugget=nug)
    assert np.allclose(np.diag(R.values), 1.0 + nug, rtol=0, atol=1e-15)


# ------------------------------------------------------ cross correlation

def test_cross_correlation_at_training_site():
    X = np.array([[0.1], [0.6], [0.9]])
    spec = KernelSpec("matern_5_2", [0.4])
    r = cross_correlation(X, [0.6], spec)
    assert r[1] == 1.0
    assert r.shape == (3,)


def test_cross_correlation_far_point_vanishes():
    X = np.array([[0.0], [0.1]])
    spec = KernelSpec("gaussian", [0.1])
    r = cross_correlation(X, [0.1 + 0.6], spec)  # six length-scales away
    assert np.all(r < 1e-6)


def test_cross_correlation_empty():
    spec = KernelSpec("gaussian", [1.0])
    r = cross_correlation(np.empty((0, 1)), [0.5], spec)
    assert r.shape == (0,)


def test_cross_corr_matrix_dim_mismatch():
    spec = KernelSpec("gaussian", [1.0])
    with pytest.raises(DataError):
        cross_corr_matrix(np.zeros((2, 2)), np.zeros((2, 2)), spec)


# ------------------------------------ assembly bit-identical to the expressions

def out_of_place_corr(A, B, spec):
    """The assembly as literal out-of-place numpy expressions: a fresh array
    per operation, ones *= R_k per dimension."""
    out = np.ones((A.shape[0], B.shape[0]))
    for k in range(spec.dim):
        h = np.abs(A[:, k:k + 1] - B[None, :, k])
        omega, p = spec.omega[k], spec.p[k]
        t = h / omega
        if spec.kind == "linear":
            r = np.maximum(0.0, 1.0 - t)
        elif spec.kind == "exponential":
            r = np.exp(-t)
        elif spec.kind == "power_exponential":
            r = np.exp(-t ** p)
        elif spec.kind == "gaussian":
            r = np.exp(-(h * h) / (2.0 * omega * omega))
        elif spec.kind == "matern_3_2":
            s = math.sqrt(3.0) * t
            r = (1.0 + s) * np.exp(-s)
        else:
            s = math.sqrt(5.0) * t
            r = (1.0 + s + 5.0 * (h * h) / (3.0 * omega * omega)) * np.exp(-s)
        out *= r
    return out


def corner_specs(kind, d):
    """Specs at the MLE bound corners omega in {1e-3, 1e3} and in between;
    several roughness exponents for the power-exponential kind."""
    for omega in ([1e-3] * d, [1e3] * d, [1e3] + [1e-3] * (d - 1),
                  list(np.linspace(0.2, 1.4, d))):
        for p in ([0.5] * d, [1.0] * d, [1.5] * d, [2.0] * d) \
                if kind == "power_exponential" else [None]:
            yield KernelSpec(kind, omega, p)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_assembly_bit_identical_to_out_of_place_expressions(kind, rng):
    X = rng.uniform(0, 1, (40, 3))
    Y = rng.uniform(0, 1, (6, 3))
    for spec in corner_specs(kind, 3):
        assert np.array_equal(cross_corr_matrix(X, Y, spec),
                              out_of_place_corr(X, Y, spec))
        seed_R = out_of_place_corr(X, X, spec)
        # exact symmetry is why no 0.5 * (R + R.T) copy is needed
        assert np.array_equal(seed_R, seed_R.T)
        for nugget in (1e-8, rng.uniform(1e-8, 1e-6, 40)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NumericalWarning)
                R = correlation_matrix(X, spec, nugget)
            assert np.all(R.nugget >= nugget)        # escalated or not
            want = cross_corr_matrix(X, X, spec) + np.diag(R.nugget)
            assert np.array_equal(R.values, want)
            c, _ = cho_factor(want, lower=True)
            assert R.logdet == 2.0 * float(np.sum(np.log(np.diag(c))))


@pytest.mark.parametrize("layout", ["joint", "cross"])
def test_site_distances_reuse_is_bit_identical(layout, rng):
    X = (rng.uniform(0, 1, (30, 2)) if layout == "joint"
         else cross_rows(rng.uniform(0, 1, (5, 1)), rng.uniform(0, 1, (6, 1))))
    sites = SiteDistances(X)
    assert (sites._layout is None) == (layout == "joint")
    for u, inv, x in zip(sites._distinct, sites._inverse, X.T):
        assert np.array_equal(u[inv], np.abs(x[:, None] - x[None, :]))
    for spec in [*all_kind_specs(d=2, omega=0.6), *all_kind_specs(d=2, omega=0.6)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            cached = correlation_matrix(sites, spec, 1e-8)
            fresh = correlation_matrix(X, spec, 1e-8)
        assert np.array_equal(cached.values, fresh.values)
        assert cached.logdet == fresh.logdet
        assert cached.values is not fresh.values


def test_correlation_matrix_dim_mismatch():
    with pytest.raises(DataError):
        correlation_matrix(np.zeros((3, 2)), KernelSpec("gaussian", [1.0]))


@pytest.mark.parametrize("m", [1, 7, 108])
def test_half_solve_matches_tril_solve_bit_for_bit(m, rng):
    # the cached factor is a C-ordered copy of cho_factor's output with the
    # upper triangle left in: that selects the same LAPACK path as solving
    # with np.tril of it, so no bit of half_solve may move
    X = rng.uniform(0, 1, (m, 3))
    R = correlation_matrix(X, KernelSpec("matern_5_2", [0.3, 0.6, 1.1]), 1e-8)
    L = np.tril(R._cho[0])
    for b in (rng.normal(size=m), rng.normal(size=(m, 4)), np.eye(m)):
        assert np.array_equal(R.half_solve(b), solve_triangular(L, b, lower=True))


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("m", [1, 127, 128, 129, 300, 480])
def test_c_ordered_factor_is_the_contiguous_copy(m, in_place, rng):
    # the factor is copied to C order in square tiles; sizes on either side
    # of the tile edge and its multiples leave ragged edge tiles, and every
    # entry, the upper triangle's too, must be np.ascontiguousarray's
    X = rng.uniform(0, 1, (m, 2))
    values = cross_corr_matrix(X, X, KernelSpec("matern_5_2", [0.2, 0.4]))
    values[np.diag_indices(m)] += 1e-6
    R = CorrelationMatrix(values, 1e-6, _in_place=in_place)
    c = R._cho[0]
    assert R._L.flags.c_contiguous and R._L.dtype == c.dtype
    assert np.array_equal(R._L, np.ascontiguousarray(c))
    assert not np.shares_memory(R._L, c)


# ------------------------------------------- the LAPACK seam, scipy as oracle

def right_hand_sides(m, rng):
    """1-D, C- and F-ordered 2-D, strided and empty right-hand sides."""
    b = rng.normal(size=(m, 4))
    return (rng.normal(size=m), b, np.asfortranarray(b), b[:, ::2],
            np.empty((m, 0)))


def same_solution(ours, oracle):
    return (ours.shape == oracle.shape and ours.dtype == oracle.dtype
            and np.array_equal(ours, oracle))


@pytest.mark.parametrize("m", [1, 7, 108])
def test_tri_solve_matches_solve_triangular_on_either_layout(m, rng):
    R = correlation_matrix(rng.uniform(0, 1, (m, 3)),
                           KernelSpec("matern_5_2", [0.3, 0.6, 1.1]), 1e-8)
    c = R._cho[0]
    # the factor as either triangle, in either order; scipy picks its LAPACK
    # path from the order, and the two paths round differently
    triangles = [(c, True), (np.ascontiguousarray(c), True),
                 (np.ascontiguousarray(c.T), False), (c.T, False)]
    for T, lower in triangles:
        for b in right_hand_sides(m, rng):
            assert same_solution(_tri_solve(T, b, lower),
                                 solve_triangular(T, b, lower=lower))
    for b in right_hand_sides(m, rng):
        assert same_solution(R.half_solve(b), solve_triangular(R._L, b, lower=True))
        assert same_solution(R.solve(b), cho_solve((c, True), b))
    assert np.array_equal(R.inverse(), cho_solve((c, True), np.eye(m)))


def test_tri_solve_of_a_singular_triangle_raises_like_scipy(rng):
    T = np.tril(rng.normal(size=(6, 6)))
    T[3, 3] = 0.0
    b = rng.normal(size=6)
    for A, lower in ((T, True), (np.asfortranarray(T), True), (T.T, False)):
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            solve_triangular(A, b, lower=lower)
        with pytest.raises(np.linalg.LinAlgError) as ours:
            _tri_solve(A, b, lower)
        assert str(ours.value) == str(scipy_error.value)


# ------------------------------------- distinct-distance assembly and factors

def entrywise_corr(X, spec):
    """The literal entry-by-entry assembly of X's correlation matrix."""
    return cross_corr_matrix(X, X, spec)


def site_sets(rng):
    """A cross design (few distinct x values, each repeated per theta), a
    joint LHS-like set, a set with duplicate sites, one site, one dimension."""
    x_grid = np.linspace(0.0, 1.0, 5)
    theta = rng.uniform(0, 1, (8, 2))
    cross = np.column_stack([np.repeat(x_grid, 8), np.tile(theta, (5, 1))])
    joint = (rng.permuted(np.tile(np.arange(30), (3, 1)), axis=1).T
             + rng.uniform(0, 1, (30, 3))) / 30
    dup = rng.uniform(0, 1, (12, 3))
    dup[5] = dup[2]
    dup[9] = dup[2]
    return {"cross": cross, "joint": joint, "duplicates": dup,
            "m=1": rng.uniform(0, 1, (1, 3)), "d=1": rng.uniform(0, 1, (25, 1))}


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_distinct_distance_assembly_bit_identical_to_entrywise(kind, rng):
    for name, X in site_sets(rng).items():
        sites = SiteDistances(X)
        for spec in corner_specs(kind, X.shape[1]):
            assert np.array_equal(sites.correlation(spec), entrywise_corr(X, spec)), \
                (name, spec.omega, spec.p)


def test_site_distances_store_distinct_distances(rng):
    X = site_sets(rng)["cross"]
    sites = SiteDistances(X)
    # the x column takes 5 values, so its distances take 5
    assert [u.size for u in sites._distinct][0] == 5
    for u, inv, x in zip(sites._distinct, sites._inverse, X.T):
        h = np.abs(x[:, None] - x[None, :])
        assert np.array_equal(u, np.unique(h))
        assert inv.shape == h.shape and np.array_equal(u[inv], h)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_log_derivatives_match_differences_of_the_assembly(kind, rng):
    # <dR/d log omega_k, S> from the closed-form d log R_k / d log omega_k
    # against central differences of the assembled matrix; some distances
    # lie beyond the linear kind's support
    X, S = rng.uniform(0, 1, (15, 3)), rng.normal(size=(15, 15))
    sites, h = SiteDistances(X), 1e-6
    omega = np.array([0.5, 0.7, 0.9])
    p = [0.7, 1.3, 2.0] if kind == "power_exponential" else None
    got = sites.log_derivatives(KernelSpec(kind, omega, p),
                                sites.correlation(KernelSpec(kind, omega, p)) * S)
    for k, step in enumerate(np.exp(h * np.eye(3))):
        up = sites.correlation(KernelSpec(kind, omega * step, p))
        down = sites.correlation(KernelSpec(kind, omega / step, p))
        assert got[k] == pytest.approx(np.sum((up - down) * S) / (2 * h), rel=1e-7)


def test_log_derivative_is_zero_at_the_origin_and_beyond_linear_support():
    for spec in all_kind_specs():
        assert _dlog_corr_1d(spec.kind, np.zeros(1), 0.7, spec.p[0])[0] == 0.0
    assert _dlog_corr_1d("linear", np.array([0.5, 1.0, 2.0]), 1.0, 1.0).tolist() \
        == [1.0, 0.0, 0.0]


def sites_and_plain(X, spec, nugget, **kwargs):
    return (correlation_matrix(SiteDistances(X), spec, nugget, **kwargs),
            correlation_matrix(X, spec, nugget, **kwargs))


@pytest.mark.parametrize("kind", ["matern_5_2", "gaussian", "power_exponential"])
def test_sites_factor_bit_identical_to_cho_factor(kind, rng):
    X = rng.uniform(0, 1, (60, 3))
    p = [0.5, 1.0, 2.0] if kind == "power_exponential" else None
    for omega in ([0.3, 0.6, 1.1], [1e-3, 1e-3, 1e-3], [2.0, 0.05, 0.7]):
        for R in sites_and_plain(X, KernelSpec(kind, omega, p), 1e-8):
            # scipy's factor of the values with entries below eps**2 zeroed is
            # the factor's oracle; scipy's factor of the plain values is the
            # oracle of logdet and the solves
            flushed = np.where(R.values < np.finfo(float).eps ** 2, 0.0, R.values)
            assert np.array_equal(R._cho[0], cho_factor(flushed, lower=True)[0])
            c, _ = cho_factor(R.values, lower=True)
            assert R.logdet == 2.0 * float(np.sum(np.log(np.diag(c))))
            assert R._L.flags.c_contiguous and R._cho[0].flags.f_contiguous
            for b in (rng.normal(size=60), rng.normal(size=(60, 3))):
                assert np.array_equal(
                    R.half_solve(b),
                    solve_triangular(np.ascontiguousarray(c), b, lower=True))
                assert np.array_equal(R.solve(b), cho_solve((c, True), b))


def test_sites_factor_survives_the_next_factorization_from_the_same_sites(rng):
    # each factor owns its arrays, so a later objective call cannot overwrite
    # the one before it
    X = rng.uniform(0, 1, (20, 2))
    sites = SiteDistances(X)
    first = correlation_matrix(sites, KernelSpec("matern_3_2", [0.4, 0.8]), 1e-8)
    kept = first._cho[0].copy(), first._L.copy(), first.logdet
    second = correlation_matrix(sites, KernelSpec("matern_3_2", [0.1, 2.0]), 1e-8)
    assert second.logdet != first.logdet
    assert np.array_equal(first._cho[0], kept[0])
    assert np.array_equal(first._L, kept[1])
    assert first.logdet == kept[2]
    plain = correlation_matrix(X, KernelSpec("matern_3_2", [0.4, 0.8]), 1e-8)
    assert np.array_equal(first._cho[0], plain._cho[0])
    assert not any(np.shares_memory(a, b) for a in (first._cho[0], first._L)
                   for b in (second._cho[0], second._L))


def test_sites_escalation_matches_plain():
    X = np.linspace(0.0, 0.01, 20).reshape(-1, 1)
    spec = KernelSpec("gaussian", [1.0])
    with pytest.warns(NumericalWarning) as rec_sites:
        sites = correlation_matrix(SiteDistances(X), spec, nugget=0.0)
    with pytest.warns(NumericalWarning) as rec_plain:
        plain = correlation_matrix(X, spec, nugget=0.0)
    assert [str(w.message) for w in rec_sites] == [str(w.message) for w in rec_plain]
    assert 0.0 < sites.nugget.max() <= 1e-4
    assert np.array_equal(sites.nugget, plain.nugget)
    assert np.array_equal(sites.values, plain.values)
    assert np.array_equal(sites._cho[0], plain._cho[0])
    assert np.array_equal(sites._L, plain._L)
    assert sites.logdet == plain.logdet
    with pytest.raises(IllConditionedError):
        correlation_matrix(SiteDistances(X), spec, nugget=0.0, auto_escalate=False)


def test_sites_factor_rejects_non_finite_like_cho_factor(rng):
    X = rng.uniform(0, 1, (6, 2))
    spec = KernelSpec("matern_5_2", [0.5, 0.5])
    values = cross_corr_matrix(X, X, spec)
    values[1, 4] = values[4, 1] = np.nan
    with pytest.raises(ValueError) as scipy_error:
        cho_factor(values, lower=True)
    with pytest.raises(ValueError) as ours:
        CorrelationMatrix(values, 0.0)
    assert type(ours.value) is type(scipy_error.value)
    assert str(ours.value) == str(scipy_error.value)
    # a non-finite nugget is refused before the factorization on either path
    for X_or_sites in (X, SiteDistances(X)):
        with pytest.raises(DataError, match="nugget"):
            correlation_matrix(X_or_sites, spec, np.inf)


# ------------------------------------------------ cross-layout assembly

def cross_layout_specs(d, rng):
    """Every kind, power-exponential at p = 0.5 and p = 2, at random
    length-scales and at the ends of the fits' omega box."""
    for kind in KERNEL_KINDS:
        for p in ([0.5, 2.0] if kind == "power_exponential" else [None]):
            for omega in (rng.uniform(0.1, 2.0, d), np.full(d, 1e-3), np.full(d, 1e3)):
                yield KernelSpec(kind, omega, None if p is None else np.full(d, p))


@pytest.mark.parametrize("dt", [1, 2, 3])
@pytest.mark.parametrize("dx", [1, 2])
def test_cross_layout_assembly_is_bit_identical_to_product_corr(dx, dt, rng):
    u_x, u_t = rng.uniform(0, 1, (4, dx)), rng.uniform(0, 1, (6, dt))
    X = cross_rows(u_x, u_t)
    one_x = cross_rows(u_x[:1], u_t[np.arange(24) % 6] + np.arange(24)[:, None])
    cases = [(X, (dx, 6)),
             (cross_rows(u_x, u_t[:1]), (dx, 1)),             # one theta row
             (one_x, (1, 24)),       # its first column alone splits the rows
             # no product layout, so the factors are gathered
             (X[rng.permutation(len(X))], None),
             (rng.uniform(0, 1, X.shape), None)]
    sites = [SiteDistances(Y) for Y, _ in cases]
    assert [s._layout for s in sites] == [layout for _, layout in cases]
    for spec in cross_layout_specs(dx + dt, rng):
        for s in sites:
            assert np.array_equal(s.correlation(spec),
                                  _product_corr(s.points, s.points, spec))


def test_in_place_factor_keeps_the_copied_factor_bits(rng):
    # the MLE objective never reads values, so its matrix is factored in the
    # buffer it was assembled in; the factor must be the copy-in path's, on
    # a cross layout and on a joint design, from the sites or the points
    for X in (cross_rows(rng.uniform(0, 1, (5, 1)), rng.uniform(0, 1, (8, 2))),
              rng.uniform(0, 1, (40, 3))):
        b = rng.normal(size=(40, 2))
        for X_or_sites in (X, SiteDistances(X)):
            for spec in cross_layout_specs(3, rng):
                try:
                    kept = correlation_matrix(X_or_sites, spec, 1e-8, False)
                except IllConditionedError:
                    with pytest.raises(IllConditionedError):
                        correlation_matrix(X_or_sites, spec, 1e-8, False,
                                           _keep_values=False)
                    continue
                own = correlation_matrix(X_or_sites, spec, 1e-8, False,
                                         _keep_values=False)
                assert own.values is None
                assert own.m == kept.m == 40
                assert np.array_equal(own._cho[0], kept._cho[0])
                assert np.array_equal(own._L, kept._L)
                assert own.logdet == kept.logdet
                assert np.array_equal(own.half_solve(b), kept.half_solve(b))
                assert np.array_equal(own.solve(b), kept.solve(b))
                # a retry factors the matrix again, so escalation keeps it
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NumericalWarning)
                    escalating = correlation_matrix(X_or_sites, spec, 1e-8, True,
                                                    _keep_values=False)
                assert np.array_equal(escalating.values, kept.values)


def test_non_finite_correlations_raise_value_error_on_every_path(rng):
    message = "array must not contain infs or NaNs"
    X = rng.uniform(0, 1, (6, 2))
    values = cross_corr_matrix(X, X, KernelSpec("matern_5_2", [0.5, 0.5]))
    for bad in (np.nan, np.inf):
        poisoned = values.copy()
        poisoned[2, 3] = poisoned[3, 2] = bad
        with pytest.raises(ValueError, match=message):
            CorrelationMatrix(poisoned, 0.0)
    nan_site = X.copy()
    nan_site[2, 1] = np.nan
    # a Matern factor is inf * 0 at t = h / omega = inf: finite sites, NaN
    # factor, caught on the distinct factor values of the SiteDistances path
    tiny = KernelSpec("matern_3_2", [5e-324, 0.5])
    cross = cross_rows(rng.uniform(0, 1, (3, 1)), rng.uniform(0, 1, (4, 1)))
    cases = [(nan_site, KernelSpec("matern_5_2", [0.5, 0.5])), (X, tiny), (cross, tiny)]
    assert SiteDistances(cross)._layout == (1, 4)
    with np.errstate(all="ignore"):
        for Y, spec in cases:
            for X_or_sites in (Y, SiteDistances(Y)):
                for nugget in (0.0, 1e-8):
                    for auto_escalate in (True, False):
                        with pytest.raises(ValueError, match=message):
                            correlation_matrix(X_or_sites, spec, nugget, auto_escalate)
                    with pytest.raises(ValueError, match=message):
                        correlation_matrix(X_or_sites, spec, nugget, False,
                                           _keep_values=False)
