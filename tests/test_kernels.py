import math
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor

from gpcal import (ConfigError, DataError, IllConditionedError, KernelSpec,
                   NumericalWarning, correlation_matrix, cross_correlation,
                   kernel_eval, weighted_distance)
from gpcal.kernels import KERNEL_KINDS, SiteDistances, cross_corr_matrix

from conftest import oracle_kernel


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
    back = KernelSpec.from_json(spec.to_json())
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


# ------------------------------------------- bit-identical in-place assembly

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


def test_site_distances_reuse_is_bit_identical(rng):
    X = rng.uniform(0, 1, (30, 2))
    sites = SiteDistances(X)
    for h, x in zip(sites.absdiff, X.T):
        assert np.array_equal(h, np.abs(x[:, None] - x[None, :]))
    # scratch grows from one array (linear) to three (matern_5_2) and is
    # then reused by kinds needing fewer
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
