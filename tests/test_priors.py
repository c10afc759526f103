import math

import numpy as np
import pytest
from scipy.stats import lognorm, norm

from gpcal import ConfigError, DataError, Prior1D, PriorSpec
from gpcal.diagnostics import Z_95

#: the closed forms are held to scipy.stats bit for bit, not to a tolerance
N_RANDOM = 2000


def same_bits(a, b) -> bool:
    """Equal as float64 arrays bit for bit: same shape, nan where nan, and
    the same sign of zero (a nan's sign bit carries no value)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) & ~np.isnan(a),
                               np.signbit(b) & ~np.isnan(b)))


def scipy_logpdf(prior, v):
    if prior.kind == "normal":
        return norm.logpdf(v, loc=prior.p1, scale=prior.p2)
    return lognorm.logpdf(v, s=prior.p2, scale=math.exp(prior.p1))


def log_density(prior, v):
    """The prior's log density at v, through the one density body gpcal
    runs."""
    return PriorSpec([prior]).log_prior([v])


def scipy_ppf(prior, u):
    if prior.kind == "normal":
        return norm.ppf(u, loc=prior.p1, scale=prior.p2)
    return lognorm.ppf(u, s=prior.p2, scale=math.exp(prior.p1))


def random_priors(rng, n):
    for _ in range(n):
        yield Prior1D.normal(rng.normal(0.0, 10.0), math.exp(rng.uniform(-5, 5)))
        yield Prior1D.lognormal(rng.normal(0.0, 3.0), math.exp(rng.uniform(-4, 1.5)))


def test_uniform_prior():
    p = Prior1D.uniform(2.0, 6.0)
    assert p.mean == 4.0
    assert p.std == pytest.approx(4.0 / math.sqrt(12.0))
    assert log_density(p, 3.0) == pytest.approx(-math.log(4.0))
    assert log_density(p, 1.0) == -math.inf
    assert p.ppf(0.25) == 3.0


def test_normal_and_lognormal_match_scipy():
    rng = np.random.default_rng(20261018)
    for prior in random_priors(rng, N_RANDOM):
        # values spread over +-3 sd of the (log-)normal, where a prior is used
        z = 3.0 * rng.normal()
        v = prior.p1 + prior.p2 * z
        if prior.kind == "lognormal":
            v = math.exp(v)
        assert log_density(prior, v) == float(scipy_logpdf(prior, v)), (prior, v)
        u = float(rng.uniform())
        assert same_bits(prior.ppf(u), scipy_ppf(prior, u)), (prior, u)
    q = Prior1D.lognormal(0.5, 0.3)
    assert q.mean == pytest.approx(math.exp(0.5 + 0.045))


@pytest.mark.parametrize("prior", [Prior1D.normal(1.3, 0.7),
                                   Prior1D.lognormal(-0.4, 0.9)],
                         ids=["normal", "lognormal"])
def test_closed_form_ppf_matches_scipy_on_arrays_and_edges(prior):
    u = np.random.default_rng(7).uniform(size=N_RANDOM)
    assert same_bits(prior.ppf(u), scipy_ppf(prior, u))
    edges = np.array([0.0, 0.5, 1.0, -0.25, 1.25, np.nan, 1e-300, 1 - 2 ** -53])
    assert same_bits(prior.ppf(edges), scipy_ppf(prior, edges))
    for e in edges:
        assert same_bits(prior.ppf(e), scipy_ppf(prior, e)), e
    # u = 0 and 1 are the support's ends: (-inf, inf) or (0, inf)
    assert prior.ppf(0.0) == prior.support[0] and prior.ppf(1.0) == math.inf


@pytest.mark.parametrize("prior", [Prior1D.normal(1.3, 0.7),
                                   Prior1D.lognormal(-0.4, 0.9)],
                         ids=["normal", "lognormal"])
def test_closed_form_logpdf_matches_scipy_at_the_support_edges(prior):
    values = [-math.inf, -1e300, -2.0, -0.0, 0.0, 5e-324, 1e-300, 1e-8,
              prior.p1, 1e8, 1e300, math.inf]
    with np.errstate(over="ignore"):  # z**2 overflows to inf at +-1e300
        for v in values:
            assert same_bits(log_density(prior, v), scipy_logpdf(prior, v)), v
    if prior.kind == "lognormal":
        assert log_density(prior, 0.0) == log_density(prior, -1.0) == -math.inf
    # nan lies outside every support: a proposal there is rejected
    assert log_density(prior, math.nan) == -math.inf


def test_z_value_matches_scipy_norm_ppf():
    # every interval is 95%; its factor is the two-sided 0.975 quantile
    # rounded to the conventional two decimals
    assert Z_95 == 1.96 == round(float(norm.ppf(0.975)), 2)
    assert abs(Z_95 - float(norm.ppf(0.975))) < 4e-5


def test_prior_validation():
    with pytest.raises(ConfigError):
        Prior1D.uniform(2.0, 2.0)
    with pytest.raises(ConfigError):
        Prior1D.normal(0.0, 0.0)
    with pytest.raises(ConfigError):
        Prior1D("weibull", 1.0, 1.0)


def test_priorspec_support_and_logprior():
    spec = PriorSpec([Prior1D.uniform(0, 1), Prior1D.normal(0, 1)],
                     nominal=[0.5, 0.0])
    assert spec.log_prior([0.5, 0.0]) == -math.log(1.0) + float(norm.logpdf(0.0))
    assert spec.log_prior([1.5, 0.0]) == -math.inf
    assert spec.contains([0.2, -3.0])
    assert not spec.contains([-0.1, 0.0])
    with pytest.raises(ConfigError):
        PriorSpec([Prior1D.uniform(0, 1)], nominal=[2.0])
    # a lognormal's density is zero at 0, the closed end of its support:
    # such a nominal once loaded and failed only at the chain's first step
    lognormal = PriorSpec([Prior1D.lognormal(0.5, 0.5)], nominal=[1.0])
    assert lognormal.log_prior([0.0]) == -math.inf and not lognormal.contains([0.0])
    with pytest.raises(ConfigError, match="prior density is zero"):
        PriorSpec([Prior1D.lognormal(0.5, 0.5)], nominal=[0.0])


def test_priorspec_rejects_a_theta_of_the_wrong_width():
    spec = PriorSpec([Prior1D.uniform(0, 4), Prior1D.uniform(-1, 3)])
    for theta in ([0.5], [0.5, 0.0, 99.0], [[0.5]], [[0.5, 0.0, 99.0]] * 2):
        width = np.shape(theta)[-1]
        for method in (spec.log_prior, spec.contains):
            with pytest.raises(DataError,
                               match=f"theta has {width} entries, expected 2"):
                method(theta)


def test_log_prior_of_a_stack_is_each_rows_bits(rng):
    spec = PriorSpec([Prior1D.uniform(-1.0, 1.0), Prior1D.normal(0.3, 2.0),
                      Prior1D.lognormal(0.1, 0.7)], nominal=[0.0, 0.0, 1.0])
    stack = np.column_stack([rng.uniform(-1.5, 1.5, 40), rng.normal(0.0, 5.0, 40),
                             rng.lognormal(0.0, 1.0, 40)])
    stack[3, 2] = 0.0                            # the lognormal's support edge
    stack[5] = [-1.0, 0.0, 1.0]                  # the uniform's edge, inside
    stack[7, 0] = math.nan
    stack[9, 1] = math.inf
    got = spec.log_prior(stack)
    assert same_bits(got, [spec.log_prior(row) for row in stack])
    # the oracle: each row's scipy.stats log densities summed in component
    # order, a uniform's being -log(upper - lower) inside and -inf outside
    want = np.zeros(len(stack))
    for c, v in zip(spec.components, stack.T):
        if c.kind == "uniform":
            want += np.where((c.p1 <= v) & (v <= c.p2), -math.log(c.p2 - c.p1), -math.inf)
        else:
            want += scipy_logpdf(c, v)
    want[np.isnan(stack).any(axis=1)] = -math.inf    # nan lies outside every support
    assert same_bits(got, want)
    assert np.isinf(got).sum() > 4 and np.isfinite(got).sum() > 20


def test_priorspec_ppf_maps_unit_cube():
    spec = PriorSpec([Prior1D.uniform(-2, 2), Prior1D.lognormal(0.0, 0.5)])
    u = np.array([[0.5, 0.5], [0.25, 0.9]])
    out = spec.ppf(u)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0  # median of lognormal(0, .5)
    assert out[1, 0] == -1.0
    assert same_bits(out[:, 1], lognorm.ppf(u[:, 1], s=0.5))
