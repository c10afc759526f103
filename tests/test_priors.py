import math

import numpy as np
import pytest
from scipy.stats import lognorm, norm

from gpcal import ConfigError, Prior1D, PriorSpec


def test_uniform_prior():
    p = Prior1D.uniform(2.0, 6.0)
    assert p.mean == 4.0
    assert p.std == pytest.approx(4.0 / math.sqrt(12.0))
    assert p.logpdf(3.0) == pytest.approx(-math.log(4.0))
    assert p.logpdf(1.0) == -math.inf
    assert p.ppf(0.25) == 3.0


def test_normal_and_lognormal_match_scipy():
    p = Prior1D.normal(1.0, 2.0)
    assert p.logpdf(0.3) == pytest.approx(norm.logpdf(0.3, 1.0, 2.0))
    assert p.ppf(0.9) == pytest.approx(norm.ppf(0.9, 1.0, 2.0))
    q = Prior1D.lognormal(0.5, 0.3)
    assert q.logpdf(1.7) == pytest.approx(
        lognorm.logpdf(1.7, s=0.3, scale=math.exp(0.5)))
    assert q.logpdf(-1.0) == -math.inf
    assert q.mean == pytest.approx(math.exp(0.5 + 0.045))


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
    assert spec.log_prior([0.5, 0.0]) == pytest.approx(
        norm.logpdf(0.0))
    assert spec.log_prior([1.5, 0.0]) == -math.inf
    assert spec.contains([0.2, -3.0])
    assert not spec.contains([-0.1, 0.0])
    with pytest.raises(ConfigError):
        PriorSpec([Prior1D.uniform(0, 1)], nominal=[2.0])


def test_priorspec_ppf_maps_unit_cube():
    spec = PriorSpec([Prior1D.uniform(-2, 2), Prior1D.lognormal(0.0, 0.5)])
    u = np.array([[0.5, 0.5], [0.25, 0.9]])
    out = spec.ppf(u)
    assert out[0, 0] == 0.0
    assert out[0, 1] == pytest.approx(1.0)  # median of lognormal(0, .5)
    assert out[1, 0] == -1.0
    assert np.all(out[:, 1] > 0)
