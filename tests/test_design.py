import numpy as np
import pytest

from gpcal import (ConfigError, halton_sequence, lhs_design, maximin_lhs,
                   sobol_sequence)
from gpcal.spaces import ParameterSpace


def unit_space(d):
    return ParameterSpace([f"x{k}" for k in range(d)], np.zeros(d), np.ones(d))


# ---------------------------------------------------------------- LHS

def test_lhs_single_point_any_seed():
    for seed in (0, 1, 99):
        d = lhs_design(1, unit_space(3), seed=seed)
        assert d.points.shape == (1, 3)
        assert np.all((d.points >= 0) & (d.points <= 1))


def test_lhs_one_point_per_stratum_1d():
    d = lhs_design(4, unit_space(1), seed=7)
    strata = np.floor(np.sort(d.points[:, 0]) * 4).astype(int)
    assert strata.tolist() == [0, 1, 2, 3]


def test_lhs_marginal_stratification_50x4():
    n = 50
    d = lhs_design(n, unit_space(4), seed=1)
    for k in range(4):
        counts = np.histogram(d.points[:, k], bins=n, range=(0.0, 1.0))[0]
        assert counts.tolist() == [1] * n


def test_lhs_determinism_and_midpoint():
    a = lhs_design(20, unit_space(3), seed=11)
    b = lhs_design(20, unit_space(3), seed=11)
    assert np.array_equal(a.points, b.points)
    c = lhs_design(20, unit_space(3), seed=12)
    assert not np.array_equal(a.points, c.points)
    mid = lhs_design(5, unit_space(1), seed=0, midpoint=True)
    assert set(np.round(np.sort(mid.points[:, 0]), 10)) == {0.1, 0.3, 0.5, 0.7, 0.9}


def test_lhs_rejects_zero():
    with pytest.raises(ConfigError):
        lhs_design(0, unit_space(2), seed=0)


# ---------------------------------------------------------------- maximin

def test_maximin_two_points_1d_separated():
    d = maximin_lhs(2, unit_space(1), n_restarts=20, seed=3)
    assert d.min_distance() >= 0.25


def test_maximin_single_restart_equals_lhs():
    a = maximin_lhs(10, unit_space(2), n_restarts=1, seed=5)
    b = lhs_design(10, unit_space(2), seed=5)
    assert np.array_equal(a.points, b.points)


def test_maximin_dominates_plain_lhs():
    best = maximin_lhs(10, unit_space(2), n_restarts=50, seed=5)
    single = lhs_design(10, unit_space(2), seed=5)
    assert best.min_distance() >= single.min_distance()
    # dominance over every candidate it examined
    for i in range(50):
        cand = lhs_design(10, unit_space(2), seed=5 + i)
        assert best.min_distance() >= cand.min_distance()


def test_maximin_keeps_stratification():
    d = maximin_lhs(12, unit_space(3), n_restarts=10, seed=2)
    for k in range(3):
        counts = np.histogram(d.points[:, k], bins=12, range=(0.0, 1.0))[0]
        assert counts.tolist() == [1] * 12


# ---------------------------------------------------------------- Sobol

def _sobol_gray_code_oracle(n, d):
    """Brute-force Sobol generation from direction numbers (Joe-Kuo values
    for dimensions 1-3), Gray-code order, origin point dropped."""
    bits = 32
    vs = []
    # dimension 1: van der Corput base 2
    vs.append([1 << (bits - k) for k in range(1, bits + 1)])
    if d >= 2:  # s=1, a=0, m=(1)
        v = [1 << (bits - 1)]
        for k in range(1, bits):
            prev = v[k - 1]
            v.append(prev ^ (prev >> 1))
        vs.append(v)
    if d >= 3:  # s=2, a=1, m=(1, 3)
        v = [1 << (bits - 1), 3 << (bits - 2)]
        for k in range(2, bits):
            pv = v[k - 2]
            v.append(pv ^ (pv >> 2) ^ v[k - 1])
        vs.append(v)
    if d > 3:
        raise ValueError("oracle implements d <= 3")
    pts = np.empty((n, d))
    state = [0] * d
    for i in range(1, n + 1):
        # lowest set bit of i gives the Gray-code flip index
        j = (i & -i).bit_length()
        for k in range(d):
            state[k] ^= vs[k][j - 1]
            pts[i - 1, k] = state[k] / 2.0 ** bits
    return pts


def test_sobol_first_point_is_half():
    d = sobol_sequence(1, unit_space(1))
    assert d.points[0, 0] == 0.5


def test_sobol_matches_gray_code_oracle():
    got = sobol_sequence(64, unit_space(3)).points
    want = _sobol_gray_code_oracle(64, 3)
    assert np.max(np.abs(got - want)) == 0.0
    assert got[:4, 0].tolist() == [0.5, 0.75, 0.25, 0.375]


def test_sobol_sequential_extension_and_skip():
    a = sobol_sequence(10, unit_space(2)).points
    b = sobol_sequence(11, unit_space(2)).points
    assert np.array_equal(a, b[:10])
    skipped = sobol_sequence(5, unit_space(2), skip=3).points
    assert np.array_equal(skipped, b[3:8])


def test_sobol_dimension_limit():
    from scipy.stats import qmc

    from gpcal.design import SOBOL_MAX_DIM
    assert SOBOL_MAX_DIM == qmc.Sobol.MAXDIM
    names = [f"x{i}" for i in range(SOBOL_MAX_DIM + 1)]
    space = ParameterSpace(names, np.zeros(len(names)), np.ones(len(names)))
    with pytest.raises(ConfigError):
        sobol_sequence(2, space)


def _box_count_discrepancy(pts):
    grid = np.linspace(0.05, 1.0, 20)
    n = pts.shape[0]
    worst = 0.0
    for a in grid:
        for b in grid:
            frac = np.mean((pts[:, 0] < a) & (pts[:, 1] < b))
            worst = max(worst, abs(frac - a * b))
    return worst


def test_sobol_beats_uniform_on_box_discrepancy():
    sob = sobol_sequence(1000, unit_space(2)).points
    uni = np.random.default_rng(42).uniform(size=(1000, 2))
    assert _box_count_discrepancy(sob) < _box_count_discrepancy(uni)


# ---------------------------------------------------------------- Halton

def test_halton_base2_values():
    d = halton_sequence(3, unit_space(1))
    assert d.points[:, 0].tolist() == [0.5, 0.25, 0.75]


def test_halton_two_dims():
    d = halton_sequence(2, unit_space(2))
    assert np.allclose(d.points, [[0.5, 1 / 3], [0.25, 2 / 3]], rtol=0, atol=1e-15)


def test_halton_empty_and_sequential():
    empty = halton_sequence(0, unit_space(2), skip=5)
    assert empty.m == 0
    a = halton_sequence(7, unit_space(3)).points
    b = halton_sequence(9, unit_space(3)).points
    assert np.array_equal(a, b[:7])
    skipped = halton_sequence(4, unit_space(3), skip=2).points
    assert np.array_equal(skipped, b[2:6])

