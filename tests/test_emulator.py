import itertools
import json
import math
import warnings

import numpy as np
import pytest

from scipy.linalg import cho_factor, solve_triangular
from scipy.optimize import minimize

import gpcal.emulator
from gpcal import (ConfigError, DataError, ExtrapolationWarning, FitError,
                   FittedEmulator, IllConditionedError, KernelSpec,
                   NumericalWarning, TrainingSet, TrendSpec, fit_cv, fit_mle,
                   lhs_design)
from gpcal.design import _lhs_points
from gpcal.diagnostics import cross_validated_predictions
from gpcal.emulator import (_BIG, _GLS, _concentrated_nll, _cv_heldout, _fold_layout,
                            _gram, _multistart, make_folds)
from gpcal.kernels import (KERNEL_KINDS, CorrelationMatrix, SiteDistances,
                           _cross_factors, _tri_solve, correlation_matrix,
                           cross_corr_matrix)
from gpcal.spaces import ParameterSpace

from conftest import (cross_rows, dense_oracle_predict, oracle_corr_matrix,
                      random_instance)


def raw_training(x, y):
    return TrainingSet(x, y, scale_inputs=False, standardize_outputs=False)


def identity_R(m, nugget=0.0):
    return CorrelationMatrix(np.eye(m) + nugget * np.eye(m), nugget)


# ------------------------------------------------ GLS trend and variance

def test_gls_constant_trend_identity_R_gives_mean(rng):
    # unit-spaced sites at a tiny length-scale: R is the identity
    y = rng.normal(2.0, 1.0, 8)
    tr = raw_training(np.arange(8.0).reshape(-1, 1), y)
    assert np.array_equal(oracle_corr_matrix("gaussian", [1e-3], [2.0], tr.X, tr.X),
                          np.eye(8))
    em = FittedEmulator(tr, TrendSpec("constant"), KernelSpec("gaussian", [1e-3]),
                        nugget=0.0)
    assert em.hyper.beta[0] == pytest.approx(y.mean(), abs=1e-12)


def test_gls_two_by_two_symbolic_oracle():
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    kernel = KernelSpec("gaussian", [1.0])
    em = FittedEmulator(raw_training(x, y), TrendSpec("constant"), kernel, nugget=0.0)
    # (1' R^-1 1)^-1 1' R^-1 y for 2x2 correlation with equal diagonals
    # reduces to the plain average
    want = (y[0] + y[1]) / 2.0
    assert em.hyper.beta[0] == pytest.approx(want, abs=1e-12)
    # full symbolic check with a linear trend
    x = np.array([[0.0], [0.4], [1.0]])
    y = np.array([1.0, 3.0, 2.0])
    F = np.column_stack([np.ones(3), x[:, 0]])
    Rinv = np.linalg.inv(oracle_corr_matrix("gaussian", [1.0], [2.0], x, x))
    want_full = np.linalg.solve(F.T @ Rinv @ F, F.T @ Rinv @ y)
    em = FittedEmulator(raw_training(x, y), TrendSpec("linear"), kernel, nugget=0.0)
    assert np.allclose(em.hyper.beta, want_full, rtol=0, atol=1e-12)


def test_gls_exact_fit_invariance(rng):
    x = rng.uniform(0, 1, (9, 2))
    c = np.array([0.7, -1.2, 2.5])
    tr_tmp = TrainingSet(x, np.zeros(9))  # to get scaled X for basis
    F = TrendSpec("linear").build_matrix(tr_tmp.X)
    y = F @ c
    tr = TrainingSet(x, y, standardize_outputs=False)
    em = FittedEmulator(tr, TrendSpec("linear"), KernelSpec("matern_5_2", [0.5, 0.5]),
                        nugget=1e-10)
    assert np.allclose(em.hyper.beta, c, rtol=0, atol=1e-9)


def test_gls_rank_deficient_rejected():
    x = np.column_stack([np.linspace(0, 1, 6), np.full(6, 0.5)])
    tr = raw_training(x, np.arange(6.0))
    with pytest.raises(DataError, match="rank-deficient"):
        FittedEmulator(tr, TrendSpec("linear"), KernelSpec("gaussian", [1e-3, 1e-3]),
                       nugget=0.0)


def test_sigma2_zero_residual_degenerate(rng):
    x = rng.uniform(0, 1, (5, 1))
    tr = raw_training(x, np.full(5, 3.3))
    trend = TrendSpec("known_constant", mu=3.3)
    assert _GLS(tr, trend, identity_R(5)).sigma2() == 0.0


def test_sigma2_single_point_constant_trend():
    tr = raw_training(np.array([[0.5]]), np.array([4.2]))
    assert _GLS(tr, TrendSpec("constant"), identity_R(1)).sigma2() == 0.0


def test_sigma2_identity_R_is_mean_square_residual():
    # sites 0.5 apart at a tiny length-scale: R is the identity
    y = np.array([1.0, 2.0, 6.0])
    tr = raw_training(np.array([[0.0], [0.5], [1.0]]), y)
    got = FittedEmulator(tr, TrendSpec("constant"), KernelSpec("gaussian", [1e-3]),
                         nugget=0.0).hyper.sigma2
    want = np.sum((y - y.mean()) ** 2) / 3.0  # divide by m, not m-1
    assert got == pytest.approx(want, abs=1e-14)


# ----------------------------------------------- concentrated likelihood

def test_nll_identity_R_closed_form(rng):
    # far-apart points + tiny length-scale: R is numerically the identity
    x = np.arange(6.0).reshape(-1, 1)
    y = rng.normal(0, 2, 6)
    tr = raw_training(x, y)
    spec = KernelSpec("gaussian", [1e-3])
    got = _concentrated_nll(tr, TrendSpec("constant"), spec, 0.0, tr.X)
    s2 = np.sum((y - y.mean()) ** 2) / 6.0
    want = 3.0 * math.log(2 * math.pi * s2) + 3.0
    assert got == pytest.approx(want, abs=1e-10)


def test_nll_matches_unconcentrated_likelihood(rng):
    x = np.array([[0.2], [0.7]])
    y = np.array([1.0, 2.5])
    tr = raw_training(x, y)
    spec = KernelSpec("gaussian", [0.4])
    got = _concentrated_nll(tr, TrendSpec("constant"), spec, 0.0, tr.X)
    R = oracle_corr_matrix("gaussian", [0.4], [2.0], x, x)
    Rinv = np.linalg.inv(R)
    one = np.ones(2)
    beta = (one @ Rinv @ y) / (one @ Rinv @ one)
    resid = y - beta
    s2 = resid @ Rinv @ resid / 2.0
    m = 2
    want = (0.5 * m * math.log(2 * math.pi) + 0.5 * math.log(np.linalg.det(R))
            + m * math.log(math.sqrt(s2)) + resid @ Rinv @ resid / (2 * s2))
    assert got == pytest.approx(want, abs=1e-10)


def test_nll_output_scaling_shifts_value_not_argmin(rng):
    x = np.sort(rng.uniform(0, 1, 12)).reshape(-1, 1)
    y = np.sin(5.0 * x[:, 0]) + 0.1 * rng.normal(size=12)
    c = 4.0
    grid = np.geomspace(0.02, 2.0, 25)
    tr1 = TrainingSet(x, y)
    tr2 = TrainingSet(x, c * y)
    vals1, vals2 = [], []
    for w in grid:
        spec = KernelSpec("gaussian", [w])
        vals1.append(_concentrated_nll(tr1, TrendSpec("constant"), spec, 1e-10, tr1.X))
        vals2.append(_concentrated_nll(tr2, TrendSpec("constant"), spec, 1e-10, tr2.X))
    vals1, vals2 = np.array(vals1), np.array(vals2)
    assert np.argmin(vals1) == np.argmin(vals2)
    shifts = vals2 - vals1
    assert np.allclose(shifts, 12 * math.log(c), rtol=0, atol=1e-9)


def test_nll_with_fit_distances_is_bit_identical(rng):
    # the multistart L-BFGS-B follows the last bit of the objective, so the
    # fit's cached distances must not change a single one, including at the
    # omega bound corners the optimizer visits
    X = rng.uniform(0, 1, (60, 3))
    tr = TrainingSet(X, np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2])
    sites = SiteDistances(tr.X)
    corners = ([1e-3] * 3, [1e3] * 3, [1e3, 1e-3, 1e-3], [1e-3, 1e3, 1e3],
               [0.3, 0.7, 2.0])
    for kind in ("matern_5_2", "gaussian", "power_exponential"):
        for omega in corners:
            spec = KernelSpec(kind, omega)
            for trend in (TrendSpec("constant"), TrendSpec("linear")):
                assert (_concentrated_nll(tr, trend, spec, 1e-10, sites)
                        == _concentrated_nll(tr, trend, spec, 1e-10, tr.X))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cross_layout_nll_is_bit_identical_to_the_plain_path(kind, rng):
    # on a cross layout the objective broadcasts the kernel factors and
    # factors the matrix in place; neither may move a bit of the value
    X = cross_rows(rng.uniform(0, 10, (6, 1)), rng.uniform(0, 1, (9, 2)))
    tr = TrainingSet(X, X[:, 0] * X[:, 1] + X[:, 2])
    sites = SiteDistances(tr.X)
    assert sites._layout == (1, 9)
    p = [0.5, 1.0, 2.0] if kind == "power_exponential" else None
    for omega in ([0.3, 0.7, 2.0], [1e-3] * 3, [1e3] * 3, [1e3, 1e-3, 0.5]):
        spec = KernelSpec(kind, omega, p)
        for trend in (TrendSpec("constant"), TrendSpec("linear")):
            try:
                want = _concentrated_nll(tr, trend, spec, 1e-10, tr.X)
            except IllConditionedError:
                with pytest.raises(IllConditionedError):
                    _concentrated_nll(tr, trend, spec, 1e-10, sites)
                continue
            assert _concentrated_nll(tr, trend, spec, 1e-10, sites) == want
            assert want == dense_scipy_nll(tr, trend, spec, 1e-10)


def dense_scipy_nll(training, trend, spec, nugget):
    """The concentrated NLL from scipy's factor of the plain kernel matrix,
    no entry zeroed, in the expressions the GLS algebra uses."""
    m = training.m
    values = cross_corr_matrix(training.X, training.X, spec)
    np.fill_diagonal(values, 1.0 + nugget)
    c = cho_factor(values, lower=True)[0]
    L = np.ascontiguousarray(c)
    F = trend.build_matrix(training.X)
    G = solve_triangular(L, F, lower=True)
    Q, Rq = np.linalg.qr(G)
    beta = solve_triangular(Rq, Q.T @ solve_triangular(L, training.y, lower=True),
                            lower=False)
    z = solve_triangular(L, training.y - F @ beta, lower=True)
    s2 = max(float(z @ z) / m, np.finfo(float).tiny)
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return (0.5 * m * math.log(2.0 * math.pi * s2) + 0.5 * logdet + 0.5 * m
            + m * math.log(training.y_scale))


def subnormal_count(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(float).tiny)))


def test_fit_mle_path_nll_is_bit_identical_to_an_unflushed_dense_factor(monkeypatch):
    # correlations below eps**2 are zeroed before factoring, which keeps the
    # Cholesky out of subnormal arithmetic at the small-omega end of the box;
    # every objective value the multistart sees must stay what scipy's
    # factor of the plain matrix gives
    x = np.linspace(0.0, 10.0, 8)[:, None]
    theta = 1.0 + 2.0 * lhs_design(10, ParameterSpace(["a", "b"], [0, 0], [1, 1]),
                                   seed=1).points
    X = np.hstack([np.repeat(x, 10, axis=0), np.tile(theta, (8, 1))])
    tr = TrainingSet(X, X[:, 1] * X[:, 0] + X[:, 2])
    trend = TrendSpec("constant")
    seen = []
    real = gpcal.emulator._concentrated_nll

    def spy(training, trend, spec, nugget, sites):
        seen.append((spec, real(training, trend, spec, nugget, sites)))
        return seen[-1][1]

    monkeypatch.setattr(gpcal.emulator, "_concentrated_nll", spy)
    fit_mle(tr, trend, "matern_5_2", n_restarts=3, seed=1)
    assert len(seen) > 400
    for spec, value in seen:
        assert value == dense_scipy_nll(tr, trend, spec, 1e-10)
    corners = [spec for spec, _ in seen if np.isclose(spec.omega, 1e-3).any()]
    assert corners
    sites = SiteDistances(tr.X)
    for spec in corners:
        R = correlation_matrix(sites, spec, 1e-10)
        assert subnormal_count(R._cho[0]) == 0
        assert subnormal_count(cho_factor(R.values, lower=True)[0]) > 0


def test_fit_mle_result_shares_no_memory_with_its_sites(rng, monkeypatch):
    # the fit's SiteDistances is dropped when it returns, so nothing the
    # fitted emulator keeps may point into it
    made = []

    class Recorded(SiteDistances):
        def __init__(self, X):
            super().__init__(X)
            made.append(self)

    monkeypatch.setattr(gpcal.emulator, "SiteDistances", Recorded)
    X = rng.uniform(0, 1, (30, 3))
    em = fit_mle(TrainingSet(X, np.sin(3.0 * X[:, 0]) + X[:, 1]),
                 TrendSpec("linear"), "matern_5_2", n_restarts=2, seed=1)
    (sites,) = made
    held = [*sites._inverse, *sites._distinct]
    gls = em._gls
    kept = [gls.R.values, *gls.R._cho[:1], gls.R._L, gls.R.nugget, gls.F,
            gls.G, gls.Rq, gls.beta, gls.resid, gls.alpha, *vars(em.hyper).values()]
    for a in kept:
        assert a is not None and not any(np.shares_memory(a, b) for b in held)


def test_fits_never_share_distances(rng, monkeypatch):
    # as gpbias then gpcode in one process: same shape, different sites
    seen = []
    real = gpcal.emulator.correlation_matrix

    def spy(X, *args, **kwargs):
        seen.append(X)
        return real(X, *args, **kwargs)

    monkeypatch.setattr(gpcal.emulator, "correlation_matrix", spy)
    trainings = [TrainingSet(x, np.sin(4.0 * x[:, 0]) + x[:, 1])
                 for x in (rng.uniform(0, 1, (20, 2)) for _ in range(2))]
    used = []
    for tr in trainings:
        del seen[:]
        fit_mle(tr, TrendSpec("constant"), "matern_5_2", n_restarts=2, seed=3)
        cached = [X for X in seen if isinstance(X, SiteDistances)]
        assert cached and all(X is cached[0] for X in cached)
        for u, inv, x in zip(cached[0]._distinct, cached[0]._inverse, tr.X.T):
            assert np.array_equal(u[inv], np.abs(x[:, None] - x[None, :]))
        used.append(cached[0])
    assert used[0] is not used[1]


# ----------------------------------------------------------- prediction

def test_interpolation_at_training_sites(rng):
    for _ in range(15):
        em = random_instance(rng, nugget=0.0)
        tr = em.training
        means, mses = em.predict_batch(tr.x_phys, warn_extrapolation=False)
        assert np.all(np.abs(means - tr.y_phys) <= 1e-8 * (1 + np.abs(tr.y_phys)))
        assert np.all(mses <= 1e-8 * em.process_variance)


def test_simple_kriging_far_point_reverts_to_prior():
    x = np.linspace(0, 1, 6).reshape(-1, 1)
    y = 2.0 + np.sin(3 * x[:, 0])
    tr = TrainingSet(x, y)
    em = FittedEmulator(tr, TrendSpec("known_constant", mu=2.0),
                        KernelSpec("gaussian", [0.1]), nugget=0.0)
    (mean,), (mse,) = em.predict_batch(np.array([[50.0]]), warn_extrapolation=False)
    assert mean == pytest.approx(2.0, abs=1e-10)
    assert mse == pytest.approx(em.process_variance, rel=1e-10)


def test_predict_matches_dense_oracle(rng):
    for _ in range(25):
        em = random_instance(rng, nugget=0.0)
        for _ in range(3):
            x_star = rng.uniform(0, 1, em.dim)
            (mean,), (mse,) = em.predict_batch(x_star[None], warn_extrapolation=False)
            o_mean, o_mse16, o_mse17 = dense_oracle_predict(em, x_star)
            scale = max(1.0, abs(o_mean))
            assert abs(mean - o_mean) <= 1e-9 * scale
            vscale = max(em.process_variance, abs(o_mse17))
            assert abs(mse - o_mse17) <= 1e-9 * vscale
            assert abs(o_mse16 - o_mse17) <= 1e-9 * vscale


def test_simple_kriging_matches_dense_oracle(rng):
    space = ParameterSpace(["x"], [0.0], [1.0])
    x = lhs_design(7, space, seed=21).to_physical()
    y = 1.5 + np.cos(4 * x[:, 0])
    tr = TrainingSet(x, y)
    em = FittedEmulator(tr, TrendSpec("known_constant", mu=1.4),
                        KernelSpec("matern_3_2", [0.3]), nugget=0.0)
    for x_star in ([0.33], [0.71], [0.05]):
        (mean,), (mse,) = em.predict_batch(np.array([x_star]),
                                           warn_extrapolation=False)
        o_mean, o_mse, _ = dense_oracle_predict(em, x_star)
        assert mean == pytest.approx(o_mean, abs=1e-9 * max(1, abs(o_mean)))
        assert mse == pytest.approx(o_mse, abs=1e-9 * em.process_variance)


def test_predict_batch_consistency(rng):
    em = random_instance(rng, nugget=0.0)
    pts = rng.uniform(0, 1, (4, em.dim))
    means, mses = em.predict_batch(pts, warn_extrapolation=False)
    for i in range(4):
        (m1,), (v1,) = em.predict_batch(pts[i][None], warn_extrapolation=False)
        assert abs(m1 - means[i]) <= 1e-12 * max(1, abs(m1))
        assert abs(v1 - mses[i]) <= 1e-12 * max(1e-30, v1)


def test_predict_batch_covariance(rng):
    em = random_instance(rng, nugget=0.0)
    pts = rng.uniform(0.05, 0.95, (3, em.dim))
    pts = np.vstack([pts, pts[1]])  # duplicated point
    means, mses, cov = em.predict_batch(pts, with_covariance=True,
                                        warn_extrapolation=False)
    assert np.allclose(np.diag(cov), mses, rtol=0, atol=0)
    assert np.max(np.abs(cov - cov.T)) == 0.0
    # duplicated point: covariance equals variance
    assert cov[1, 3] == pytest.approx(mses[1], rel=1e-9, abs=1e-12)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() >= -1e-8 * em.process_variance


def test_predict_batch_covariance_vs_dense_oracle(rng):
    space = ParameterSpace(["x"], [0.0], [1.0])
    x = lhs_design(8, space, seed=33).to_physical()
    y = np.sin(6 * x[:, 0])
    em = FittedEmulator(TrainingSet(x, y), TrendSpec("constant"),
                        KernelSpec("gaussian", [0.15]), nugget=0.0)
    pts = np.array([[0.21], [0.52], [0.83]])
    _, _, cov = em.predict_batch(pts, with_covariance=True,
                                 warn_extrapolation=False)
    tr = em.training
    spec = em.kernel
    R = oracle_corr_matrix(spec.kind, spec.omega, spec.p, tr.X, tr.X)
    Rinv = np.linalg.inv(R)
    F = np.ones((8, 1))
    pts_s = tr.scale_x(pts)
    rmat = oracle_corr_matrix(spec.kind, spec.omega, spec.p, tr.X, pts_s)
    Rss = oracle_corr_matrix(spec.kind, spec.omega, spec.p, pts_s, pts_s)
    U = F.T @ Rinv @ rmat - np.ones((1, 3))
    want = em.hyper.sigma2 * (Rss - rmat.T @ Rinv @ rmat
                              + U.T @ np.linalg.inv(F.T @ Rinv @ F) @ U)
    want *= tr.y_scale ** 2
    assert np.max(np.abs(cov - want)) <= 1e-9 * em.process_variance


def test_confidence_interval_arithmetic(rng):
    em = random_instance(rng)
    (mean,), (mse,) = em.predict_batch(np.full((1, em.dim), 0.4),
                                       warn_extrapolation=False)
    half = 1.96 * math.sqrt(mse)
    assert (mean + half) - (mean - half) == pytest.approx(2 * 1.96 * math.sqrt(mse))


def test_extrapolation_warning():
    x = np.linspace(0, 1, 5).reshape(-1, 1)
    em = FittedEmulator(TrainingSet(x, np.sin(x[:, 0])), TrendSpec("constant"),
                        KernelSpec("gaussian", [0.3]))
    with pytest.warns(ExtrapolationWarning):
        em.predict_batch(np.array([[2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        em.predict_batch(np.array([[0.5]]))
        em.predict_batch(np.array([[2.0]]), warn_extrapolation=False)


def test_dimension_mismatch_rejected(rng):
    em = random_instance(rng)
    with pytest.raises(DataError):
        em.predict_batch(np.zeros((1, em.dim + 1)))


# ------------------------------------------------------------ invariants

def test_output_shift_equivariance(rng):
    x = rng.uniform(0, 1, (10, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1]
    spec = KernelSpec("gaussian", [0.4, 0.4])
    em1 = FittedEmulator(TrainingSet(x, y), TrendSpec("constant"), spec)
    em2 = FittedEmulator(TrainingSet(x, y + 17.5), TrendSpec("constant"), spec)
    pts = rng.uniform(0, 1, (6, 2))
    m1, v1 = em1.predict_batch(pts, warn_extrapolation=False)
    m2, v2 = em2.predict_batch(pts, warn_extrapolation=False)
    assert np.allclose(m2 - m1, 17.5, rtol=0, atol=1e-10)
    assert np.allclose(v1, v2, rtol=1e-10, atol=1e-14)


def test_row_permutation_invariance(rng):
    x = rng.uniform(0, 1, (9, 2))
    y = np.cos(2 * x[:, 0]) - x[:, 1] ** 2
    spec = KernelSpec("matern_5_2", [0.5, 0.7])
    perm = rng.permutation(9)
    em1 = FittedEmulator(TrainingSet(x, y), TrendSpec("linear"), spec)
    em2 = FittedEmulator(TrainingSet(x[perm], y[perm]), TrendSpec("linear"), spec)
    pts = rng.uniform(0, 1, (5, 2))
    m1, v1 = em1.predict_batch(pts, warn_extrapolation=False)
    m2, v2 = em2.predict_batch(pts, warn_extrapolation=False)
    assert np.allclose(m1, m2, rtol=1e-12, atol=1e-12)
    assert np.allclose(v1, v2, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("kind", ["custom", "quadratic", "Constant"])
def test_trend_spec_rejects_an_unknown_kind(kind):
    with pytest.raises(ConfigError, match="unknown trend kind"):
        TrendSpec(kind)


@pytest.mark.parametrize("kind, columns", [
    ("known_constant", lambda X: np.empty((X.shape[0], 0))),
    ("constant", lambda X: np.ones((X.shape[0], 1))),
    ("linear", lambda X: np.column_stack([np.ones(X.shape[0]), X]))],
    ids=["known_constant", "constant", "linear"])
def test_trend_basis_matrix(kind, columns, rng):
    trend = TrendSpec(kind)
    for d in (1, 3):
        Xs = rng.uniform(0, 1, (6, d))
        F = trend.build_matrix(Xs)
        assert F.shape == (6, trend.n_basis(d))
        assert np.array_equal(F, columns(Xs))
    assert trend.to_dict() == {"kind": kind, "mu": 0.0}


def literal_conditioning(training, trend, kernel, nugget, x_star):
    """beta, sigma2 and the predict_batch mean/MSE/covariance of a conditioned
    GP, written out expression for expression as they stood before the GLS
    algebra had one home: the multistart follows the last bit of the
    objective, so the shared code must reproduce every one of them."""
    R = correlation_matrix(training.X, kernel, nugget)

    def trend_values(beta, Xs):
        if trend.kind == "known_constant":
            return np.full(Xs.shape[0], training.mu_std(trend.mu))
        return trend.build_matrix(Xs) @ beta

    F = trend.build_matrix(training.X)
    if F.shape[1] == 0:
        beta = np.empty(0)
    else:
        G = R.half_solve(F)
        z = R.half_solve(training.y)
        Q, Rq = np.linalg.qr(G)
        beta = solve_triangular(Rq, Q.T @ z, lower=False)
    z = R.half_solve(training.y - trend_values(beta, training.X))
    s2 = float(z @ z) / training.m
    resid_solve = R.solve(training.y - trend_values(beta, training.X))
    Xs = training.scale_x(x_star)
    rmat = cross_corr_matrix(training.X, Xs, kernel)
    mean_std = trend_values(beta, Xs) + rmat.T @ resid_solve
    Z = R.half_solve(rmat)
    var_red = np.einsum("ij,ij->j", Z, Z)
    W, trend_term = None, 0.0
    if F.shape[1]:
        G = R.half_solve(F)
        Q, Rq = np.linalg.qr(G)
        U = G.T @ Z - trend.build_matrix(Xs).T
        W = solve_triangular(Rq.T, U, lower=True)
        trend_term = np.einsum("ij,ij->j", W, W)
    mse_std = np.maximum(s2 * (1.0 - var_red + trend_term), 0.0)
    cov_std = s2 * (cross_corr_matrix(Xs, Xs, kernel) - Z.T @ Z)
    if W is not None:
        cov_std += s2 * (W.T @ W)
    cov_std = 0.5 * (cov_std + cov_std.T)
    np.fill_diagonal(cov_std, mse_std)
    ys = training.y_scale
    return (R, beta, s2, mean_std * ys + training.y_mean, mse_std * ys ** 2,
            cov_std * ys ** 2)


@pytest.mark.parametrize("trend", [
    TrendSpec("known_constant", mu=0.3), TrendSpec("constant"),
    TrendSpec("linear")], ids=["known_constant", "constant", "linear"])
def test_conditioning_is_bit_identical_to_literal_algebra(trend, rng):
    x = rng.uniform(0, 2, (18, 2))
    tr = TrainingSet(x, np.sin(2.0 * x[:, 0]) + x[:, 0] * x[:, 1] + 4.0)
    x_star = rng.uniform(0, 2, (7, 2))
    for kernel, nugget in ((KernelSpec("matern_5_2", [0.4, 0.9]), 1e-10),
                           (KernelSpec("gaussian", [0.3, 0.2]),
                            rng.uniform(1e-8, 1e-6, 18))):
        R, beta, s2, mean, mse, cov = literal_conditioning(tr, trend, kernel,
                                                           nugget, x_star)
        em = FittedEmulator(tr, trend, kernel, nugget=nugget)
        assert np.array_equal(em.hyper.beta, beta)
        assert em.hyper.sigma2 == s2
        got = em.predict_batch(x_star, with_covariance=True,
                               warn_extrapolation=False)
        assert np.array_equal(got[0], mean)
        assert np.array_equal(got[1], mse)
        assert np.array_equal(got[2], cov)


@pytest.mark.parametrize("trend", [
    TrendSpec("constant"), TrendSpec("linear")], ids=["constant", "linear"])
def test_tri_solve_on_the_trend_qr_factor_matches_solve_triangular(trend, rng):
    # Rq from np.linalg.qr is C-ordered (1 x 1 for the constant trend, so
    # also F-ordered): beta solves with Rq, predict with the F-ordered Rq.T
    x = rng.uniform(0, 2, (18, 2))
    tr = TrainingSet(x, np.sin(2.0 * x[:, 0]) + x[:, 0] * x[:, 1])
    R = correlation_matrix(tr.X, KernelSpec("matern_5_2", [0.4, 0.9]), 1e-10)
    Q, Rq = np.linalg.qr(R.half_solve(trend.build_matrix(tr.X)))
    n = Rq.shape[0]
    b = rng.normal(size=(n, 7))
    for rhs in (Q.T @ R.half_solve(tr.y), b, np.asfortranarray(b)):
        assert np.array_equal(_tri_solve(Rq, rhs, False),
                              solve_triangular(Rq, rhs, lower=False))
        assert np.array_equal(_tri_solve(Rq.T, rhs, True),
                              solve_triangular(Rq.T, rhs, lower=True))


def test_non_finite_points_are_data_errors(rng):
    # the solves no longer scan their right-hand sides, so the inputs that
    # reach them from outside are checked where they come in
    x = rng.uniform(0, 2, (18, 2))
    tr = TrainingSet(x, np.sin(2.0 * x[:, 0]) + x[:, 0] * x[:, 1])
    kernel = KernelSpec("matern_5_2", [0.4, 0.9])
    em = FittedEmulator(tr, TrendSpec("constant"), kernel)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError, match="must be finite"):
            em.predict_batch([[1.0, 1.0], [bad, 1.0]], warn_extrapolation=False)


# ------------------------------------------------- fixed-row predictor

def _stacked(em, x, theta):
    rows = np.hstack([x, np.tile(theta, (x.shape[0], 1))])
    mean, _, cov = em.predict_batch(rows, with_covariance=True,
                                    warn_extrapolation=False)
    return mean, cov


_KERNELS = [(kind, None) for kind in KERNEL_KINDS if kind != "power_exponential"]
_KERNELS += [("power_exponential", 0.5), ("power_exponential", 2.0)]


@pytest.mark.parametrize("kind,p", _KERNELS,
                         ids=[f"{k}-{p}" if p else k for k, p in _KERNELS])
@pytest.mark.parametrize("trend", [
    TrendSpec("known_constant", mu=0.3), TrendSpec("constant"),
    TrendSpec("linear")], ids=["known_constant", "constant", "linear"])
def test_fixed_rows_predictor_is_bit_identical_to_predict_batch(kind, p, trend,
                                                                rng):
    for dx, dt in ((1, 1), (1, 3), (2, 1), (2, 3)):
        d = dx + dt
        x = rng.uniform(-1.0, 3.0, (30, d))
        y = np.sin(x).sum(axis=1) + x[:, 0] * x[:, -1]
        kernel = KernelSpec(kind, rng.uniform(0.3, 2.0, d),
                            None if p is None else np.full(d, p))
        em = FittedEmulator(TrainingSet(x, y), trend, kernel, nugget=1e-8)
        x_fixed = rng.uniform(-1.0, 3.0, (6, dx))
        predict = em._fixed_rows_predictor(x_fixed)
        # inside the training box, then outside it on both sides
        for theta in (rng.uniform(-1.0, 3.0, dt), rng.uniform(-3.0, -1.5, dt),
                      rng.uniform(3.5, 5.0, dt)):
            (mean,), (cov,) = predict(theta[None])
            want_mean, want_cov = _stacked(em, x_fixed, theta)
            assert np.array_equal(mean, want_mean)
            assert np.array_equal(cov, want_cov)


def _cross_emulator(rng, dx=1, dt=2, kind="matern_5_2", p=None,
                    trend=TrendSpec("linear"), nugget=1e-8, n_x=5, n_t=7):
    u_x = rng.uniform(-1.0, 3.0, (n_x, dx))
    u_t = rng.uniform(-1.0, 3.0, (n_t, dt))
    x = cross_rows(u_x, u_t)
    y = np.sin(x).sum(axis=1) + x[:, 0] * x[:, -1]
    kernel = KernelSpec(kind, rng.uniform(0.3, 2.0, dx + dt),
                        None if p is None else np.full(dx + dt, p))
    return FittedEmulator(TrainingSet(x, y), trend, kernel, nugget=nugget), u_x, u_t


def _never_half_solve(self, b):
    raise AssertionError("the Kronecker predictor called half_solve")


@pytest.mark.parametrize("kind,p", _KERNELS,
                         ids=[f"{k}-{p}" if p else k for k, p in _KERNELS])
@pytest.mark.parametrize("trend", [
    TrendSpec("known_constant", mu=0.3), TrendSpec("constant"),
    TrendSpec("linear")], ids=["known_constant", "constant", "linear"])
@pytest.mark.parametrize("dx,dt", [(1, 1), (1, 2), (2, 3)])
def test_fixed_rows_predictor_on_a_cross_design_matches_the_dense_predictor(
        kind, p, trend, dx, dt, rng, monkeypatch):
    em, u_x, u_t = _cross_emulator(rng, dx, dt, kind, p, trend)
    sd = float(np.std(em.training.y_phys))
    for x_fixed in (u_x[[3, 0, 1]], rng.uniform(-1.0, 3.0, (4, dx))):
        # next to a training theta, inside the training box, then outside
        # it on both sides
        thetas = (u_t[2] + 1e-3, rng.uniform(-1.0, 3.0, dt),
                  rng.uniform(-3.0, -1.5, dt), rng.uniform(3.5, 5.0, dt))
        with monkeypatch.context() as patched:
            patched.setattr(CorrelationMatrix, "half_solve", _never_half_solve)
            predict = em._fixed_rows_predictor(x_fixed)
            got = [predict(theta[None]) for theta in thetas]
        for theta, ((mean,), (cov,)) in zip(thetas, got):
            want_mean, want_cov = _stacked(em, x_fixed, theta)
            assert np.all(np.abs(mean - want_mean)
                          <= 1e-8 * np.maximum(np.abs(want_mean), sd))
            assert np.abs(cov - want_cov).max() <= 1e-9 * em.process_variance
            assert np.array_equal(cov, cov.T)


def _per_point_nugget(rng):
    em, u_x, u_t = _cross_emulator(rng)
    nugget = np.full(em.m, 1e-8)
    nugget[4] = 1e-6
    return FittedEmulator(em.training, em.trend, em.kernel, nugget=nugget), u_x


def _permuted_rows(rng):
    em, u_x, u_t = _cross_emulator(rng)
    order = rng.permutation(em.m)
    return FittedEmulator(TrainingSet(em.training.x_phys[order],
                                      em.training.y_phys[order]),
                          em.trend, em.kernel, nugget=1e-8), u_x


def _repeated_theta(rng):
    # the product layout, but one theta row twice
    u_x = rng.uniform(-1.0, 3.0, (4, 1))
    u_t = rng.uniform(-1.0, 3.0, (5, 2))
    u_t[3] = u_t[1]
    x = cross_rows(u_x, u_t)
    return FittedEmulator(TrainingSet(x, np.sin(x).sum(axis=1)), TrendSpec("constant"),
                          KernelSpec("gaussian", [0.5, 0.7, 0.9]), nugget=1e-6), u_x


def _negative_spectrum(rng, monkeypatch):
    em, u_x, _ = _cross_emulator(rng)
    calls = []

    def eigh(A):                       # R_x's smallest eigenvalue made -1
        w, Q = np.linalg.eigh(A)
        if len(calls) % 2 == 0:
            w[0] = -1.0
        calls.append(A)
        return w, Q
    monkeypatch.setattr(gpcal.emulator, "_eigh", eigh)
    em._fixed_rows_predictor(u_x)
    assert len(calls) == 2                      # the layout reached the spectrum
    return em, u_x


# a random design's dense bits: test_fixed_rows_predictor_is_bit_identical_to_predict_batch
_DENSE_CASES = {
    "per-point-nugget": lambda rng, mp: _per_point_nugget(rng),
    "permuted-cross-rows": lambda rng, mp: _permuted_rows(rng),
    "repeated-theta-row": lambda rng, mp: _repeated_theta(rng),
    "nonpositive-spectrum": _negative_spectrum,
}


@pytest.mark.parametrize("case", list(_DENSE_CASES))
def test_fixed_rows_predictor_falls_back_to_the_dense_bits(case, rng, monkeypatch):
    em, x_fixed = _DENSE_CASES[case](rng, monkeypatch)
    predict = em._fixed_rows_predictor(x_fixed)
    dx = x_fixed.shape[1]
    # next to a training theta, where the two paths' rounding differs, then
    # inside and outside the box
    for theta in (em.training.x_phys[1, dx:] + 0.01,
                  rng.uniform(-1.0, 3.0, em.dim - dx), rng.uniform(3.5, 5.0, em.dim - dx)):
        (mean,), (cov,) = predict(theta[None])
        want_mean, want_cov = _stacked(em, x_fixed, theta)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(cov, want_cov)


def test_cross_factors_read_the_layout_from_the_rows(rng):
    u_x = rng.uniform(size=(3, 2))
    u_t = rng.uniform(size=(4, 1))
    x = cross_rows(u_x, u_t)
    got = _cross_factors(x, 2)
    assert np.array_equal(got[0], u_x) and np.array_equal(got[1], u_t)
    assert _cross_factors(x, 1) is None          # the split must match dx
    assert _cross_factors(x, 0) is None and _cross_factors(x, 3) is None
    theta_major = np.hstack([np.tile(u_x, (4, 1)), np.repeat(u_t, 3, axis=0)])
    assert _cross_factors(theta_major, 2) is None
    assert np.array_equal(_cross_factors(x[::-1], 2)[0], u_x[::-1])
    assert _cross_factors(x[:-1], 2) is None     # one row short
    one_x = cross_rows(u_x[:1], u_t)
    assert np.array_equal(_cross_factors(one_x, 2)[1], u_t)


def test_reloaded_cross_emulator_predicts_the_same_bits(rng, monkeypatch):
    em, u_x, _ = _cross_emulator(rng, trend=TrendSpec("constant"))
    again = FittedEmulator.from_dict(em.to_dict())
    monkeypatch.setattr(CorrelationMatrix, "half_solve", _never_half_solve)
    x_fixed = np.vstack([u_x, rng.uniform(-1.0, 3.0, (2, 1))])
    first, second = em._fixed_rows_predictor(x_fixed), again._fixed_rows_predictor(x_fixed)
    for theta in rng.uniform(-2.0, 4.0, (4, 2)):
        for a, b in zip(first(theta[None]), second(theta[None])):
            assert np.array_equal(a, b)


def _check_degenerate(x):
    em = FittedEmulator(TrainingSet(x, np.full(len(x), 4.5)), TrendSpec("constant"),
                        KernelSpec("gaussian", [0.3, 0.3]))
    assert em.degenerate
    x_fixed = np.array([[0.1], [0.7]])
    predict = em._fixed_rows_predictor(x_fixed)
    for theta in ([0.2], [3.0]):
        (mean,), (cov,) = predict([theta])
        want_mean, want_cov = _stacked(em, x_fixed, theta)
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(cov, want_cov)
    _check_theta_size(predict)


def test_fixed_rows_predictor_degenerate_emulator():
    _check_degenerate(np.linspace(0.0, 1.0, 6).reshape(-1, 2))


def test_fixed_rows_predictor_degenerate_cross_emulator():
    _check_degenerate(cross_rows(np.array([[0.1], [0.6], [0.9]]),
                                  np.array([[0.2], [0.5]])))


def _xt_emulator(rng):
    x = rng.uniform(0.0, 1.0, (12, 2))
    return FittedEmulator(TrainingSet(x, np.sin(3.0 * x[:, 0]) + x[:, 1]),
                          TrendSpec("linear"), KernelSpec("matern_5_2", [0.5, 0.7]))


def _check_no_state(predict):
    first = predict([[0.3]])
    predict([[0.8]])[1][:] = 0.0                 # callers may mutate outputs
    again = predict([[0.3]])
    assert np.array_equal(first[0], again[0])
    assert np.array_equal(first[1], again[1])


def _check_theta_size(predict):
    for theta in ([0.1, 0.2], [0.1, 0.2, 0.3]):
        with pytest.raises(DataError):
            predict([theta])


def _cross_predictor(rng):
    em = _cross_emulator(rng, dt=1)[0]
    return em._fixed_rows_predictor(rng.uniform(0.1, 0.9, (4, 1)))


def test_fixed_rows_predictor_keeps_no_state_between_calls(rng):
    _check_no_state(_xt_emulator(rng)._fixed_rows_predictor(rng.uniform(0.1, 0.9, (4, 1))))


def test_fixed_rows_predictor_on_a_cross_design_keeps_no_state_between_calls(rng):
    _check_no_state(_cross_predictor(rng))


def test_fixed_rows_predictor_rejects_wrong_theta_size(rng):
    _check_theta_size(_xt_emulator(rng)._fixed_rows_predictor(rng.uniform(0, 1, (3, 1))))


def test_fixed_rows_predictor_on_a_cross_design_rejects_wrong_theta_size(rng):
    _check_theta_size(_cross_predictor(rng))


# -------------------------------------------------------------- fitting

def test_fit_mle_constant_outputs_short_circuit():
    x = np.linspace(0, 1, 6).reshape(-1, 1)
    em = fit_mle(TrainingSet(x, np.full(6, 7.25)), TrendSpec("constant"))
    assert em.degenerate
    (mean,), (mse,) = em.predict_batch(np.array([[0.43]]), warn_extrapolation=False)
    assert mean == 7.25
    assert mse == 0.0


def test_fit_mle_deterministic(rng):
    x = np.sort(rng.uniform(0, 1, 15)).reshape(-1, 1)
    y = x[:, 0] * np.sin(8 * x[:, 0])
    tr = TrainingSet(x, y)
    em1 = fit_mle(tr, TrendSpec("constant"), "gaussian", n_restarts=3, seed=4)
    em2 = fit_mle(tr, TrendSpec("constant"), "gaussian", n_restarts=3, seed=4)
    assert np.array_equal(em1.hyper.omega, em2.hyper.omega)
    assert em1.hyper.sigma2 == em2.hyper.sigma2
    assert np.array_equal(em1.hyper.beta, em2.hyper.beta)


def test_fit_cv_heldout_matches_literal_two_refit_oracle(rng):
    x = np.array([[0.0], [0.3], [0.6], [1.0]])
    y = np.array([0.5, 1.4, 0.9, 2.0])
    tr = TrainingSet(x, y)
    spec = KernelSpec("gaussian", [0.45])
    labels = make_folds(4, 2, seed=3)
    mu_cv, _ = _cv_heldout(tr, TrendSpec("constant"), spec, 1e-10, _fold_layout(labels),
                           SiteDistances(tr.X))[:2]
    # literal oracle: two explicit-inverse half fits
    want = np.empty(4)
    for k in (0, 1):
        te = labels == k
        Xtr, Xte = tr.X[~te], tr.X[te]
        ytr = tr.y[~te]
        R = oracle_corr_matrix("gaussian", [0.45], [2.0], Xtr, Xtr) \
            + 1e-10 * np.eye(int((~te).sum()))
        Rinv = np.linalg.inv(R)
        one = np.ones(int((~te).sum()))
        beta = (one @ Rinv @ ytr) / (one @ Rinv @ one)
        r = oracle_corr_matrix("gaussian", [0.45], [2.0], Xtr, Xte)
        want[te] = beta + r.T @ Rinv @ (ytr - beta)
    assert np.max(np.abs(mu_cv - want)) <= 1e-10
    objective = float(np.sum((tr.y - mu_cv) ** 2))
    oracle_objective = float(np.sum((tr.y - want) ** 2))
    assert objective == pytest.approx(oracle_objective, abs=1e-10)


def per_fold_heldout(training, trend, spec, nugget, labels):
    """The CV held-out predictions refitted literally, fold by fold: each
    fold's retained sites get their own correlation_matrix(Xtr), GLS trend
    and cross_corr_matrix(Xtr, Xte)."""
    m = training.m
    nug = np.broadcast_to(np.asarray(nugget, float), (m,))
    mu_cv, v_cv = np.empty(m), np.empty(m)
    for k in np.unique(labels):
        te = labels == k
        Xtr, Xte, ytr = training.X[~te], training.X[te], training.y[~te]
        Rk = correlation_matrix(Xtr, spec, nug[~te], auto_escalate=False)
        if trend.kind == "known_constant":
            trend_tr = np.full(Xtr.shape[0], training.mu_std(trend.mu))
            trend_te = np.full(Xte.shape[0], training.mu_std(trend.mu))
            Ftr = None
        else:
            Ftr = trend.build_matrix(Xtr)
            G = Rk.half_solve(Ftr)
            Q, Rq = np.linalg.qr(G)
            beta_k = solve_triangular(Rq, Q.T @ Rk.half_solve(ytr), lower=False)
            trend_tr = Ftr @ beta_k
            trend_te = trend.build_matrix(Xte) @ beta_k
        rte = cross_corr_matrix(Xtr, Xte, spec)
        mu_cv[te] = trend_te + rte.T @ Rk.solve(ytr - trend_tr)
        Z = Rk.half_solve(rte)
        v = (1.0 + nug[te]) - np.einsum("ij,ij->j", Z, Z)
        if Ftr is not None:
            W = solve_triangular(Rq.T, G.T @ Z - trend.build_matrix(Xte).T,
                                 lower=True)
            v = v + np.einsum("ij,ij->j", W, W)
        v_cv[te] = v
    return mu_cv, np.maximum(v_cv, np.finfo(float).tiny)


def cv_case(rng, m=24):
    X = rng.uniform(0, 1, (m, 3))
    return TrainingSet(X, np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2])


def cv_loss(training, mu_cv):
    return float(np.sum((training.y - mu_cv) ** 2))


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cv_heldout_matches_per_fold_refits_to_a_conditioning_tolerance(kind, rng):
    # _cv_heldout factors K = R + diag(nugget) once; the literal per-fold
    # refits factor each fold's block. The two round differently, by an
    # amount that grows with cond(K): every relative error of mu_cv (to the
    # outputs' scale), v_cv and the loss is within 1e-14 + eps cond(K) / 4.
    # Over these cases the errors reach 2.8 eps cond(K) near cond 1 and
    # 0.04 eps cond(K) at cond 2.3e9, at most 0.43 of the tolerance.
    m = 24
    tr = cv_case(rng, m)
    p = [0.7, 1.3, 2.0] if kind == "power_exponential" else None
    nuggets = (1e-8, rng.uniform(1e-8, 1e-6, m))
    sites = SiteDistances(tr.X)
    compared, conds = 0, []
    for omega in ([1e-3] * 3, [0.2, 0.5, 1.4], [1e3, 1e-3, 0.3], [2.0, 5.0, 14.0]):
        spec = KernelSpec(kind, omega, p)
        for trend in (TrendSpec("constant"), TrendSpec("linear"),
                      TrendSpec("known_constant", mu=0.2)):
            for nugget in nuggets:
                for k_folds in (10, m):
                    labels = make_folds(m, k_folds, seed=5)
                    try:
                        want = per_fold_heldout(tr, trend, spec, nugget, labels)
                    except IllConditionedError:
                        with pytest.raises(IllConditionedError):
                            _cv_heldout(tr, trend, spec, nugget, _fold_layout(labels),
                                        sites)
                        continue
                    got = _cv_heldout(tr, trend, spec, nugget, _fold_layout(labels),
                                      sites)[:2]
                    K = correlation_matrix(tr.X, spec, nugget, auto_escalate=False)
                    cond = np.linalg.cond(K.values)
                    tol = 1e-14 + np.finfo(float).eps * cond / 4
                    scale = max(1.0, np.abs(tr.y).max())
                    assert np.abs(got[0] - want[0]).max() <= tol * scale
                    assert np.abs(got[1] / want[1] - 1.0).max() <= tol
                    assert cv_loss(tr, got[0]) == pytest.approx(
                        cv_loss(tr, want[0]), rel=tol, abs=0)
                    compared += 1
                    conds.append(cond)
    assert compared >= 30      # the oracle ran; not every case failed to factor
    if kind in ("gaussian", "matern_3_2", "matern_5_2"):
        assert max(conds) > 1e6    # the ill-conditioned regime is covered


def loss_and_gradient(training, trend, spec, nugget, labels, sites):
    mu_cv, _, grad = _cv_heldout(training, trend, spec, nugget, _fold_layout(labels),
                                 sites)
    return cv_loss(training, mu_cv), grad


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cv_gradient_matches_central_differences(kind, rng):
    # d loss / d log omega in closed form against central differences with
    # h = 1e-5 in log omega, where cond(K) <= 1e6, so the differences hold
    # more digits than the tolerance asks; the linear kind's omega keep every
    # distance below omega, away from its kink at h = omega
    m, h = 20, 1e-5
    tr = cv_case(rng, m)
    sites = SiteDistances(tr.X)
    omega = np.array([1.3, 1.6, 2.0]) if kind == "linear" else np.array([0.3, 0.6, 0.9])
    p = [0.7, 1.3, 2.0] if kind == "power_exponential" else None
    for trend in (TrendSpec("constant"), TrendSpec("linear"),
                  TrendSpec("known_constant", mu=0.2)):
        for nugget in (1e-6, rng.uniform(1e-6, 1e-4, m)):
            assert np.linalg.cond(correlation_matrix(
                tr.X, KernelSpec(kind, omega, p), nugget).values) <= 1e6
            for k_folds in (5, m):
                labels = make_folds(m, k_folds, seed=5)

                def loss(log_omega):
                    return loss_and_gradient(tr, trend, KernelSpec(kind, np.exp(log_omega), p),
                                             nugget, labels, sites)[0]

                _, grad = loss_and_gradient(tr, trend, KernelSpec(kind, omega, p),
                                            nugget, labels, sites)
                t, step = np.log(omega), h * np.eye(3)
                fd = np.array([(loss(t + e) - loss(t - e)) / (2 * h) for e in step])
                assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_cv_heldout_on_a_cross_layout_is_unchanged(kind, rng, monkeypatch):
    # the CV gradient reads the assembled matrix after its factorization, so
    # its matrix keeps the copy-in; a broadcast assembly must give the
    # gathers' value and gradient, from a matrix the factorization left whole
    X = cross_rows(rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (6, 2)))
    tr = TrainingSet(X, np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2])
    broadcast, gathers = SiteDistances(tr.X), SiteDistances(tr.X)
    gathers._layout = None
    seen = []
    real = gpcal.emulator.correlation_matrix

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(gpcal.emulator, "correlation_matrix", spy)
    p = [0.7, 1.3, 2.0] if kind == "power_exponential" else None
    spec = KernelSpec(kind, [1.3, 1.6, 2.0] if kind == "linear" else [0.3, 0.6, 0.9], p)
    labels = make_folds(tr.m, 6, seed=5)
    for trend in (TrendSpec("constant"), TrendSpec("linear")):
        got, want = (_cv_heldout(tr, trend, spec, 1e-6, _fold_layout(labels), s)
                     for s in (broadcast, gathers))
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        plain = cross_corr_matrix(tr.X, tr.X, spec)
        np.fill_diagonal(plain, 1.0 + 1e-6)
        for R in seen:
            assert np.array_equal(R.values, plain)
        del seen[:]


def test_cv_fold_with_duplicate_sites_raises_per_fold():
    x = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.9], [0.8, 0.3],
                  [0.3, 0.6], [0.9, 0.8]])
    tr = TrainingSet(x, np.array([1.0, 1.0, 0.2, -0.4, 0.7, 0.1]))
    spec = KernelSpec("matern_5_2", [0.4, 0.4])
    sites = SiteDistances(tr.X)
    # fold 1 retains both copies of the duplicate
    with pytest.raises(IllConditionedError, match="duplicate"):
        _cv_heldout(tr, TrendSpec("constant"), spec, 0.0,
                    _fold_layout(np.array([0, 0, 1, 1, 2, 2])), sites)
    # with the copies in different folds of two, no fold retains both, but
    # the folds are computed from one factorization of all the sites, which
    # the duplicate makes singular
    with pytest.raises(IllConditionedError, match="duplicate"):
        _cv_heldout(tr, TrendSpec("constant"), spec, 0.0,
                    _fold_layout(np.array([0, 1, 0, 1, 0, 1])), sites)


@pytest.mark.parametrize("k_folds", [2, 3, 6])
def test_fit_cv_with_duplicate_sites_and_no_nugget_fails(k_folds):
    # every candidate's K is singular, and so is the final conditioning's
    x = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.9], [0.8, 0.3],
                  [0.3, 0.6], [0.9, 0.8]])
    tr = TrainingSet(x, np.array([1.0, 1.0, 0.2, -0.4, 0.7, 0.1]))
    with pytest.raises(FitError):
        fit_cv(tr, TrendSpec("constant"), "matern_5_2", k_folds=k_folds,
               n_restarts=2, seed=1, nugget=0.0)


def test_cv_fold_linear_kernel_warns_without_nugget(rng):
    X = rng.uniform(0, 1, (12, 2))
    tr = TrainingSet(X, X[:, 0] - X[:, 1])
    with pytest.warns(NumericalWarning, match="linear"):
        try:
            _cv_heldout(tr, TrendSpec("constant"), KernelSpec("linear", [0.5, 0.5]),
                        0.0, _fold_layout(make_folds(12, 3, seed=0)), SiteDistances(tr.X))
        except IllConditionedError:
            pass                 # the warning comes before the factorization


def test_cv_fits_never_share_distances(rng, monkeypatch):
    # every objective call and the final held-out pass go through
    # _cv_heldout, whose last positional argument is the fit's SiteDistances
    seen = []
    real = gpcal.emulator._cv_heldout

    def spy(*args, **kwargs):
        seen.append(args[-1])
        return real(*args, **kwargs)

    monkeypatch.setattr(gpcal.emulator, "_cv_heldout", spy)
    used = []
    for _ in range(2):
        x = rng.uniform(0, 1, (20, 2))
        tr = TrainingSet(x, np.sin(4.0 * x[:, 0]) + x[:, 1])
        del seen[:]
        fit_cv(tr, TrendSpec("constant"), "matern_5_2", k_folds=5,
               n_restarts=2, seed=3)
        assert len(seen) > 1 and all(s is seen[0] for s in seen)
        assert isinstance(seen[0], SiteDistances)
        for u, inv, col in zip(seen[0]._distinct, seen[0]._inverse, tr.X.T):
            assert np.array_equal(u[inv], np.abs(col[:, None] - col[None, :]))
        used.append(seen[0])
    assert used[0] is not used[1]


def test_fit_cv_exact_trend_degenerate_objective(rng):
    x = np.linspace(0, 1, 8).reshape(-1, 1)
    y = 2.0 + 3.0 * x[:, 0]
    tr = TrainingSet(x, y)
    em = fit_cv(tr, TrendSpec("linear"), "gaussian", k_folds=8, seed=2,
                n_restarts=3)
    mean, _ = em.predict_batch(x, warn_extrapolation=False)
    assert np.allclose(mean, y, rtol=0, atol=1e-8)
    em2 = fit_cv(tr, TrendSpec("linear"), "gaussian", k_folds=8, seed=2,
                 n_restarts=3)
    assert np.array_equal(em.hyper.omega, em2.hyper.omega)


def test_fit_cv_sigma2_multiplier_near_one(rng):
    # draw data from a known GP; Eq-34-style variance estimate should
    # recover the generating process variance on average
    space = ParameterSpace(["x"], [0.0], [1.0])
    spec = KernelSpec("gaussian", [0.25])
    ratios = []
    for rep in range(10):
        X = lhs_design(50, space, seed=100 + rep).to_physical()
        R = oracle_corr_matrix("gaussian", [0.25], [2.0], X, X) + 1e-10 * np.eye(50)
        L = np.linalg.cholesky(R)
        y = 2.0 * (L @ np.random.default_rng(rep).standard_normal(50))
        tr = TrainingSet(X, y, scale_inputs=False, standardize_outputs=False)
        folds = _fold_layout(make_folds(50, 10, seed=rep))
        mu_cv, v_cv = _cv_heldout(tr, TrendSpec("known_constant", mu=0.0),
                                  spec, 1e-10, folds, SiteDistances(tr.X))[:2]
        sigma2_cv = float(np.mean((tr.y - mu_cv) ** 2 / v_cv))
        ratios.append(sigma2_cv / 4.0)
    assert 0.7 <= np.mean(ratios) <= 1.3


def test_fit_cv_fold_count_validation(rng):
    tr = TrainingSet(rng.uniform(0, 1, (5, 1)), rng.normal(size=5))
    with pytest.raises(DataError):
        fit_cv(tr, TrendSpec("constant"), k_folds=6)
    with pytest.raises(DataError):
        fit_cv(tr, TrendSpec("constant"), k_folds=1)


@pytest.mark.parametrize("fit", [fit_mle, fit_cv])
@pytest.mark.parametrize("box", [None, (0.5, 2.0)], ids=["default", "narrow"])
def test_fits_search_omega_in_the_module_box(fit, box, rng, monkeypatch):
    # every start and every L-BFGS-B bound lies in OMEGA_BOUNDS, read when
    # the fit runs, and so does the fitted length-scale
    if box is not None:
        monkeypatch.setattr(gpcal.emulator, "OMEGA_BOUNDS", box)
    lo, hi = gpcal.emulator.OMEGA_BOUNDS
    calls = []
    real = gpcal.emulator.minimize

    def spy(fun, x0, **kwargs):
        calls.append((np.array(x0), kwargs["bounds"]))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(gpcal.emulator, "minimize", spy)
    x = rng.uniform(0, 1, (10, 1))
    em = fit(TrainingSet(x, np.sin(5.0 * x[:, 0])), TrendSpec("constant"),
             n_restarts=3, seed=2)
    assert len(calls) == 3
    for x0, bounds in calls:
        assert bounds == [(math.log(lo), math.log(hi))]
        assert math.log(lo) <= x0[0] <= math.log(hi)
    assert lo <= em.kernel.omega[0] <= hi


@pytest.mark.parametrize("jac", [False, True])
def test_multistart_scores_a_failed_candidate_big(jac, monkeypatch):
    # a candidate that raises or is not finite, in its value or its
    # gradient, scores _BIG, with a zero gradient under jac
    calls = []
    real = gpcal.emulator.minimize

    def spy(fun, x0, **kwargs):
        calls.append((fun(x0), kwargs["jac"]))
        return real(fun, x0, **kwargs)

    def raising(spec):
        raise IllConditionedError("singular")

    monkeypatch.setattr(gpcal.emulator, "minimize", spy)
    failed = (_BIG, [0.0, 0.0]) if jac else _BIG
    losses = [raising, lambda spec: (np.nan, np.zeros(2)) if jac else np.inf]
    if jac:
        losses.append(lambda spec: (1.0, np.array([0.0, np.inf])))
    for loss in losses:
        del calls[:]
        with pytest.raises(FitError):
            _multistart(loss, 2, "gaussian", 2, 0, "CV", jac=jac)
        assert len(calls) == 2
        for out, passed in calls:
            assert passed is jac
            assert (out[0], out[1].tolist()) == failed if jac else out == failed


def unmemoised_multistart(loss, d, kernel, n_restarts, seed, what, jac=False):
    """_multistart as it was before it kept its evaluations, literally: every
    request L-BFGS-B makes calls ``loss``. The memo's oracle."""
    OMEGA_BOUNDS = gpcal.emulator.OMEGA_BOUNDS
    if n_restarts < 1:
        raise ConfigError(f"{what} fit needs n_restarts >= 1, got {n_restarts}")
    lb = np.full(d, math.log(OMEGA_BOUNDS[0]))
    ub = np.full(d, math.log(OMEGA_BOUNDS[1]))

    def unpack(t):
        return KernelSpec(kernel, np.exp(t))

    def objective(t):
        try:
            out = loss(unpack(t))
            value, grad = out[:2] if jac else (out, None)
            if np.isfinite(value) and (grad is None or np.isfinite(grad).all()):
                return out
        except (IllConditionedError, DataError, np.linalg.LinAlgError):
            pass
        return (_BIG, np.zeros(d)) if jac else _BIG

    rng = np.random.default_rng(seed)
    u = _lhs_points(n_restarts, d, rng, midpoint=False)
    starts = lb + u * (ub - lb)
    results = []
    for t0 in starts:
        res = minimize(objective, t0, method="L-BFGS-B", jac=jac,
                       bounds=list(zip(lb, ub)))
        results.append((float(res.fun), unpack(res.x)))
    if min(v for v, _ in results) >= _BIG:
        raise FitError(f"all {n_restarts} {what} restarts failed to produce a "
                       "finite objective; check the data and kernel choice")
    return results


def demo_cross_training():
    # the bundled demo's GPcode design: 10 IUQ settings crossed with 12
    # theta rows of the linear simulator, m = 120. With these theta rows,
    # L-BFGS-B requests distinct log(omega) that round to one omega
    u_x = np.linspace(0.0, 10.0, 10)[:, None]
    u_t = lhs_design(12, ParameterSpace(["slope", "offset"], [0.0, -1.0],
                                        [4.0, 3.0]), seed=2).to_physical()
    X = cross_rows(u_x, u_t)
    return TrainingSet(X, X[:, 1] * X[:, 0] + X[:, 2])


def joint_training(rng):
    x = rng.uniform(0, 1, (40, 3))
    return TrainingSet(x, np.sin(4.0 * x[:, 0]) + x[:, 1] * x[:, 2])


@pytest.mark.parametrize("case", ["cross-mle", "joint-cv"])
def test_multistart_evaluates_each_omega_once_with_the_oracles_restarts(
        case, rng, monkeypatch):
    # the fit hands the same loss to the memoised multistart and to the
    # unmemoised oracle: the restarts agree to the bit, L-BFGS-B makes the
    # same requests, and the memo evaluates each requested omega once
    seen = {}
    real = gpcal.emulator._multistart
    real_minimize = gpcal.emulator.minimize
    requests = []

    def counted(fun, x0, **kwargs):
        def objective(t):
            requests.append(t.tobytes())
            return fun(t)
        return real_minimize(objective, x0, **kwargs)

    def both(loss, *args, **kwargs):
        calls = []

        def spy(spec):
            calls.append(spec.omega.tobytes())
            return loss(spec)

        ours = real(spy, *args, **kwargs)
        seen["ours"], calls[:] = list(calls), []
        oracle = unmemoised_multistart(spy, *args, **kwargs)
        seen["oracle"] = calls
        seen["results"] = [[(v, spec.omega.tobytes()) for v, spec, *_ in r]
                           for r in (ours, oracle)]
        return ours

    monkeypatch.setattr(gpcal.emulator, "_multistart", both)
    monkeypatch.setattr(gpcal.emulator, "minimize", counted)
    if case == "cross-mle":
        em = fit_mle(demo_cross_training(), TrendSpec("constant"), "matern_5_2",
                     n_restarts=4, seed=11)
    else:
        em = fit_cv(joint_training(rng), TrendSpec("constant"), "matern_5_2",
                    k_folds=5, n_restarts=3, seed=2)
    ours, oracle = seen["results"]
    assert ours == oracle
    assert len(set(seen["ours"])) == len(seen["ours"])
    assert set(seen["ours"]) == set(seen["oracle"])
    assert len(requests) == len(seen["oracle"])
    if case == "cross-mle":
        # L-BFGS-B does ask again, so the memo answered some requests
        assert len(seen["oracle"]) > len(seen["ours"])
        assert em.kernel.omega.tobytes() == min(ours, key=lambda r: r[0])[1]


def test_fit_cv_reuses_the_winners_heldout_predictions(rng, monkeypatch):
    # the held-out predictions at the winning omega come from the loss's own
    # evaluation: every _cv_heldout call is a distinct omega L-BFGS-B asked
    # for, and the process variance is the one a fresh call at the winner gives
    real = gpcal.emulator._cv_heldout
    calls = []

    def counted(training, trend, spec, *args):
        calls.append(spec.omega.tobytes())
        return real(training, trend, spec, *args)

    monkeypatch.setattr(gpcal.emulator, "_cv_heldout", counted)
    training = joint_training(rng)
    em = fit_cv(training, TrendSpec("constant"), "matern_5_2", k_folds=5,
                n_restarts=3, seed=2)
    assert len(set(calls)) == len(calls)
    assert em.kernel.omega.tobytes() in calls
    mu_cv, v_cv = real(training, TrendSpec("constant"), em.kernel,
                       gpcal.emulator.DEFAULT_NUGGET,
                       _fold_layout(make_folds(training.m, 5, 2)),
                       SiteDistances(training.X))[:2]
    assert em.hyper.sigma2 == float(np.mean((training.y - mu_cv) ** 2 / v_cv))


def test_fit_cv_builds_its_fold_layout_once(rng, monkeypatch):
    # the layout depends on the fold labels only, so every candidate of a
    # fit reads the one the fit built
    real_layout, real_heldout = gpcal.emulator._fold_layout, gpcal.emulator._cv_heldout
    built, read = [], []

    def layout(labels):
        built.append(real_layout(labels))
        return built[-1]

    def heldout(training, trend, spec, nugget, folds, sites):
        read.append(folds)
        return real_heldout(training, trend, spec, nugget, folds, sites)

    monkeypatch.setattr(gpcal.emulator, "_fold_layout", layout)
    monkeypatch.setattr(gpcal.emulator, "_cv_heldout", heldout)
    fit_cv(joint_training(rng), TrendSpec("constant"), "matern_5_2", k_folds=5,
           n_restarts=3, seed=2)
    assert len(built) == 1 and len(read) > 1
    assert all(folds is built[0] for folds in read)


@pytest.mark.parametrize("case", ["cross-mle", "joint-cv"])
def test_multistart_returns_each_restarts_evaluation(case, rng, monkeypatch):
    # each restart's out is the fit's loss at the restart's end point, bit for
    # bit: the value alone for MLE, (value, gradient, mu_cv, v_cv) for CV
    real = gpcal.emulator._multistart
    checked = []

    def fresh(loss, *args, **kwargs):
        results = real(loss, *args, **kwargs)
        for value, spec, out in results:
            again = loss(spec)       # the fit's own loss, before it returns
            if kwargs.get("jac"):
                assert value == out[0] and len(out) == len(again) == 4
                for a, b in zip(out, again):
                    assert np.array_equal(a, b)
            else:
                assert value == out == again
            checked.append(value)
        return results

    monkeypatch.setattr(gpcal.emulator, "_multistart", fresh)
    if case == "cross-mle":
        fit_mle(demo_cross_training(), TrendSpec("constant"), "matern_5_2",
                n_restarts=4, seed=11)
    else:
        fit_cv(joint_training(rng), TrendSpec("constant"), "matern_5_2",
               k_folds=5, n_restarts=3, seed=2)
    assert len(checked) == (4 if case == "cross-mle" else 3)
    assert max(checked) < _BIG


@pytest.mark.parametrize("trend", [TrendSpec("constant"), TrendSpec("linear")],
                         ids=["constant", "linear"])
def test_mle_objective_never_solves_for_alpha(trend, rng, monkeypatch):
    # only the final conditioning solves R alpha = y - trend, once; the
    # likelihood and the emulator's later reads of alpha do not
    real = CorrelationMatrix.solve
    solved = []

    def counted(self, b):
        solved.append(self)
        return real(self, b)

    monkeypatch.setattr(CorrelationMatrix, "solve", counted)
    x = rng.uniform(0, 1, (15, 2))
    em = fit_mle(TrainingSet(x, np.sin(3.0 * x[:, 0]) + x[:, 1]), trend,
                 "matern_5_2", n_restarts=2, seed=1)
    assert len(solved) == 1 and solved[0] is em._gls.R
    em.predict_batch(x[:4], with_covariance=True)
    cross_validated_predictions(em)
    assert len(solved) == 1


@pytest.mark.parametrize("m, q", [(120, 18), (480, 10), (10, 10), (120, 200)])
def test_gram_of_one_block_has_the_plain_products_bits(m, q, rng):
    # predict_batch conditions its points as a stack of one, so its
    # covariance's Z'Z and W'W are batched products of one block
    A = rng.normal(size=(m, q))
    assert np.array_equal(_gram(A, (1, q))[0], A.T @ A)


def test_multistart_memo_hands_out_copies_of_the_gradient(monkeypatch):
    # a caller writing into a returned gradient changes no later answer
    real = gpcal.emulator.minimize
    answers, calls = [], []

    def spy(fun, x0, **kwargs):
        first = fun(x0)
        first[1][:] = np.nan
        again = fun(x0)
        answers.append((x0.copy(), again[1].copy()))
        again[1][:] = np.nan
        assert np.array_equal(fun(x0)[1], answers[-1][1])
        return real(fun, x0, **kwargs)

    def loss(spec):
        t = np.log(spec.omega)
        calls.append(spec.omega.tobytes())
        return float(np.sum((t - 1.0) ** 2)), 2.0 * (t - 1.0)

    monkeypatch.setattr(gpcal.emulator, "minimize", spy)
    results = _multistart(loss, 2, "gaussian", 3, 0, "CV", jac=True)
    assert len(answers) == 3
    for x0, grad in answers:
        assert np.array_equal(grad, 2.0 * (np.log(np.exp(x0)) - 1.0))
    assert len(set(calls)) == len(calls)
    for value, spec, _ in results:
        assert value < 1e-10 and np.allclose(spec.omega, math.e)


@pytest.mark.parametrize("fit", [fit_mle, fit_cv])
@pytest.mark.parametrize("nugget", [-1.0, np.r_[np.full(9, 1e-10), -1e-10],
                                    np.full(3, 1e-10), np.inf, np.nan,
                                    np.r_[np.full(9, 1e-10), np.nan]])
def test_fits_reject_an_invalid_nugget_before_the_multistart(fit, nugget, rng,
                                                             monkeypatch):
    # each objective call turns a DataError into a failed candidate, so a
    # nugget checked only there ends the fit in a FitError
    x = rng.uniform(0, 1, (10, 1))
    tr = TrainingSet(x, np.sin(5.0 * x[:, 0]))

    def no_restart(*args, **kwargs):
        raise AssertionError("the multistart ran")

    monkeypatch.setattr(gpcal.emulator, "minimize", no_restart)
    with pytest.raises(DataError, match="nugget"):
        fit(tr, TrendSpec("constant"), nugget=nugget, n_restarts=2)


def test_training_set_needs_enough_points():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(DataError):
        FittedEmulator(TrainingSet(x, np.array([1.0, 2.0])), TrendSpec("linear"),
                       KernelSpec("gaussian", [1.0]))


# -------------------------------------------------------- serialization

def test_serialization_roundtrip(tmp_path, rng):
    x = rng.uniform(0, 2, (12, 2))
    y = np.sin(x[:, 0]) * x[:, 1] + 5.0
    em = fit_mle(TrainingSet(x, y), TrendSpec("linear"), "matern_5_2",
                 n_restarts=2, seed=9)
    path = tmp_path / "emulator.json"
    em.save(path)
    loaded = FittedEmulator.load(path)
    probe = rng.uniform(0, 2, (20, 2))
    m1, v1 = em.predict_batch(probe, warn_extrapolation=False)
    m2, v2 = loaded.predict_batch(probe, warn_extrapolation=False)
    assert np.allclose(m1, m2, rtol=0, atol=1e-12 * max(1, np.abs(m1).max()))
    assert np.allclose(v1, v2, rtol=1e-12, atol=1e-15)
    doc = json.loads(path.read_text())
    assert doc["version"] == 1


def test_serialization_rejects_unknown_version(tmp_path, rng):
    em = random_instance(rng)
    d = em.to_dict()
    d["version"] = 99
    with pytest.raises(DataError):
        FittedEmulator.from_dict(d)


def test_load_maps_a_malformed_document_to_a_data_error(tmp_path, rng):
    good = random_instance(rng).to_dict()
    no_scaling = {k: v for k, v in good.items() if k != "scaling"}
    bad_x = {**good, "training": {"x": "abc", "y": good["training"]["y"]}}
    for doc, message in ((no_scaling, "missing required field scaling"),
                         (bad_x, "training.x 'abc' is not a list"),
                         ([1, 2], r"the top level \[1, 2\] is not a mapping")):
        path = tmp_path / "emulator.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"emulator.json: {message}"):
            FittedEmulator.load(path)


def test_written_records_load_with_their_sigma2_and_scaling(rng):
    """Every kind of record the fits write loads back as the same emulator:
    each kernel kind, each serializable trend, scaled and unscaled training,
    degenerate outputs, MLE and CV."""
    x = rng.uniform(0, 2, (12, 2))
    y = np.sin(x[:, 0]) * x[:, 1] + 5.0
    trainings = (TrainingSet(x, y), raw_training(x, y),
                 TrainingSet(x, np.full(12, 3.0)))
    trends = (TrendSpec("known_constant", mu=5.0), TrendSpec("constant"),
              TrendSpec("linear"))
    # the 12 (kind, fit) pairs cycle through the 9 (training, trend) pairs
    cases = zip(itertools.product(KERNEL_KINDS, (fit_mle, fit_cv)),
                itertools.cycle(itertools.product(trainings, trends)))
    written = [fit(training, trend, kind, n_restarts=1, seed=4)
               for (kind, fit), (training, trend) in cases]
    assert {em.degenerate for em in written} == {False, True}
    for em in written:
        doc = json.loads(json.dumps(em.to_dict()))
        loaded = FittedEmulator.from_dict(doc)
        assert loaded.to_dict() == doc
        assert loaded.hyper.sigma2 == em.hyper.sigma2
        assert (loaded.training.scale_inputs, loaded.training.standardize_outputs) \
            == (em.training.scale_inputs, em.training.standardize_outputs)


@pytest.mark.parametrize("section, key, value", [
    ("hyperparameters", "sigma2", None), ("hyperparameters", "sigma2", "1.0"),
    ("hyperparameters", "sigma2", True), ("hyperparameters", "sigma2", -0.5),
    ("scaling", "scale_inputs", None), ("scaling", "scale_inputs", 0),
    ("scaling", "standardize_outputs", "false")])
def test_from_dict_rejects_untyped_sigma2_and_scaling_flags(section, key, value,
                                                            tmp_path, rng):
    doc = random_instance(rng).to_dict()
    doc[section][key] = value
    with pytest.raises(DataError, match=f"emulator document: {section}.{key} "):
        FittedEmulator.from_dict(doc)
    path = tmp_path / "emulator.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"emulator.json: {section}.{key} "):
        FittedEmulator.load(path)


@pytest.mark.parametrize("fit", [fit_mle, fit_cv])
def test_fits_need_at_least_one_restart(fit, rng):
    x = rng.uniform(0, 1, (12, 1))
    with pytest.raises(ConfigError, match="n_restarts >= 1"):
        fit(TrainingSet(x, np.sin(4 * x[:, 0])), TrendSpec("constant"), n_restarts=0)
