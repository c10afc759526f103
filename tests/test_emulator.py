import json
import math
import warnings

import numpy as np
import pytest

import gpcal.emulator
from gpcal import (DataError, ExtrapolationWarning, FittedEmulator, KernelSpec,
                   TrainingSet, TrendSpec, build_emulator, fit_cv, fit_mle,
                   gls_beta, lhs_design, neg_log_likelihood, sigma2_hat)
from gpcal.emulator import _concentrated_nll, _cv_heldout, make_folds
from gpcal.kernels import CorrelationMatrix, SiteDistances, correlation_matrix
from gpcal.spaces import ParameterSpace

from conftest import dense_oracle_predict, oracle_corr_matrix, random_instance


def raw_training(x, y):
    return TrainingSet(x, y, scale_inputs=False, standardize_outputs=False)


def identity_R(m, nugget=0.0):
    return CorrelationMatrix(np.eye(m) + nugget * np.eye(m), nugget)


# ------------------------------------------------------------- gls_beta

def test_gls_constant_trend_identity_R_gives_mean(rng):
    y = rng.normal(2.0, 1.0, 8)
    tr = raw_training(rng.uniform(0, 1, (8, 1)), y)
    beta = gls_beta(tr, TrendSpec("constant"), identity_R(8))
    assert beta[0] == pytest.approx(y.mean(), abs=1e-12)


def test_gls_two_by_two_symbolic_oracle():
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    rho = 0.6
    R = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]), 0.0)
    tr = raw_training(x, y)
    beta = gls_beta(tr, TrendSpec("constant"), R)
    # (1' R^-1 1)^-1 1' R^-1 y for 2x2 correlation with equal diagonals
    # reduces to the plain average
    want = (y[0] + y[1]) / 2.0
    assert beta[0] == pytest.approx(want, abs=1e-12)
    # full symbolic check with a linear trend
    F = np.array([[1.0, 0.0], [1.0, 1.0]])
    Rinv = np.linalg.inv(R.values)
    want_full = np.linalg.solve(F.T @ Rinv @ F, F.T @ Rinv @ y)
    beta_lin = gls_beta(tr, TrendSpec("linear"), R)
    assert np.allclose(beta_lin, want_full, rtol=0, atol=1e-12)


def test_gls_exact_fit_invariance(rng):
    x = rng.uniform(0, 1, (9, 2))
    c = np.array([0.7, -1.2, 2.5])
    tr_tmp = TrainingSet(x, np.zeros(9))  # to get scaled X for basis
    F = TrendSpec("linear").build_matrix(tr_tmp.X)
    y = F @ c
    tr = TrainingSet(x, y, standardize_outputs=False)
    R = correlation_matrix(tr.X, KernelSpec("matern_5_2", [0.5, 0.5]), 1e-10)
    beta = gls_beta(tr, TrendSpec("linear"), R)
    assert np.allclose(beta, c, rtol=0, atol=1e-9)


def test_gls_rank_deficient_rejected():
    x = np.column_stack([np.linspace(0, 1, 6), np.full(6, 0.5)])
    tr = raw_training(x, np.arange(6.0))
    with pytest.raises(DataError):
        gls_beta(tr, TrendSpec("linear"), identity_R(6))


# ------------------------------------------------------------ sigma2_hat

def test_sigma2_zero_residual_degenerate(rng):
    x = rng.uniform(0, 1, (5, 1))
    tr = raw_training(x, np.full(5, 3.3))
    beta = np.array([3.3])
    assert sigma2_hat(tr, TrendSpec("constant"), beta, identity_R(5)) == 0.0


def test_sigma2_single_point_constant_trend():
    tr = raw_training(np.array([[0.5]]), np.array([4.2]))
    beta = gls_beta(tr, TrendSpec("constant"), identity_R(1))
    assert sigma2_hat(tr, TrendSpec("constant"), beta, identity_R(1)) == 0.0


def test_sigma2_identity_R_is_mean_square_residual():
    y = np.array([1.0, 2.0, 6.0])
    tr = raw_training(np.array([[0.0], [0.5], [1.0]]), y)
    beta = np.array([y.mean()])
    got = sigma2_hat(tr, TrendSpec("constant"), beta, identity_R(3))
    want = np.sum((y - y.mean()) ** 2) / 3.0  # divide by m, not m-1
    assert got == pytest.approx(want, abs=1e-14)


# --------------------------------------------------- neg_log_likelihood

def test_nll_identity_R_closed_form(rng):
    # far-apart points + tiny length-scale: R is numerically the identity
    x = np.arange(6.0).reshape(-1, 1)
    y = rng.normal(0, 2, 6)
    tr = raw_training(x, y)
    spec = KernelSpec("gaussian", [1e-3])
    got = neg_log_likelihood(tr, TrendSpec("constant"), spec, nugget=0.0)
    s2 = np.sum((y - y.mean()) ** 2) / 6.0
    want = 3.0 * math.log(2 * math.pi * s2) + 3.0
    assert got == pytest.approx(want, abs=1e-10)


def test_nll_matches_unconcentrated_likelihood(rng):
    x = np.array([[0.2], [0.7]])
    y = np.array([1.0, 2.5])
    tr = raw_training(x, y)
    spec = KernelSpec("gaussian", [0.4])
    got = neg_log_likelihood(tr, TrendSpec("constant"), spec, nugget=0.0)
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
        vals1.append(neg_log_likelihood(tr1, TrendSpec("constant"), spec, 1e-10))
        vals2.append(neg_log_likelihood(tr2, TrendSpec("constant"), spec, 1e-10))
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
                        == neg_log_likelihood(tr, trend, spec))


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
        for h, x in zip(cached[0].absdiff, tr.X.T):
            assert np.array_equal(h, np.abs(x[:, None] - x[None, :]))
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
    em = build_emulator(tr, TrendSpec("known_constant", mu=2.0),
                        KernelSpec("gaussian", [0.1]), nugget=0.0)
    mean, mse = em.predict(np.array([50.0]), warn_extrapolation=False)
    assert mean == pytest.approx(2.0, abs=1e-10)
    assert mse == pytest.approx(em.process_variance, rel=1e-10)


def test_predict_matches_dense_oracle(rng):
    for _ in range(25):
        em = random_instance(rng, nugget=0.0)
        for _ in range(3):
            x_star = rng.uniform(0, 1, em.dim)
            mean, mse = em.predict(x_star, warn_extrapolation=False)
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
    em = build_emulator(tr, TrendSpec("known_constant", mu=1.4),
                        KernelSpec("matern_3_2", [0.3]), nugget=0.0)
    for x_star in ([0.33], [0.71], [0.05]):
        mean, mse = em.predict(np.array(x_star), warn_extrapolation=False)
        o_mean, o_mse, _ = dense_oracle_predict(em, x_star)
        assert mean == pytest.approx(o_mean, abs=1e-9 * max(1, abs(o_mean)))
        assert mse == pytest.approx(o_mse, abs=1e-9 * em.process_variance)


def test_predict_batch_consistency(rng):
    em = random_instance(rng, nugget=0.0)
    pts = rng.uniform(0, 1, (4, em.dim))
    means, mses = em.predict_batch(pts, warn_extrapolation=False)
    for i in range(4):
        m1, v1 = em.predict(pts[i], warn_extrapolation=False)
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
    em = build_emulator(TrainingSet(x, y), TrendSpec("constant"),
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
    mean, mse = em.predict(np.full(em.dim, 0.4), warn_extrapolation=False)
    half = 1.96 * math.sqrt(mse)
    assert (mean + half) - (mean - half) == pytest.approx(2 * 1.96 * math.sqrt(mse))


def test_extrapolation_warning():
    x = np.linspace(0, 1, 5).reshape(-1, 1)
    em = build_emulator(TrainingSet(x, np.sin(x[:, 0])), TrendSpec("constant"),
                        KernelSpec("gaussian", [0.3]))
    with pytest.warns(ExtrapolationWarning):
        em.predict(np.array([2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        em.predict(np.array([0.5]))
        em.predict(np.array([2.0]), warn_extrapolation=False)


def test_dimension_mismatch_rejected(rng):
    em = random_instance(rng)
    with pytest.raises(DataError):
        em.predict(np.zeros(em.dim + 1))


# ------------------------------------------------------------ invariants

def test_output_shift_equivariance(rng):
    x = rng.uniform(0, 1, (10, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1]
    spec = KernelSpec("gaussian", [0.4, 0.4])
    em1 = build_emulator(TrainingSet(x, y), TrendSpec("constant"), spec)
    em2 = build_emulator(TrainingSet(x, y + 17.5), TrendSpec("constant"), spec)
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
    em1 = build_emulator(TrainingSet(x, y), TrendSpec("linear"), spec)
    em2 = build_emulator(TrainingSet(x[perm], y[perm]), TrendSpec("linear"), spec)
    pts = rng.uniform(0, 1, (5, 2))
    m1, v1 = em1.predict_batch(pts, warn_extrapolation=False)
    m2, v2 = em2.predict_batch(pts, warn_extrapolation=False)
    assert np.allclose(m1, m2, rtol=1e-12, atol=1e-12)
    assert np.allclose(v1, v2, rtol=1e-10, atol=1e-13)


def test_ordinary_kriging_equals_universal_with_constant_basis(rng):
    x = rng.uniform(0, 1, (8, 1))
    y = np.exp(x[:, 0])
    spec = KernelSpec("gaussian", [0.5])
    em1 = build_emulator(TrainingSet(x, y), TrendSpec("constant"), spec)
    basis = (lambda X: np.ones(X.shape[0]),)
    em2 = build_emulator(TrainingSet(x, y), TrendSpec("custom", basis=basis), spec)
    pts = rng.uniform(0, 1, (7, 1))
    m1, v1 = em1.predict_batch(pts, warn_extrapolation=False)
    m2, v2 = em2.predict_batch(pts, warn_extrapolation=False)
    assert np.allclose(m1, m2, rtol=0, atol=1e-12)
    assert np.allclose(v1, v2, rtol=1e-12, atol=1e-15)


# -------------------------------------------------------------- fitting

def test_fit_mle_constant_outputs_short_circuit():
    x = np.linspace(0, 1, 6).reshape(-1, 1)
    em = fit_mle(TrainingSet(x, np.full(6, 7.25)), TrendSpec("constant"))
    assert em.degenerate
    mean, mse = em.predict(np.array([0.43]), warn_extrapolation=False)
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


def test_fit_mle_free_roughness(rng):
    x = np.sort(rng.uniform(0, 1, 20)).reshape(-1, 1)
    y = np.sin(6 * x[:, 0])
    em = fit_mle(TrainingSet(x, y), TrendSpec("constant"), "power_exponential",
                 free_p=True, p_bounds=(1.0, 2.0), n_restarts=3, seed=1)
    assert 1.0 <= em.hyper.p[0] <= 2.0


def test_fit_cv_heldout_matches_literal_two_refit_oracle(rng):
    x = np.array([[0.0], [0.3], [0.6], [1.0]])
    y = np.array([0.5, 1.4, 0.9, 2.0])
    tr = TrainingSet(x, y)
    spec = KernelSpec("gaussian", [0.45])
    labels = make_folds(4, 2, seed=3)
    mu_cv, _ = _cv_heldout(tr, TrendSpec("constant"), spec, 1e-10, labels)
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
        labels = make_folds(50, 10, seed=rep)
        mu_cv, v_cv = _cv_heldout(tr, TrendSpec("known_constant", mu=0.0),
                                  spec, 1e-10, labels)
        sigma2_cv = float(np.mean((tr.y - mu_cv) ** 2 / v_cv))
        ratios.append(sigma2_cv / 4.0)
    assert 0.7 <= np.mean(ratios) <= 1.3


def test_fit_cv_free_roughness(rng):
    x = np.sort(rng.uniform(0, 1, 16)).reshape(-1, 1)
    y = np.sin(7 * x[:, 0])
    em = fit_cv(TrainingSet(x, y), TrendSpec("constant"), "power_exponential",
                k_folds=8, free_p=True, p_bounds=(1.0, 2.0), n_restarts=3,
                seed=2)
    assert 1.0 <= em.hyper.p[0] <= 2.0
    assert em.hyper.sigma2 > 0


def test_fit_cv_fold_count_validation(rng):
    tr = TrainingSet(rng.uniform(0, 1, (5, 1)), rng.normal(size=5))
    with pytest.raises(DataError):
        fit_cv(tr, TrendSpec("constant"), k_folds=6)
    with pytest.raises(DataError):
        fit_cv(tr, TrendSpec("constant"), k_folds=1)


def test_training_set_needs_enough_points():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(DataError):
        build_emulator(TrainingSet(x, np.array([1.0, 2.0])), TrendSpec("linear"),
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
