import numpy as np
import pytest

from gpcal import (DataError, FittedEmulator, KernelSpec, TrainingSet, TrendSpec,
                   fit_mle, lhs_design, loocv_error, q2_loocv)
from gpcal.diagnostics import Z_95, cross_validated_predictions, interval_covered
from gpcal.spaces import ParameterSpace

from conftest import oracle_corr_matrix, random_instance


def literal_loocv_oracle(em):
    """Drop-one-row refit-conditioning loop with explicit inverses; all
    hyperparameters (trend coefficients included) stay at the full-fit
    values. Physical units."""
    tr = em.training
    spec = em.kernel
    m = tr.m
    nug = np.asarray(em.hyper.nugget, float)
    if nug.ndim == 0:
        nug = np.full(m, float(nug))
    if em.trend.kind == "known_constant":
        trend_vals = np.full(m, tr.mu_std(em.trend.mu))
    else:
        trend_vals = em.trend.build_matrix(tr.X) @ em.hyper.beta
    resid = tr.y - trend_vals
    mu = np.empty(m)
    for i in range(m):
        keep = np.arange(m) != i
        R = oracle_corr_matrix(spec.kind, spec.omega, spec.p,
                               tr.X[keep], tr.X[keep]) + np.diag(nug[keep])
        r = oracle_corr_matrix(spec.kind, spec.omega, spec.p,
                               tr.X[keep], tr.X[i:i + 1])[:, 0]
        mu[i] = trend_vals[i] + r @ np.linalg.solve(R, resid[keep])
    return mu * tr.y_scale + tr.y_mean


def make_demo_emulator(m=8, seed=5, kind="matern_5_2", omega=0.4,
                       trend="constant"):
    space = ParameterSpace(["x"], [0.0], [1.0])
    x = lhs_design(m, space, seed=seed).to_physical()
    y = np.sin(5 * x[:, 0]) + 0.3 * x[:, 0]
    return FittedEmulator(TrainingSet(x, y), TrendSpec(trend),
                          KernelSpec(kind, [omega]), nugget=1e-10)


# ------------------------------------------------------------------ LOOCV

def test_loocv_fast_path_matches_literal_refit_loop(rng):
    for _ in range(8):
        em = random_instance(rng, nugget=1e-10)
        mu_fast, _ = cross_validated_predictions(em)
        mu_loop = literal_loocv_oracle(em)
        assert np.max(np.abs(mu_fast - mu_loop)) <= 1e-10 * (
            1 + np.abs(em.training.y_phys).max())


def test_loocv_three_point_hand_case():
    x = np.array([[0.0], [0.5], [1.0]])
    y = np.array([1.0, -0.5, 2.0])
    em = FittedEmulator(TrainingSet(x, y), TrendSpec("constant"),
                        KernelSpec("gaussian", [0.4]), nugget=0.0)
    mu_fast, _ = cross_validated_predictions(em)
    mu_loop = literal_loocv_oracle(em)
    assert np.max(np.abs(mu_fast - mu_loop)) <= 1e-10
    got = loocv_error(em)
    want = float(np.mean((y - mu_loop) ** 2))
    assert got == pytest.approx(want, rel=1e-10)


def test_loocv_constant_outputs_is_zero():
    x = np.linspace(0, 1, 6).reshape(-1, 1)
    em = fit_mle(TrainingSet(x, np.full(6, 2.0)), TrendSpec("constant"))
    assert loocv_error(em) == 0.0


def test_loocv_quadratic_homogeneity():
    x = np.linspace(0, 1, 9).reshape(-1, 1)
    y = np.sin(4 * x[:, 0])
    spec = KernelSpec("gaussian", [0.3])
    c = 7.0
    e1 = loocv_error(FittedEmulator(TrainingSet(x, y), TrendSpec("constant"), spec))
    e2 = loocv_error(FittedEmulator(TrainingSet(x, c * y), TrendSpec("constant"), spec))
    assert e2 == pytest.approx(c * c * e1, rel=1e-12)


def test_loocv_requires_two_points():
    em = FittedEmulator(TrainingSet(np.array([[0.5]]), np.array([1.0])),
                        TrendSpec("known_constant", mu=0.0),
                        KernelSpec("gaussian", [1.0]))
    with pytest.raises(DataError):
        loocv_error(em)


# --------------------------------------------------------------------- Q2

def test_q2_loocv_identity_with_loocv_error(rng):
    for _ in range(6):
        em = random_instance(rng, nugget=1e-10)
        y = em.training.y_phys
        m = em.training.m
        sst = float(np.sum((y - y.mean()) ** 2))
        lhs = 1.0 - q2_loocv(em)
        rhs = m * loocv_error(em) / sst
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(rhs)))


def test_q2_loocv_hand_case_vs_refit_oracle():
    space = ParameterSpace(["x"], [0.0], [1.0])
    x = lhs_design(4, space, seed=9).to_physical()
    y = np.array([0.3, 1.2, -0.4, 0.9])
    em = FittedEmulator(TrainingSet(x, y), TrendSpec("constant"),
                        KernelSpec("exponential", [0.5]), nugget=1e-10)
    mu_loop = literal_loocv_oracle(em)
    want = 1.0 - np.sum((y - mu_loop) ** 2) / np.sum((y - y.mean()) ** 2)
    assert q2_loocv(em) == pytest.approx(want, abs=1e-10)


def test_diagnostics_permutation_invariance(rng):
    x = rng.uniform(0, 1, (10, 1))
    y = np.cos(3 * x[:, 0])
    spec = KernelSpec("matern_3_2", [0.5])
    em1 = FittedEmulator(TrainingSet(x, y), TrendSpec("constant"), spec)
    perm = rng.permutation(10)
    em2 = FittedEmulator(TrainingSet(x[perm], y[perm]), TrendSpec("constant"), spec)
    assert loocv_error(em1) == pytest.approx(loocv_error(em2), rel=1e-9)
    assert q2_loocv(em1) == pytest.approx(q2_loocv(em2), rel=1e-9)


# --------------------------------------------------------------- coverage

def coverage(em, x, y):
    """Fraction of the observations y inside the 95% predictive intervals
    mean +/- 1.96 sqrt(mse) at the points x."""
    mean, mse = em.predict_batch(x, warn_extrapolation=False)
    return float(np.mean(interval_covered(y, mean, Z_95 * np.sqrt(mse))))


def test_coverage_training_set_interpolation():
    em = make_demo_emulator(m=8, seed=3)
    cov = coverage(em, em.training.x_phys, em.training.y_phys)
    assert cov == 1.0
    # degenerate constant emulator too: exact hits, zero-width intervals
    x = np.linspace(0, 1, 5).reshape(-1, 1)
    em_const = fit_mle(TrainingSet(x, np.full(5, 3.0)), TrendSpec("constant"))
    assert coverage(em_const, x, np.full(5, 3.0)) == 1.0


def test_coverage_interval_is_mean_plus_minus_1_96_sd():
    em = make_demo_emulator(m=8, seed=3)
    x = np.array([[0.13], [0.47], [0.81]])
    mean, mse = em.predict_batch(x, warn_extrapolation=False)
    sd = np.sqrt(mse)
    assert np.all(sd > 1e-6)
    assert coverage(em, x, mean + 1.96 * sd) == 1.0
    assert coverage(em, x, mean - 1.96 * sd) == 1.0
    assert coverage(em, x, mean + 1.97 * sd) == 0.0
    assert coverage(em, x, mean - 1.97 * sd) == 0.0


def synthetic_gp_coverage(master_seed, n_draws=25, m_train=8, n_test=40,
                          omega=0.08, sigma=1.5, sigma2_mult=1.0):
    """Pooled 95%-CI coverage over independent draws from a known GP, with
    the emulator conditioned at the generating hyperparameters. Pooling over
    draws is needed because coverage indicators within one draw are strongly
    correlated over the kernel's length-scale."""
    space = ParameterSpace(["x"], [0.0], [1.0])
    per_draw = []
    for k in range(n_draws):
        seed = master_seed * 1000 + k
        rng = np.random.default_rng(seed)
        x_train = lhs_design(m_train, space, seed=seed).to_physical()
        x_test = rng.uniform(0, 1, (n_test, 1))
        X = np.vstack([x_train, x_test])
        R = oracle_corr_matrix("gaussian", [omega], [2.0], X, X)
        L = np.linalg.cholesky(R + 1e-10 * np.eye(len(X)))
        y = sigma * (L @ rng.standard_normal(len(X)))
        tr = TrainingSet(x_train, y[:m_train], scale_inputs=False,
                         standardize_outputs=False)
        em = FittedEmulator(tr, TrendSpec("known_constant", mu=0.0),
                            KernelSpec("gaussian", [omega]), nugget=1e-10,
                            sigma2_override=sigma2_mult * sigma ** 2)
        per_draw.append(coverage(em, x_test, y[m_train:]))
    return float(np.mean(per_draw))


def test_coverage_correctly_specified_gp():
    # 25 draws x 40 held-out points = 1000 points total
    cov = synthetic_gp_coverage(master_seed=3)
    assert 0.90 <= cov <= 0.99


def test_coverage_drops_with_halved_variance():
    full = synthetic_gp_coverage(master_seed=3)
    halved = synthetic_gp_coverage(master_seed=3, sigma2_mult=0.5)
    assert halved < full
    assert halved < 0.90

