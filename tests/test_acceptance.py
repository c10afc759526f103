"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete).
"""

import time
import warnings

import numpy as np
import yaml

from gpcal import (KernelSpec, TrainingSet, TrendSpec, FittedEmulator, fit_mle,
                   lhs_design, loocv_error, mcmc_sample, q2_loocv, run_workflow)
from gpcal.cli import main
from gpcal.config import load_config
from gpcal.diagnostics import cross_validated_predictions
from gpcal.errors import NumericalWarning
from gpcal.fileio import write_csv
from gpcal.priors import Prior1D, PriorSpec
from gpcal.spaces import ParameterSpace

from conftest import dense_oracle_predict, oracle_corr_matrix, random_instance
from test_diagnostics import literal_loocv_oracle, synthetic_gp_coverage

TRUTH = (2.0, 1.0)
KINDS = ["linear", "exponential", "power_exponential", "gaussian",
         "matern_3_2", "matern_5_2"]


def report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def unit_space(d):
    return ParameterSpace([f"x{k}" for k in range(d)], np.zeros(d), np.ones(d))


# --------------------------------------------------------------------------
# 1. interpolation suite


def _omega_range(kind, d, m):
    """Length-scale draw keeping zero-nugget factorization well-conditioned
    (the Gaussian kernel in low dimension needs short scales)."""
    if kind == "gaussian":
        if d == 1:
            return (0.04, 0.1) if m > 15 else (0.06, 0.15)
        return (0.1, 0.3) if d == 2 else (0.15, 0.5)
    if kind in ("matern_3_2", "matern_5_2"):
        return (0.15, 0.6) if d == 1 else (0.25, 1.0)
    if kind == "power_exponential":
        return (0.2, 0.8)
    return (0.3, 1.5)


def _interpolation_instance(i):
    rng = np.random.default_rng(1000 + i)
    d = int(rng.integers(1, 6))
    kind = KINDS[i % 6]
    m = int(rng.integers(max(5, d + 3), 31))
    X = lhs_design(m, unit_space(d), seed=int(rng.integers(1 << 30))).to_physical()
    y = np.sin(3 * X[:, 0]) + X.sum(axis=1) + rng.normal(0, 0.5, m)
    lo, hi = _omega_range(kind, d, m)
    omega = rng.uniform(lo, hi, d)
    p = rng.uniform(1.0, 2.0, d) if kind == "power_exponential" else None
    trend = [TrendSpec("constant"), TrendSpec("linear"),
             TrendSpec("known_constant", mu=float(y.mean()))][int(rng.integers(3))]
    return TrainingSet(X, y), trend, KernelSpec(kind, omega, p)


def test_criterion_1_interpolation_suite():
    t0 = time.perf_counter()
    worst_mean = worst_mse = 0.0
    for i in range(100):
        training, trend, spec = _interpolation_instance(i)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalWarning)
            em = FittedEmulator(training, trend, spec, nugget=0.0,
                                auto_escalate=False)
        means, mses = em.predict_batch(training.x_phys, warn_extrapolation=False)
        worst_mean = max(worst_mean, float(np.max(
            np.abs(means - training.y_phys) / (1 + np.abs(training.y_phys)))))
        worst_mse = max(worst_mse, float(mses.max() / max(em.process_variance,
                                                          1e-300)))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-8 and worst_mse <= 1e-8 and elapsed < 10.0
    report(1, "interpolation suite", ok,
           f"worst mean rel {worst_mean:.2e}, worst mse rel {worst_mse:.2e}, "
           f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. dense-oracle equivalence


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = worst_forms = 0.0
    for _ in range(50):
        em = random_instance(rng, m_max=10, nugget=0.0)
        vscale = max(em.process_variance, 1e-300)
        for _ in range(2):
            x_star = rng.uniform(0, 1, em.dim)
            (mean,), (mse,) = em.predict_batch(x_star[None], warn_extrapolation=False)
            o_mean, o_mse16, o_mse17 = dense_oracle_predict(em, x_star)
            worst = max(worst,
                        abs(mean - o_mean) / max(1.0, abs(o_mean)),
                        abs(mse - o_mse17) / vscale)
            worst_forms = max(worst_forms, abs(o_mse16 - o_mse17) / vscale)
    ok = worst <= 1e-9 and worst_forms <= 1e-9
    report(2, "dense-oracle equivalence", ok,
           f"worst predict mismatch {worst:.2e}, "
           f"worst MSE-form mismatch {worst_forms:.2e}")


# --------------------------------------------------------------------------
# 3. hyperparameter recovery


def test_criterion_3_hyperparameter_recovery():
    t0 = time.perf_counter()
    omegas, sigma2s = [], []
    for rep in range(10):
        rng = np.random.default_rng(5000 + rep)
        X = lhs_design(200, unit_space(1), seed=5000 + rep).to_physical()
        R = oracle_corr_matrix("gaussian", [0.3], [2.0], X, X) \
            + 1e-10 * np.eye(200)
        y = np.sqrt(2.0) * (np.linalg.cholesky(R) @ rng.standard_normal(200))
        em = fit_mle(TrainingSet(X, y), TrendSpec("constant"), "gaussian",
                     n_restarts=3, seed=rep)
        omegas.append(float(em.hyper.omega[0]))
        sigma2s.append(float(em.process_variance))
    elapsed = time.perf_counter() - t0
    med_omega = float(np.median(omegas))
    med_sigma2 = float(np.median(sigma2s))
    ok = 0.21 <= med_omega <= 0.39 and 1.4 <= med_sigma2 <= 2.8 and elapsed < 60
    report(3, "hyperparameter recovery", ok,
           f"median omega {med_omega:.3f} (target [0.21, 0.39]), "
           f"median sigma2 {med_sigma2:.2f} (target [1.4, 2.8]), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. CV/LOOCV identities


def test_criterion_4_loocv_identities():
    rng = np.random.default_rng(404)
    worst_loop = worst_ident = 0.0
    for _ in range(12):
        em = random_instance(rng, m_max=20, nugget=1e-10)
        mu_fast, _ = cross_validated_predictions(em)
        mu_loop = literal_loocv_oracle(em)
        yscale = 1 + np.abs(em.training.y_phys).max()
        worst_loop = max(worst_loop,
                         float(np.max(np.abs(mu_fast - mu_loop))) / yscale)
        y = em.training.y_phys
        sst = float(np.sum((y - y.mean()) ** 2))
        lhs = 1.0 - q2_loocv(em)
        rhs = em.training.m * loocv_error(em) / sst
        worst_ident = max(worst_ident, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_loop <= 1e-10 and worst_ident <= 1e-12
    report(4, "CV/LOOCV identities", ok,
           f"fast-vs-loop {worst_loop:.2e} (tol 1e-10), "
           f"Q2 identity {worst_ident:.2e} (tol 1e-12)")


# --------------------------------------------------------------------------
# 5. confidence-interval coverage


def test_criterion_5_coverage():
    cov = synthetic_gp_coverage(master_seed=3)  # 25 draws x 40 points
    ok = 0.90 <= cov <= 0.99
    report(5, "95% CI coverage", ok, f"empirical coverage {cov:.3f} over 1000 "
           "held-out points (target [0.90, 0.99])")


# --------------------------------------------------------------------------
# 6. demo-function accuracy improves with training size


def test_criterion_6_demo_function_improvement():
    metrics = {}
    grid = np.linspace(0.0, 10.0, 201).reshape(-1, 1)
    for m in (5, 10):
        x = np.linspace(0.0, 10.0, m).reshape(-1, 1)
        y = x[:, 0] * np.sin(x[:, 0])
        em = fit_mle(TrainingSet(x, y), TrendSpec("constant"), "gaussian",
                     n_restarts=4, seed=7)
        _, mse = em.predict_batch(grid, warn_extrapolation=False)
        metrics[m] = (float(mse.mean()), loocv_error(em))
    ok = metrics[10][0] < metrics[5][0] and metrics[10][1] < metrics[5][1]
    report(6, "demo-function improvement with m", ok,
           f"mean grid MSE {metrics[5][0]:.3g} -> {metrics[10][0]:.3g}, "
           f"LOOCV {metrics[5][1]:.3g} -> {metrics[10][1]:.3g}")


# --------------------------------------------------------------------------
# 7. MCMC correctness on an analytic target


def test_criterion_7_mcmc_analytic_target():
    prior = PriorSpec([Prior1D.uniform(-10, 10), Prior1D.uniform(-10, 10)],
                      nominal=[0.0, 0.0])
    target = lambda th: -0.5 * np.sum(np.asarray(th) ** 2, axis=-1)
    chain = mcmc_sample(target, prior, n_samples=50_000, n_burn=5_000, seed=7)
    kept = chain.post_burn
    mean_err = float(np.max(np.abs(kept.mean(axis=0))))
    cov_err = float(np.max(np.abs(np.cov(kept.T) - np.eye(2))))
    ok = (mean_err < 0.1 and cov_err < 0.15
          and 0.15 <= chain.accept_rate <= 0.5)
    report(7, "MCMC analytic target", ok,
           f"mean err {mean_err:.3f} (<0.1), cov err {cov_err:.3f} (<0.15), "
           f"acceptance {chain.accept_rate:.3f} (in [0.15, 0.5])")


# --------------------------------------------------------------------------
# 8. end-to-end calibration recovery


def _linear_config(tmp_path, *, n, data_seed, samples, burn, mcmc_seed,
                   discrepancy=True, bias=False, x_hi=10.0, n_train=None,
                   name="config.yaml"):
    rng = np.random.default_rng(data_seed)
    x = np.linspace(0.0, x_hi, n)
    y = TRUTH[0] * x + TRUTH[1]
    if bias:
        y = y + 0.5 * np.sin(x)
    y = y + rng.normal(0.0, 0.05, n)
    exp_path = tmp_path / f"exp_{name}.csv"
    write_csv(exp_path, ["x", "y", "sigma_exp"],
              [(a, b, 0.05) for a, b in zip(x, y)])
    cfg = {
        "design_space": {"names": ["x"], "lower": [0.0], "upper": [x_hi]},
        "calibration": {
            "names": ["slope", "offset"],
            "priors": [{"dist": "uniform", "lower": 0.0, "upper": 4.0},
                       {"dist": "uniform", "lower": -1.0, "upper": 3.0}],
            "nominal": [2.0, 1.0]},
        "simulator": {"kind": "builtin", "name": "linear"},
        "experiments": {"path": exp_path.name,
                        "split": {"iuq": list(range(0, n, 2)),
                                  "val": list(range(1, n, 2))}},
        "emulator": {"kernel": "matern_5_2", "trend": "constant",
                     "estimation": "mle", "n_train": n_train or 12 * (n // 2),
                     "design": "cross", "n_restarts": 3, "seed": 11},
        "mcmc": {"samples": samples, "burn": burn, "seed": mcmc_seed},
        "discrepancy": {"enabled": discrepancy},
        "thresholds": {"q2_gate": 0.7},
    }
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_criterion_8_calibration_recovery(tmp_path):
    t0 = time.perf_counter()
    # recovery: 10 IUQ + 10 VAL rows
    config = load_config(_linear_config(tmp_path, n=20, data_seed=0,
                                        samples=2000, burn=700, mcmc_seed=13))
    result = run_workflow(config)
    stats = result.chain.summary()["parameters"]
    within = all(
        abs(stats[name]["mean"] - TRUTH[j]) <= 3.0 * stats[name]["std"]
        for j, name in enumerate(("slope", "offset")))
    # contraction: doubling the IUQ rows shrinks both posterior stds;
    # allow one failing seed in ten
    failures = 0
    for seed in range(10):
        stds = {}
        for n, tag in ((20, "base"), (40, "double")):
            cfg = load_config(_linear_config(
                tmp_path, n=n, data_seed=seed, samples=800, burn=350,
                n_train=5 * n, mcmc_seed=100 + seed,
                name=f"c8_{seed}_{tag}.yaml"))
            run = run_workflow(cfg)
            s = run.chain.summary()["parameters"]
            stds[tag] = np.array([s["slope"]["std"], s["offset"]["std"]])
        if not np.all(stds["double"] < stds["base"]):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = within and failures <= 1 and elapsed < 60
    report(8, "end-to-end calibration recovery", ok,
           f"recovery within 3 std: {within}, contraction failures "
           f"{failures}/10 (allow 1), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. over-fitting / discrepancy demonstration


def test_criterion_9_overfitting_demonstration(tmp_path):
    errs = {True: [], False: []}
    counters = []
    for seed in range(5):
        for enabled in (True, False):
            cfg = load_config(_linear_config(
                tmp_path, n=20, data_seed=seed, samples=2000, burn=800,
                mcmc_seed=50 + seed, discrepancy=enabled, bias=True, x_hi=7.0,
                name=f"c9_{seed}_{int(enabled)}.yaml"))
            result = run_workflow(cfg)
            mean = result.chain.post_burn.mean(axis=0)
            errs[enabled].append(np.abs(mean - np.array(TRUTH)))
            if enabled:
                counters.append(result.discrepancy_evals_in_validation)
    avg_corrected = np.mean(errs[True], axis=0)
    avg_ablation = np.mean(errs[False], axis=0)
    ok = bool(np.all(avg_corrected < avg_ablation)) and all(
        c == 0 for c in counters)
    report(9, "over-fitting demonstration", ok,
           f"avg |posterior mean - truth| corrected {np.round(avg_corrected, 4)} "
           f"< ablation {np.round(avg_ablation, 4)}; discrepancy evaluations "
           f"during validation: {counters}")


# --------------------------------------------------------------------------
# 10. byte-identical reruns of the bundled demo


def test_criterion_10_determinism(tmp_path):
    import pathlib
    demo = pathlib.Path(__file__).resolve().parent.parent / "demo" / "linear_demo.yaml"
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    t0 = time.perf_counter()
    assert main(["calibrate", "--config", str(demo), "--out", str(out1)]) == 0
    first = time.perf_counter() - t0
    assert main(["calibrate", "--config", str(demo), "--out", str(out2)]) == 0
    identical = (out1 / "chain.csv").read_bytes() == (out2 / "chain.csv").read_bytes()
    ok = identical and first < 60
    report(10, "seeded rerun determinism", ok,
           f"chain CSVs byte-identical: {identical}, demo run {first:.1f}s")
