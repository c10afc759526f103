"""Self-tests of the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from oracles import (DenseGP, bulk_ess, decay_formula, dense_log_posterior,
                     kernel_1d, linear_formula)

HERE = Path(__file__).resolve().parent


def test_simulator_formulas_at_hand_values():
    assert linear_formula([[3.0]], [2.0, 1.0]) == pytest.approx([7.0])
    # a e^0 + c x2 + 0.5 x1 x2 at k = 0
    assert decay_formula([[1.0, 1.0]], [2.0, 0.0, 1.0]) == pytest.approx([3.5])
    assert decay_formula([[2.0, 0.0]], [1.0, 0.5, 7.0]) == pytest.approx([math.exp(-1)])


def test_decay_formula_matches_the_subprocess_script(tmp_path):
    rows = np.array([[0.0, 0.0, 1.0, 1.0, 0.0],
                     [1.5, 0.25, 2.5, 0.3, -0.7],
                     [2.0, 1.0, 0.5, 2.0, 1.0]])
    (tmp_path / "in.csv").write_text(
        "x1,x2,a,k,c\n" + "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
    subprocess.run([sys.executable, str(HERE / "sim_decay.py"),
                    str(tmp_path / "in.csv"), str(tmp_path / "out.csv")], check=True)
    got = np.loadtxt(tmp_path / "out.csv", skiprows=1)
    assert got == pytest.approx(decay_formula(rows[:, :2], rows[:, 2:]), rel=1e-15)


def test_kernel_formulas_at_hand_values():
    for kind in ("gaussian", "exponential", "matern_3_2", "matern_5_2"):
        assert kernel_1d(kind, 0.0, 0.7, 1.0) == 1.0
    s5 = math.sqrt(5.0)
    assert kernel_1d("matern_5_2", 0.3, 0.3, 1.0) == pytest.approx(
        (1 + s5 + 5 / 3) * math.exp(-s5))
    assert kernel_1d("gaussian", 0.3, 0.3, 2.0) == pytest.approx(math.exp(-0.5))


def _doc(x, y, kind="matern_5_2", omega=0.4, sigma2=0.8, nugget=0.0):
    x = np.asarray(x, float).reshape(len(y), -1)
    y = np.asarray(y, float)
    d = x.shape[1]
    return {"degenerate": False,
            "scaling": {"x_min": x.min(0).tolist(),
                        "x_span": (x.max(0) - x.min(0)).tolist(),
                        "y_mean": float(y.mean()), "y_scale": float(y.std())},
            "kernel": {"kind": kind, "omega": [omega] * d, "p": [1.0] * d},
            "trend": {"kind": "constant", "mu": 0.0},
            "hyperparameters": {"sigma2": sigma2, "nugget": [nugget] * len(y)},
            "training": {"x": x.tolist(), "y": y.tolist()}}


def test_dense_gp_interpolates_noise_free_training_points():
    x = np.linspace(0.0, 1.0, 7)
    y = np.sin(4 * x)
    gp = DenseGP(_doc(x, y))
    mean, cov = gp.predict(x.reshape(-1, 1))
    assert mean == pytest.approx(y, abs=1e-9)
    assert np.abs(cov).max() < 1e-9
    _, cov_mid = gp.predict([[0.5 / 6]])
    assert cov_mid[0, 0] > 0


def test_dense_log_posterior_is_a_gaussian_density():
    x = np.linspace(0.0, 1.0, 6)
    theta_grid = np.linspace(-1.0, 1.0, 5)
    X = np.array([[a, t] for a in x for t in theta_grid])
    code = DenseGP(_doc(X, X[:, 0] + X[:, 1] ** 2, nugget=1e-8))
    bias = DenseGP(_doc(x, 0.1 * np.cos(3 * x), omega=0.5, sigma2=0.3, nugget=1e-3))
    x_iuq = np.array([[0.1], [0.45], [0.8]])
    y_iuq = np.array([0.4, 0.7, 1.1])
    noise = np.array([0.01, 0.02, 0.015])
    theta = np.array([0.3])
    got = dense_log_posterior(theta, code, bias, x_iuq, y_iuq, noise,
                              ([-1.0], [1.0]))
    mu, s_code = code.predict(np.hstack([x_iuq, np.full((3, 1), 0.3)]))
    delta, s_bias = bias.predict(x_iuq)
    want = (multivariate_normal.logpdf(y_iuq, mu + delta,
                                       np.diag(noise) + s_bias + s_code)
            + 1.5 * math.log(2 * math.pi) - math.log(2.0))
    assert got == pytest.approx(want, rel=1e-10)
    assert dense_log_posterior([1.5], code, bias, x_iuq, y_iuq, noise,
                               ([-1.0], [1.0])) == -math.inf


def test_bulk_ess_of_iid_draws_is_the_draw_count():
    n = 8000
    draws = np.random.default_rng(3).standard_normal(n)
    assert bulk_ess(draws) == pytest.approx(n, rel=0.1)


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_bulk_ess_of_ar1_draws(rho):
    n = 40000
    rng = np.random.default_rng(7)
    eps = rng.standard_normal(n) * math.sqrt(1 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    assert bulk_ess(x) == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.15)
