"""Correctness oracles written apart from gpcal's own code.

* the simulator formulas, evaluated here rather than through gpcal's
  simulator bindings;
* a dense GP predictor and log posterior rebuilt from the serialized
  emulators (``gpcode.json``/``gpbias.json``) with this file's kernel formulas
  and plain ``numpy.linalg`` solves, under
  Sigma = Sigma_exp + Sigma_bias + Sigma_code(theta);
* the rank-normalized split bulk effective sample size of Vehtari, Gelman,
  Simpson, Carpenter & Buerkner (2021, Bayesian Analysis 16(2)).

``test_oracles.py`` holds a small self-test for each.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


# -- simulator formulas -----------------------------------------------------

def linear_formula(x, theta):
    """Builtin ``linear``: y = theta1 * x + theta2."""
    x = np.atleast_2d(x)
    theta = np.atleast_2d(theta)
    return theta[:, 0] * x[:, 0] + theta[:, 1]


def decay_formula(x, theta):
    """``sim_decay.py``: y = a exp(-k x1) + c x2 + 0.5 x1 x2."""
    x = np.atleast_2d(x)
    theta = np.atleast_2d(theta)
    a, k, c = theta[:, 0], theta[:, 1], theta[:, 2]
    return a * np.exp(-k * x[:, 0]) + c * x[:, 1] + 0.5 * x[:, 0] * x[:, 1]


# -- dense GP and log posterior ----------------------------------------------

def kernel_1d(kind, h, omega, p):
    """One-dimensional correlation at distance h >= 0 (scaled inputs)."""
    t = h / omega
    if kind == "gaussian":
        return np.exp(-0.5 * t * t)
    if kind == "exponential":
        return np.exp(-t)
    if kind == "power_exponential":
        return np.exp(-t ** p)
    if kind == "linear":
        return np.clip(1.0 - t, 0.0, None)
    if kind == "matern_3_2":
        return (1.0 + math.sqrt(3.0) * t) * np.exp(-math.sqrt(3.0) * t)
    if kind == "matern_5_2":
        return ((1.0 + math.sqrt(5.0) * t + (5.0 / 3.0) * t * t)
                * np.exp(-math.sqrt(5.0) * t))
    raise ValueError(f"no oracle kernel for {kind!r}")


def correlation(A, B, kind, omega, p):
    """Tensor-product correlation matrix between point sets A and B."""
    K = np.ones((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        K *= kernel_1d(kind, np.abs(A[:, None, k] - B[None, :, k]), omega[k], p[k])
    return K


class DenseGP:
    """Kriging predictor rebuilt from an emulator's JSON document.

    Uses the stored scaling, kernel, process variance and nugget, and
    re-derives the GLS trend coefficients with dense solves.
    """

    def __init__(self, doc: dict):
        if doc["degenerate"]:
            raise ValueError("dense oracle does not cover degenerate emulators")
        sc = doc["scaling"]
        self.x_min = np.asarray(sc["x_min"])
        self.x_span = np.asarray(sc["x_span"])
        self.y_mean = sc["y_mean"]
        self.y_scale = sc["y_scale"]
        kern = doc["kernel"]
        self.kind = kern["kind"]
        self.omega = np.asarray(kern["omega"])
        self.p = np.asarray(kern["p"])
        self.trend = doc["trend"]
        hyper = doc["hyperparameters"]
        self.sigma2 = hyper["sigma2"]
        self.X = (np.asarray(doc["training"]["x"]) - self.x_min) / self.x_span
        y = (np.asarray(doc["training"]["y"]) - self.y_mean) / self.y_scale
        self.R = self._corr(self.X, self.X) + np.diag(hyper["nugget"])
        F = self._basis(self.X)
        self.RiF = np.linalg.solve(self.R, F)
        self.FRiF = F.T @ self.RiF
        if self.trend["kind"] == "known_constant":
            self.beta = np.empty(0)
            resid = y - (self.trend["mu"] - self.y_mean) / self.y_scale
        else:
            self.beta = np.linalg.solve(self.FRiF, self.RiF.T @ y)
            resid = y - F @ self.beta
        self.alpha = np.linalg.solve(self.R, resid)

    def _corr(self, A, B):
        return correlation(A, B, self.kind, self.omega, self.p)

    def _basis(self, Xs):
        kind = self.trend["kind"]
        if kind == "known_constant":
            return np.empty((Xs.shape[0], 0))
        if kind == "constant":
            return np.ones((Xs.shape[0], 1))
        if kind == "linear":
            return np.hstack([np.ones((Xs.shape[0], 1)), Xs])
        raise ValueError(f"no oracle trend for {kind!r}")

    def predict(self, x):
        """Predictive mean and covariance, physical units."""
        Xs = (np.atleast_2d(x) - self.x_min) / self.x_span
        r = self._corr(self.X, Xs)
        f = self._basis(Xs)
        if self.trend["kind"] == "known_constant":
            trend = np.full(Xs.shape[0],
                            (self.trend["mu"] - self.y_mean) / self.y_scale)
        else:
            trend = f @ self.beta
        mean = trend + r.T @ self.alpha
        Rir = np.linalg.solve(self.R, r)
        cov = self._corr(Xs, Xs) - r.T @ Rir
        if f.shape[1]:
            u = self.RiF.T @ r - f.T
            cov += u.T @ np.linalg.solve(self.FRiF, u)
        return (mean * self.y_scale + self.y_mean,
                self.sigma2 * cov * self.y_scale ** 2)


def dense_log_posterior(theta, code: DenseGP, bias: DenseGP | None,
                        x_iuq, y_iuq, noise_var, prior_box):
    """log p(theta) - 1/2 log|Sigma| - 1/2 d' Sigma^-1 d, no 2 pi term,
    for independent uniform priors ``prior_box = (lower, upper)``."""
    theta = np.asarray(theta, dtype=float)
    lo, hi = (np.asarray(b, dtype=float) for b in prior_box)
    if np.any(theta < lo) or np.any(theta > hi):
        return -math.inf
    log_prior = -float(np.sum(np.log(hi - lo)))
    q = x_iuq.shape[0]
    mu, sigma_code = code.predict(np.hstack([x_iuq, np.tile(theta, (q, 1))]))
    if bias is None:
        delta, sigma_bias = np.zeros(q), np.zeros((q, q))
    else:
        delta, sigma_bias = bias.predict(x_iuq)
    sigma = np.diag(noise_var) + sigma_bias + sigma_code
    d = y_iuq - mu - delta
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return math.nan
    return log_prior - 0.5 * logdet - 0.5 * float(d @ np.linalg.solve(sigma, d))


# -- bulk effective sample size ------------------------------------------------

def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (M, N) array with Geyer's initial monotone
    sequence estimator, as in Vehtari et al. (2021), eqs. 10-13."""
    M, N = chains.shape
    centred = chains - chains.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * N - 1).bit_length()
    spec = np.fft.rfft(centred, n=nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), n=nfft, axis=1)[:, :N] / N
    w = float(np.mean(acov[:, 0])) * N / (N - 1.0)
    var_plus = w * (N - 1.0) / N
    if M > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau = -1.0
    prev = math.inf
    for t in range(0, N - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    tau = max(tau, 1.0 / math.log10(M * N))
    return M * N / tau


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain: split in halves, rank-normalize, then ESS."""
    x = np.asarray(draws, dtype=float).reshape(-1)
    n = x.size // 2
    if n < 4:
        raise ValueError("bulk ESS needs at least 8 draws")
    split = np.stack([x[:n], x[x.size - n:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess(z)
