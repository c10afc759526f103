"""Adaptive random-walk Metropolis sampling.

The proposal is Gaussian. During burn-in its global scale is tuned toward an
acceptance rate in [0.2, 0.4] and its shape is replaced by the empirical
covariance of the chain so far; all adaptation freezes at the end of burn-in
so the post-burn-in kernel targets the exact posterior. Chains are
bit-reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NumericalError
from .fileio import write_csv
from .priors import PriorSpec

#: proposals between two burn-in adaptations
ADAPT_EVERY = 50
#: the acceptance rate the burn-in scale updates aim at: the middle of
#: [0.2, 0.4]
TARGET_ACCEPT = 0.5 * (0.2 + 0.4)


@dataclass
class PosteriorChain:
    """MCMC output: the full chain (burn-in included) in physical units plus
    the log-posterior trace and sampling metadata."""

    samples: np.ndarray
    log_post: np.ndarray
    n_burn: int
    thin: int
    seed: int
    accept_rate: float
    param_names: tuple

    @property
    def post_burn(self) -> np.ndarray:
        return self.samples[self.n_burn::self.thin]

    def summary(self) -> dict:
        kept = self.post_burn
        qs = np.percentile(kept, [2.5, 25, 50, 75, 97.5], axis=0)
        per = {}
        for j, name in enumerate(self.param_names):
            per[name] = {
                "mean": float(kept[:, j].mean()),
                "std": float(kept[:, j].std()),
                "q2.5": float(qs[0, j]), "q25": float(qs[1, j]),
                "median": float(qs[2, j]), "q75": float(qs[3, j]),
                "q97.5": float(qs[4, j]),
            }
        return {"n_samples": int(kept.shape[0]), "n_burn": int(self.n_burn),
                "thin": int(self.thin), "seed": int(self.seed),
                "accept_rate": float(self.accept_rate), "parameters": per}

    def save_csv(self, path) -> None:
        """Post-burn-in, thinned samples; one parameter vector per row."""
        write_csv(path, self.param_names, self.post_burn)


def mcmc_sample(log_posterior, prior: PriorSpec, n_samples: int,
                n_burn: int | None = None, seed: int = 0, thin: int = 1,
                param_names=None) -> PosteriorChain:
    """Sample ``n_samples`` post-burn-in draws (after thinning) from an
    unnormalized log posterior with adaptive random-walk Metropolis.

    The chain starts at the prior nominal, and the initial proposal
    covariance is diag((prior std / 10)^2). Every ``ADAPT_EVERY`` burn-in
    proposals the proposal scale follows a multiplicative update toward the
    acceptance rate ``TARGET_ACCEPT`` (so posteriors much narrower than the
    prior are reachable within a modest burn-in), and once the chain holds
    max(200, 20 d) states the proposal shape is refreshed from its empirical
    covariance. Burn-in defaults to 20% of the requested samples. Raises when
    the post-adaptation acceptance rate collapses below 1%.
    """
    if n_samples < 1:
        raise FitError(f"n_samples must be >= 1, got {n_samples}")
    if thin < 1:
        raise FitError(f"thin must be >= 1, got {thin}")
    d = prior.dim
    if n_burn is None:
        n_burn = max(1, int(0.2 * n_samples))
    total = n_burn + n_samples * thin
    names = tuple(param_names) if param_names else tuple(
        f"theta{j + 1}" for j in range(d))

    rng = np.random.default_rng(seed)
    x = np.asarray(prior.nominal, dtype=float).copy()
    lp = float(log_posterior(x))
    if not math.isfinite(lp):
        raise NumericalError("log posterior is not finite at the initial point")

    base_cov = np.diag((prior.stds / 10.0) ** 2)
    L = np.linalg.cholesky(base_cov)
    scale = 1.0
    min_history = max(200, 20 * d)

    samples = np.empty((total, d))
    log_post = np.empty(total)
    accepted = np.zeros(total, dtype=bool)
    window_acc = 0

    for t in range(total):
        z = rng.standard_normal(d)
        u = rng.uniform()
        prop = x + scale * (L @ z)
        lp_prop = float(log_posterior(prop))
        if math.log(u) < lp_prop - lp:
            x, lp = prop, lp_prop
            accepted[t] = True
            window_acc += 1
        samples[t] = x
        log_post[t] = lp

        if t + 1 < n_burn and (t + 1) % ADAPT_EVERY == 0:
            rate = window_acc / ADAPT_EVERY
            window_acc = 0
            scale *= math.exp(2.0 * (rate - TARGET_ACCEPT))
            if t + 1 >= min_history:
                emp = np.cov(samples[:t + 1].T).reshape(d, d)
                emp = (2.38 ** 2 / d) * emp + 1e-12 * np.eye(d)
                try:
                    L = np.linalg.cholesky(emp)
                    scale = 1.0
                except np.linalg.LinAlgError:
                    pass

    post_rate = float(np.mean(accepted[n_burn:]))
    if post_rate < 0.01:
        raise FitError(
            f"MCMC acceptance rate collapsed to {post_rate:.4f} after "
            "adaptation; the posterior is likely degenerate or the proposal "
            "scale failed to adapt")
    return PosteriorChain(samples=samples, log_post=log_post, n_burn=n_burn,
                          thin=thin, seed=seed, accept_rate=post_rate,
                          param_names=names)
