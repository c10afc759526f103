"""Adaptive random-walk Metropolis sampling.

The proposal is Gaussian. During burn-in its global scale is tuned toward an
acceptance rate in [0.2, 0.4] and its shape is replaced by the empirical
covariance of the chain so far; all adaptation freezes at the end of burn-in
so the post-burn-in kernel targets the exact posterior. Chains are
bit-reproducible given the seed.

Most proposals are rejected, so the next few can be formed before the
current one is decided, on the assumption that each is rejected
(pre-fetching: Brockwell 2006, *J. Comput. Graph. Stat.*; Angelino,
Kohler, Waterland, Seltzer & Adams 2014, UAI). The target maps a (K, d)
stack of thetas to K log-posterior values. The sampler forms up to
``PREFETCH`` proposals from the current state, evaluates them in one call
of the target, and walks them in order. The first acceptance ends the
batch, and the next proposes from the new state. A batch also ends at each
burn-in adaptation step and at the end of the chain. Slot t always uses its
own random draws, made up front in slot order, so the draws, proposals and
decisions are those of the one-at-a-time chain, given the same
log-posterior values: only the number of target calls changes.

A stacked log posterior need not give a row the bits it gives the same
theta in a stack of another size (:func:`gpcal.calibration.make_log_posterior`).
A chain is still reproducible bit for bit, because which proposals share a
stack is a deterministic function of the chain: of the seed, ``PREFETCH``
and the batch-ending rules above. Changing any of them can change the last
bits of a log-posterior value, and with them an accept decision that fell
within that margin.
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
#: proposals evaluated in one call of the log posterior
PREFETCH = 4
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

    ``log_posterior`` maps a (K, d) stack of thetas to K values; the initial
    point is a stack of one (see the module docstring for the batches). An
    error a stacked call raises surfaces only if the chain reaches a row of
    that stack, which is then evaluated as a stack of one.
    """
    if n_samples < 1:
        raise FitError(f"n_samples must be >= 1, got {n_samples}")
    if thin < 1:
        raise FitError(f"thin must be >= 1, got {thin}")
    d = prior.dim
    if n_burn is None:
        n_burn = max(1, int(0.2 * n_samples))
    if n_burn < 0:
        raise FitError(f"n_burn must be >= 0, got {n_burn}")
    total = n_burn + n_samples * thin
    names = tuple(param_names) if param_names else tuple(
        f"theta{j + 1}" for j in range(d))

    rng = np.random.default_rng(seed)
    x = np.asarray(prior.nominal, dtype=float).copy()
    lp = float(log_posterior(x[None])[0])
    if not math.isfinite(lp):
        raise NumericalError("log posterior is not finite at the initial point")

    L = np.diag(prior.stds / 10.0)      # the initial covariance's Cholesky factor
    scale = 1.0
    min_history = max(200, 20 * d)

    samples = np.empty((total, d))
    log_post = np.empty(total)
    accepted = np.zeros(total, dtype=bool)
    # slot t's step and accept uniform; random() is uniform()'s draw, bit for bit
    zs, us = np.empty((total, d)), np.empty(total)
    for i in range(total):
        zs[i] = rng.standard_normal(d)
        us[i] = rng.random()

    t = 0
    while t < total:
        stop = min(total, t + PREFETCH)
        adapt_at = (t // ADAPT_EVERY + 1) * ADAPT_EVERY
        if adapt_at < n_burn:
            stop = min(stop, adapt_at)
        # one batched product; each proposal has the bits of L @ z alone
        props = x + scale * (L @ zs[t:stop, :, None])[:, :, 0]
        try:
            values = log_posterior(props)
        except Exception:
            values = None               # rows are evaluated as they are reached
        for j in range(len(props)):
            lp_prop = float(log_posterior(props[j:j + 1])[0] if values is None
                            else values[j])
            accept = math.log(us[t]) < lp_prop - lp
            if accept:
                x, lp = props[j], lp_prop
                accepted[t] = True
            samples[t] = x
            log_post[t] = lp
            t += 1
            if accept:
                break

        if t < n_burn and t % ADAPT_EVERY == 0:
            scale *= math.exp(2.0 * (accepted[t - ADAPT_EVERY:t].mean() - TARGET_ACCEPT))
            if t >= min_history:
                emp = np.cov(samples[:t].T).reshape(d, d)
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
