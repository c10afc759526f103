"""Space-filling experimental designs on the unit hypercube.

All generators are deterministic given their seed/skip arguments and return
``DesignMatrix`` objects; mapping to physical units is the caller's problem
(``DesignMatrix.to_physical``). Sampling from non-uniform priors is done
downstream by pushing unit-cube coordinates through inverse CDFs, which keeps
the design layer purely geometric.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError
from .spaces import DesignMatrix, ParameterSpace


def _lhs_points(n: int, d: int, rng: np.random.Generator, midpoint: bool) -> np.ndarray:
    """One Latin hypercube sample: exactly one point per equal-width stratum
    in every dimension, strata paired by independent permutations."""
    pts = np.empty((n, d))
    for k in range(d):
        perm = rng.permutation(n)
        offset = np.full(n, 0.5) if midpoint else rng.uniform(size=n)
        pts[:, k] = (perm + offset) / n
    return pts


def lhs_design(n: int, space: ParameterSpace, seed: int,
               midpoint: bool = False) -> DesignMatrix:
    """Latin hypercube design with n points.

    Each dimension is split into n equal-width strata and receives exactly one
    point per stratum, placed uniformly at random inside it (or at the stratum
    midpoint when ``midpoint`` is set, for reproducibility studies). Column
    pairing uses an independent random permutation per dimension.
    """
    if n < 1:
        raise ConfigError(f"lhs_design requires n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    pts = _lhs_points(n, space.dim, rng, midpoint)
    return DesignMatrix(pts, space, meta={"method": "lhs", "seed": seed,
                                          "midpoint": midpoint})


def maximin_lhs(n: int, space: ParameterSpace, n_restarts: int,
                seed: int, midpoint: bool = False) -> DesignMatrix:
    """Best-of-restarts maximin Latin hypercube.

    Draws ``n_restarts`` independent LHS designs (candidate i uses seed + i,
    so the first candidate is exactly ``lhs_design(n, space, seed)``) and
    keeps the one with the largest minimum pairwise Euclidean distance in the
    unit cube. Ties go to the earliest candidate.
    """
    if n < 2:
        raise ConfigError(f"maximin_lhs requires n >= 2, got {n}")
    if n_restarts < 1:
        raise ConfigError(f"maximin_lhs requires n_restarts >= 1, got {n_restarts}")
    best = None
    best_dist = -np.inf
    for i in range(n_restarts):
        cand = lhs_design(n, space, seed + i, midpoint=midpoint)
        dist = cand.min_distance()
        if dist > best_dist:
            best, best_dist = cand, dist
    return DesignMatrix(best.points, space,
                        meta={"method": "maximin_lhs", "seed": seed,
                              "n_restarts": n_restarts, "min_distance": best_dist})


#: scipy.stats.qmc.Sobol.MAXDIM, the direction-number table limit; a literal,
#: since scipy.stats is imported only by the Sobol and Halton designs
SOBOL_MAX_DIM = 21201


def sobol_sequence(n: int, space: ParameterSpace, skip: int = 0) -> DesignMatrix:
    """First n Sobol points after dropping the all-zeros origin point and then
    ``skip`` further points.

    The sequence is generated from the Joe-Kuo direction numbers (up to
    ``SOBOL_MAX_DIM`` dimensions); because it is deterministic, requesting
    n + 1 points appends to the n-point design without changing it.
    """
    if n < 0:
        raise ConfigError(f"sobol_sequence requires n >= 0, got {n}")
    if skip < 0:
        raise ConfigError(f"skip must be >= 0, got {skip}")
    if space.dim > SOBOL_MAX_DIM:
        raise ConfigError(
            f"Sobol direction numbers available up to d={SOBOL_MAX_DIM}, "
            f"got d={space.dim}")
    from scipy.stats import qmc
    engine = qmc.Sobol(d=space.dim, scramble=False)
    engine.fast_forward(1 + skip)
    with warnings.catch_warnings():
        # balance holds for power-of-two n; arbitrary n is intentional here
        warnings.simplefilter("ignore", UserWarning)
        pts = engine.random(n) if n else np.empty((0, space.dim))
    return DesignMatrix(pts, space, meta={"method": "sobol", "skip": skip})


def halton_sequence(n: int, space: ParameterSpace, skip: int = 0) -> DesignMatrix:
    """First n Halton points, dimension k using the radical inverse in the
    k-th prime base, starting at index 1 + skip (index 0 is the origin and is
    never emitted)."""
    if n < 0:
        raise ConfigError(f"halton_sequence requires n >= 0, got {n}")
    if skip < 0:
        raise ConfigError(f"skip must be >= 0, got {skip}")
    from scipy.stats import qmc
    engine = qmc.Halton(d=space.dim, scramble=False)
    engine.fast_forward(1 + skip)
    return DesignMatrix(engine.random(n), space,
                        meta={"method": "halton", "skip": skip})

