"""Parameter spaces and design matrices.

A ``ParameterSpace`` is a box in physical units; a ``DesignMatrix`` holds
points in the unit hypercube together with the space needed to map them back
to physical coordinates. All design generation happens on the unit cube;
physical units only appear at the I/O boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_csv, write_json


@dataclass(frozen=True, eq=False)
class ParameterSpace:
    """Axis-aligned box of named parameters with physical bounds."""

    names: tuple
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, names: Sequence[str], lower, upper):
        names = tuple(str(n) for n in names)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1:
            raise ConfigError("bounds must be 1-D sequences")
        if not (len(names) == lower.size == upper.size):
            raise ConfigError(
                f"inconsistent dimensions: {len(names)} names, "
                f"{lower.size} lower bounds, {upper.size} upper bounds")
        if len(set(names)) != len(names):
            raise ConfigError(f"parameter names are not unique: {names}")
        if not np.all(lower < upper):
            bad = [names[k] for k in np.nonzero(~(lower < upper))[0]]
            raise ConfigError(f"lower bound must be < upper bound for {bad}")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return len(self.names)

    def unscale(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates to physical units."""
        u = np.asarray(u, dtype=float)
        return self.lower + u * (self.upper - self.lower)

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Point set in the unit cube, tied to a ParameterSpace for unscaling.

    ``meta`` records how the design was generated (method, seed, skip) so a
    serialized design can be reproduced.
    """

    points: np.ndarray
    space: ParameterSpace
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, self.space.dim)
        if pts.shape[1] != self.space.dim:
            raise DataError(
                f"design has {pts.shape[1]} columns, space has {self.space.dim}")
        if pts.size and (pts.min() < -1e-12 or pts.max() > 1 + 1e-12):
            raise DataError("design coordinates must lie in [0, 1]")
        pts = np.clip(pts, 0.0, 1.0)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.space.dim

    def to_physical(self) -> np.ndarray:
        return self.space.unscale(self.points)

    def min_distance(self) -> float:
        """Smallest pairwise Euclidean distance in unit-cube coordinates."""
        if self.m < 2:
            return float("inf")
        from scipy.spatial.distance import pdist
        return float(pdist(self.points).min())

    def write_csv(self, path) -> None:
        """Write physical-unit CSV plus a ``.meta.json`` sidecar with the
        generation record and unit-cube coordinates."""
        path = Path(path)
        write_csv(path, self.space.names, self.to_physical())
        write_json(path.with_suffix(path.suffix + ".meta.json"), {
            "method": self.meta.get("method"),
            "seed": self.meta.get("seed"),
            "skip": self.meta.get("skip"),
            "n": self.m,
            "space": self.space.to_dict(),
            "unit_cube": self.points.tolist(),
        })
