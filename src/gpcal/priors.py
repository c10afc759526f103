"""Prior distributions for calibration parameters."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError, DataError

_KINDS = ("uniform", "normal", "lognormal")

# scipy.stats.norm's log normalising constant and lognorm's sqrt(2 pi), as
# scipy computes them
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))
_SQRT_2PI = np.sqrt(2 * np.pi)


@dataclass(frozen=True)
class Prior1D:
    """One marginal prior: uniform(lower, upper), normal(mean, sd) or
    lognormal(log_mean, log_sd) with (log_mean, log_sd) the log-space
    parameters. The constructors' parameter names are the config keys."""

    kind: str
    p1: float
    p2: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown prior kind {self.kind!r}; options: {_KINDS}")
        if self.kind == "uniform" and not self.p1 < self.p2:
            raise ConfigError(f"uniform prior needs lower < upper, got "
                              f"({self.p1}, {self.p2})")
        if self.kind in ("normal", "lognormal") and not self.p2 > 0:
            raise ConfigError(f"{self.kind} prior needs sigma > 0, got {self.p2}")

    @classmethod
    def uniform(cls, lower, upper):
        return cls("uniform", float(lower), float(upper))

    @classmethod
    def normal(cls, mean, sd):
        return cls("normal", float(mean), float(sd))

    @classmethod
    def lognormal(cls, log_mean, log_sd):
        return cls("lognormal", float(log_mean), float(log_sd))

    @property
    def support(self) -> tuple:
        if self.kind == "uniform":
            return (self.p1, self.p2)
        if self.kind == "lognormal":
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    @property
    def mean(self) -> float:
        if self.kind == "uniform":
            return 0.5 * (self.p1 + self.p2)
        if self.kind == "normal":
            return self.p1
        return math.exp(self.p1 + 0.5 * self.p2 ** 2)

    @property
    def std(self) -> float:
        if self.kind == "uniform":
            return (self.p2 - self.p1) / math.sqrt(12.0)
        if self.kind == "normal":
            return self.p2
        return self.mean * math.sqrt(math.expm1(self.p2 ** 2))

    @property
    def _density_bounds(self) -> tuple:
        """The closed interval on which the density is positive: the
        support, a lognormal's open end at 0 closed at the least positive
        float."""
        if self.kind == "lognormal":
            return (math.nextafter(0.0, 1.0), math.inf)
        return self.support

    @property
    def _log_density(self):
        """The log density inside ``_density_bounds``: a float where it is
        constant (uniform), else a function of a contiguous 1-D array of
        values there, bit-identical to ``scipy.stats`` ``norm`` and
        ``lognorm`` ``logpdf``, whose operations it repeats in order on
        arrays (numpy's scalar and array paths can differ in the last
        bit)."""
        if self.kind == "uniform":
            return -math.log(self.p2 - self.p1)
        return self._normal_logpdf if self.kind == "normal" else self._lognormal_logpdf

    def _normal_logpdf(self, v):
        z = (v - self.p1) / self.p2
        return -z**2 / 2.0 - _LOG_SQRT_2PI - np.log(np.array([self.p2]))

    def _lognormal_logpdf(self, v):
        s = np.array([self.p2])
        scale = np.array([math.exp(self.p1)])
        x = v / scale
        return -np.log(x)**2 / (2 * s**2) - np.log(s * x * _SQRT_2PI) - np.log(scale)

    def ppf(self, u):
        """Inverse CDF at u; bit-identical to ``scipy.stats`` ``ppf``,
        including u = 0 and 1 (the support's ends) and u outside [0, 1]
        (nan)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "uniform":
            return self.p1 + u * (self.p2 - self.p1)
        if self.kind == "normal":
            return ndtri(u) * self.p2 + self.p1
        return np.exp(self.p2 * ndtri(u)) * math.exp(self.p1)

    def to_dict(self) -> dict:
        return {"dist": self.kind, "p1": self.p1, "p2": self.p2}


class PriorSpec:
    """Independent marginal priors for each calibration component, plus the
    nominal point theta0 used as the current best parameter knowledge."""

    def __init__(self, components: Sequence[Prior1D], nominal=None):
        self.components = tuple(components)
        if not self.components:
            raise ConfigError("PriorSpec needs at least one component")
        if nominal is None:
            nominal = [c.mean for c in self.components]
        self.nominal = np.asarray(nominal, dtype=float)
        if self.nominal.size != len(self.components):
            raise ConfigError(
                f"nominal has {self.nominal.size} entries for "
                f"{len(self.components)} prior components")
        # what contains and log_prior need of each component, bound once
        self._lo, self._hi = np.array([c._density_bounds for c in self.components]).T
        self._densities = tuple(c._log_density for c in self.components)
        if not self.contains(self.nominal):
            raise ConfigError(f"nominal point {self.nominal.tolist()} lies where "
                              "the prior density is zero")
        self.nominal.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def stds(self) -> np.ndarray:
        return np.array([c.std for c in self.components])

    def _stack(self, theta) -> np.ndarray:
        """theta as a (K, dim) stack, a (dim,) theta a stack of one."""
        theta = np.asarray(theta, dtype=float)
        stack = theta if theta.ndim == 2 else theta.reshape(1, -1)
        if stack.shape[1] != self.dim:
            raise DataError(f"theta has {stack.shape[1]} entries, expected {self.dim}")
        return stack

    def contains(self, theta) -> bool:
        """Whether theta (d,), or every row of a (K, d) stack, lies where
        the prior density is positive: inside the bounds :meth:`log_prior`
        checks."""
        stack = self._stack(theta)
        return bool(np.all((self._lo <= stack) & (stack <= self._hi)))

    def log_prior(self, theta):
        """The sum of the marginal log densities, -inf outside the support:
        K values for a (K, d) stack and a float for a theta (d,), its stack
        of one's value. One support check covers the stack; the rows inside
        it add each component's term in component order, a uniform's
        constant bound once, so each row has the bits of the sum of its
        components' ``scipy.stats`` log densities."""
        stack = self._stack(theta)
        inside = ((self._lo <= stack) & (stack <= self._hi)).all(axis=1)
        total, columns = 0.0, None
        for k, density in enumerate(self._densities):
            if not isinstance(density, float):
                if columns is None:     # the inside rows, each column contiguous
                    columns = stack[inside].T.copy()
                density = density(columns[k])
            total = total + density
        out = np.full(len(stack), -math.inf)
        out[inside] = total
        return out if np.ndim(theta) == 2 else float(out[0])

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Map unit-cube coordinates (q, dim) through the marginal inverse CDFs."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        for k, c in enumerate(self.components):
            out[:, k] = c.ppf(u[:, k])
        return out

    def to_dict(self) -> dict:
        return {"components": [c.to_dict() for c in self.components],
                "nominal": self.nominal.tolist()}
