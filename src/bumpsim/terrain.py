"""Gaussian-bump terrain: height, analytic slope, randomized track generation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_BUMP_HEIGHT = 0.008  # m, max bump height of the scaled-vehicle track


class InfeasibleSpec(ValueError):
    """Requested bump count/spacing cannot fit in the placement window."""


@dataclass(frozen=True)
class Bump:
    """Single Gaussian bump: g_j(x) = height * exp(-(x - center)^2 / (2 spread^2))."""

    height: float
    center: float
    spread: float

    def __post_init__(self):
        if not (self.height > 0.0):
            raise ValueError(f"bump height must be positive, got {self.height}")
        if not (self.spread > 0.0):
            raise ValueError(f"bump spread must be positive, got {self.spread}")


@dataclass(frozen=True)
class TerrainProfile:
    """Immutable road profile: a sum of Gaussian bumps over a finite track."""

    bumps: tuple[Bump, ...] = ()
    track_length: float = 10.0
    # Per bump (mu, H, 2 sigma^2, sigma^2), fixed at construction. The
    # variances stay divisors: multiplying by a stored reciprocal would round
    # differently and move every result in its last bits.
    _terms: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        for b in self.bumps:
            if not (0.0 <= b.center <= self.track_length):
                raise ValueError(
                    f"bump center {b.center} outside track [0, {self.track_length}]"
                )
        object.__setattr__(self, "_terms", tuple(
            (b.center, b.height, 2.0 * b.spread * b.spread, b.spread * b.spread)
            for b in self.bumps
        ))

    def height_slope(self, x: float) -> tuple[float, float]:
        """Road elevation g(x) = sum_j H_j exp(-(x - mu_j)^2 / (2 sigma_j^2))
        and its analytic derivative g'(x), sharing one exp per bump."""
        g = 0.0
        g_x = 0.0
        for mu, h, two_s2, s2 in self._terms:
            d = x - mu
            e = math.exp(-d * d / two_s2)
            g += h * e
            g_x += -h * d / s2 * e
        return g, g_x

    def height(self, x: float) -> float:
        """Road elevation g(x)."""
        return self.height_slope(x)[0]

    def slope(self, x: float) -> float:
        """Analytic derivative g'(x)."""
        return self.height_slope(x)[1]

    @property
    def max_bump_height(self) -> float:
        return max((b.height for b in self.bumps), default=0.0)

    def to_json(self) -> str:
        doc = {
            "track_length": self.track_length,
            "bumps": [
                {"H": b.height, "mu": b.center, "sigma": b.spread} for b in self.bumps
            ],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "TerrainProfile":
        doc = json.loads(text)
        bumps = tuple(
            Bump(height=b["H"], center=b["mu"], spread=b["sigma"])
            for b in doc["bumps"]
        )
        return cls(bumps=bumps, track_length=doc["track_length"])


@dataclass(frozen=True)
class TrackSpec:
    """Parameters for randomized track generation."""

    track_length: float = 10.0
    n_bumps: int = 3
    sigma_range: tuple[float, float] = (0.03, 0.08)
    min_spacing: float = 1.0
    placement_range: tuple[float, float] = (2.0, 9.0)
    bump_height: float = DEFAULT_BUMP_HEIGHT

    def __post_init__(self):
        n = self.n_bumps
        if not (n >= 0):
            raise ValueError(f"terrain.n_bumps must be >= 0, got {n}")
        if not (self.bump_height > 0.0):
            raise ValueError(
                f"terrain.bump_height must be positive, got {self.bump_height}")
        lo, hi = self.placement_range
        if n > 0 and (hi - lo) - (n - 1) * self.min_spacing < 0.0:
            raise InfeasibleSpec(
                f"terrain.n_bumps: cannot place {n} bumps with spacing "
                f"{self.min_spacing} in [{lo}, {hi}]"
            )


def random_track(seed, spec: TrackSpec = TrackSpec()) -> TerrainProfile:
    """Deterministically generate a track with sorted, min-spaced bump centers.

    Accepts an int seed or a numpy Generator.
    """
    lo, hi = spec.placement_range
    n = spec.n_bumps
    if n == 0:
        return TerrainProfile(bumps=(), track_length=spec.track_length)
    slack = (hi - lo) - (n - 1) * spec.min_spacing
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # Spacing transform: sorted uniforms on the slack interval plus mandatory
    # gaps give exact min-spacing without rejection sampling.
    offsets = np.sort(rng.uniform(0.0, slack, size=n))
    centers = lo + offsets + spec.min_spacing * np.arange(n)
    sigmas = rng.uniform(spec.sigma_range[0], spec.sigma_range[1], size=n)
    bumps = tuple(
        Bump(height=spec.bump_height, center=float(c), spread=float(s))
        for c, s in zip(centers, sigmas)
    )
    return TerrainProfile(bumps=bumps, track_length=spec.track_length)


FLAT = TerrainProfile(bumps=(), track_length=10.0)
