"""Gaussian-bump terrain: height, analytic slope, randomized track generation."""

from __future__ import annotations

import math
import sys
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


def _zero_band(mu, h, two_s2, s2):
    """(far_lo, lo, hi, far_hi) for one bump: its height and slope terms,
    h exp(-d^2 / two_s2) and -h d / s2 exp(-d^2 / two_s2) with d = x - mu, are
    each exactly +0.0 or -0.0 for every x in [far_lo, lo) or (hi, far_hi].

    exp underflows to exactly 0.0 below -745.2. Past the reach
    sqrt(760 two_s2) from mu, d^2 / two_s2 exceeds 760, which leaves room for
    the rounding of d, d^2 and the reach itself. Within `span` of mu, d and
    h d / s2 stay finite, so the slope term is a finite number times 0.0
    and not inf * 0.0 = NaN. A bump whose variance is not a normal float, or
    whose height is infinite, is never left out.
    """
    if not (two_s2 >= sys.float_info.min and math.isfinite(h)):
        return -math.inf, -math.inf, math.inf, math.inf
    reach = math.sqrt(760.0 * two_s2)
    span = sys.float_info.max / 4.0 / max(1.0, h, h / s2)
    return mu - span, mu - reach, mu + reach, mu + span


@dataclass(frozen=True)
class TerrainProfile:
    """Immutable road profile: a sum of Gaussian bumps over a finite track."""

    bumps: tuple[Bump, ...] = ()
    track_length: float = 10.0
    max_bump_height: float = field(init=False, repr=False, compare=False)
    # Per bump (mu, H, 2 sigma^2, sigma^2), fixed at construction. The
    # variances stay divisors: multiplying by a stored reciprocal would round
    # differently and move every result in its last bits.
    _terms: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)
    # Per bump, where its term is exactly zero (see _zero_band).
    _zero_bands: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        for b in self.bumps:
            if not (0.0 <= b.center <= self.track_length):
                raise ValueError(
                    f"bump center {b.center} outside track [0, {self.track_length}]"
                )
        object.__setattr__(self, "max_bump_height",
                           max((b.height for b in self.bumps), default=0.0))
        object.__setattr__(self, "_terms", tuple(
            (b.center, b.height, 2.0 * b.spread * b.spread, b.spread * b.spread)
            for b in self.bumps
        ))
        object.__setattr__(self, "_zero_bands", tuple(
            _zero_band(*t) for t in self._terms))

    def wheels(self, a: float, b: float):
        """Road at both wheels over the window [a, b]: returns road2(x1, x2)
        -> (g(x1), g'(x1), g(x2), g'(x2)), where g(x) = sum_j H_j exp(-(x -
        mu_j)^2 / (2 sigma_j^2)) and g' is its analytic derivative, one exp
        per bump and wheel.

        Exact, bit for bit, for x1 and x2 in [a, b]: road2 sums, in bump
        order, only the bumps whose terms can be nonzero somewhere in the
        window. Each term it leaves out is +0.0 or -0.0 there, and adding
        either to these sums changes no bit: they start at +0.0, and a
        round-to-nearest sum is -0.0 only when both operands are, so they are
        never -0.0. A window with a NaN or infinite end keeps every bump.

        Returns None when no bump is left: every term is +0.0 or -0.0 on the
        whole window, and road2 would return (0.0, 0.0, 0.0, 0.0).
        """
        # A list: tuple() over a generator allocates a larger tuple and
        # shrinks it, and those shrunk tuples pile up on CPython's tuple free
        # lists (about 0.4 MB of peak RSS over an episode).
        terms = [t for t, (far_lo, lo, hi, far_hi) in zip(self._terms, self._zero_bands)
                 if not (far_lo <= a and b < lo or hi < a and b <= far_hi)]
        if not terms:
            return None
        exp = math.exp

        def road2(x1, x2):
            g1 = g1_x = g2 = g2_x = 0.0
            for mu, h, two_s2, s2 in terms:
                d1 = x1 - mu
                d2 = x2 - mu
                e1 = exp(-d1 * d1 / two_s2)
                e2 = exp(-d2 * d2 / two_s2)
                g1 += h * e1
                g1_x += -h * d1 / s2 * e1
                g2 += h * e2
                g2_x += -h * d2 / s2 * e2
            return g1, g1_x, g2, g2_x

        return road2

    def height_slope(self, x: float) -> tuple[float, float]:
        """Road elevation g(x) and its analytic derivative g'(x)."""
        road2 = self.wheels(x, x)
        if road2 is None:
            return 0.0, 0.0
        g, g_x, _, _ = road2(x, x)
        return g, g_x

    def height(self, x: float) -> float:
        """Road elevation g(x)."""
        return self.height_slope(x)[0]

    def slope(self, x: float) -> float:
        """Analytic derivative g'(x)."""
        return self.height_slope(x)[1]


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
