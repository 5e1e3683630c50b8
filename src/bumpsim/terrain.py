"""Gaussian-bump terrain: height, analytic slope, randomized track generation."""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass, field

DEFAULT_BUMP_HEIGHT = 0.008  # m, max bump height of the scaled-vehicle track
# The paper's tracks have a few bumps; each reset draws and builds all of them.
MAX_BUMPS = 10_000


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
    # Per bump (mu, H, -H, -2 sigma^2, sigma^2), fixed at construction; the
    # negations fold road2's signs in exactly. The variances stay divisors: a
    # stored reciprocal would round differently, in the last bits of a result.
    _terms: tuple[tuple[float, float, float, float, float], ...] = field(
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
            (b.center, b.height, -b.height, -2.0 * b.spread * b.spread,
             b.spread * b.spread)
            for b in self.bumps
        ))
        object.__setattr__(self, "_zero_bands", tuple(
            _zero_band(mu, h, -n2s2, s2) for mu, h, _, n2s2, s2 in self._terms))

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
            for mu, h, nh, n2s2, s2 in terms:
                d1 = x1 - mu
                d2 = x2 - mu
                e1 = exp(d1 * d1 / n2s2)
                e2 = exp(d2 * d2 / n2s2)
                g1 += h * e1
                g1_x += nh * d1 / s2 * e1
                g2 += h * e2
                g2_x += nh * d2 / s2 * e2
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
        if n == 0:  # random_track returns the flat track before it draws
            return
        lo, hi = self.placement_range
        if (hi - lo) - (n - 1) * self.min_spacing < 0.0:
            raise InfeasibleSpec(
                f"terrain.n_bumps: cannot place {n} bumps with spacing "
                f"{self.min_spacing} in [{lo}, {hi}]"
            )
        if not (n <= MAX_BUMPS):
            raise ValueError(f"terrain.n_bumps must be <= {MAX_BUMPS}, got {n}")
        if not (0.0 <= lo <= hi <= self.track_length):
            raise ValueError(
                f"terrain.placement_range must satisfy 0 <= lo <= hi <= "
                f"terrain.track_length ({self.track_length}), got [{lo}, {hi}]")
        if not (self.min_spacing >= 0.0):
            raise ValueError(
                f"terrain.min_spacing must be >= 0, got {self.min_spacing}")
        s_lo, s_hi = self.sigma_range
        if not (0.0 < s_lo <= s_hi):
            raise ValueError(
                f"terrain.sigma_range must satisfy 0 < lo <= hi, got [{s_lo}, {s_hi}]")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and its
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _words(n) -> list:
    """numpy's 32-bit words of a non-negative int, little-endian."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class TrackRng:
    """The stream of numpy's default_rng(SeedSequence(seed,
    spawn_key=spawn_key)), bit for bit, in the standard library, so that
    drawing a track or a network's initial weights does not load numpy.random.
    Without a key that is default_rng(seed).

    Seeding is numpy's SeedSequence over an int seed (a pool of 4 32-bit
    words) and its generate_state(4, uint64). With a key, the seed's words
    are zero-padded to the pool's 4 and the key's words follow. The generator
    is PCG64, XSL-RR 128/64 (O'Neill 2014), and a double is a draw's top 53
    bits times 2**-53. Without a seed it seeds from 128 bits of os.urandom, as
    numpy does from the OS, and keeps them as `entropy`. Invalid arguments
    raise numpy's exceptions, messages included.
    """

    def __init__(self, seed=None, spawn_key=()):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        self.entropy = operator.index(seed)
        entropy = _words(self.entropy)
        if spawn_key:
            entropy += [0] * (4 - len(entropy))
            for key in spawn_key:
                entropy += _words(key)
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return result ^ result >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in entropy[4:]:
            for i_dst in range(4):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        # generate_state(4, uint64): 8 words, paired low word first.
        hash_const, words = _INIT_B, []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        w = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        init_state, init_seq = w[0] << 64 | w[1], w[2] << 64 | w[3]
        # state 0, step, add init_state, step.
        self._inc = (init_seq << 1 | 1) & _MASK128
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _MASK128

    def _next_double(self) -> float:
        """Step, then output from the new state."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        value = (value >> rot | value << (64 - rot)) & _MASK64
        return (value >> 11) * 2.0**-53

    def uniform(self, low, high, size: int) -> list:
        """numpy's Generator.uniform(low, high, size=size), as a list."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:  # -0.0 too, as numpy's signbit
            raise ValueError("high - low < 0")
        return [low + span * self._next_double() for _ in range(size)]


def random_track(seed, spec: TrackSpec = TrackSpec()) -> TerrainProfile:
    """Deterministically generate a track with sorted, min-spaced bump centers.

    Accepts an int seed, which draws from TrackRng(seed), or a generator with
    numpy's uniform(low, high, size=n), such as a TrackRng or a numpy
    Generator.
    """
    lo, hi = spec.placement_range
    n = spec.n_bumps
    if n == 0:
        return TerrainProfile(bumps=(), track_length=spec.track_length)
    slack = (hi - lo) - (n - 1) * spec.min_spacing
    rng = seed if hasattr(seed, "uniform") else TrackRng(seed)
    # Spacing transform: sorted uniforms on the slack interval plus mandatory
    # gaps give exact min-spacing without rejection sampling. The sums run in
    # numpy's order, (lo + offset) + min_spacing * k.
    offsets = sorted(rng.uniform(0.0, slack, size=n))
    centers = [lo + o + spec.min_spacing * k for k, o in enumerate(offsets)]
    sigmas = rng.uniform(spec.sigma_range[0], spec.sigma_range[1], size=n)
    bumps = tuple(
        Bump(height=spec.bump_height, center=float(c), spread=float(s))
        for c, s in zip(centers, sigmas)
    )
    return TerrainProfile(bumps=bumps, track_length=spec.track_length)


FLAT = TerrainProfile(bumps=(), track_length=10.0)
