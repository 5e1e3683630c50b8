"""Episodic environment over the half-car, with three reward variants.

All rewards are non-positive quadratic penalties on the IMU deviation from
9.8 m/s^2 and the velocity tracking error. The "conditional" and
"function-weighted" variants raise the acceleration penalty when the terrain
preview signals an approaching bump (dynamic reward shaping).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sensors import CameraSpec, Observation, observe
from .terrain import FLAT, TerrainProfile, TrackSpec, random_track
from .vehicle import (
    GRAVITY_NOMINAL,
    VehicleParams,
    VehicleState,
    derivatives,
    step_rk4,
)

STATIC = "static"
CONDITIONAL = "conditional"
FUNCTION_WEIGHTED = "function_weighted"
REWARD_VARIANTS = (STATIC, CONDITIONAL, FUNCTION_WEIGHTED)


class EnvNotReset(RuntimeError):
    """step() called before reset()."""


class NonFiniteAction(ValueError):
    """Action is NaN or infinite."""


@dataclass(frozen=True)
class RewardSpec:
    """Which reward variant to use and its weights.

    variant: "static", "conditional", or "function_weighted".
    w2: weight on the velocity tracking term.
    x_dot_d: desired longitudinal velocity, m/s.
    threshold: preview level that triggers the heavy acceleration weight
        (conditional variant).
    slope: linear preview-to-weight factor, w(p) = slope * p
        (function-weighted variant).
    heavy_weight: acceleration weight above threshold (conditional variant).
    """

    variant: str = FUNCTION_WEIGHTED
    w2: float = 75.0
    x_dot_d: float = 1.0
    threshold: float = 0.05
    slope: float = 100.0
    heavy_weight: float = 100.0

    def __post_init__(self):
        if self.variant not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant {self.variant!r}")
        if not (self.w2 > 0.0):
            raise ValueError("w2 must be positive")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        if not (self.slope > 0.0):
            raise ValueError("slope must be positive")


def reward(obs: Observation, spec: RewardSpec) -> float:
    """Shaped quadratic penalty; zero at nominal acceleration and desired speed."""
    acc_dev = obs.z_ddot_meas - GRAVITY_NOMINAL
    vel_dev = obs.x_dot - spec.x_dot_d
    vel_term = spec.w2 * vel_dev * vel_dev
    if spec.variant == STATIC:
        w1 = 1.0
    elif spec.variant == CONDITIONAL:
        w1 = spec.heavy_weight if obs.p > spec.threshold else 1.0
    else:
        w1 = spec.slope * obs.p
    return -w1 * acc_dev * acc_dev - vel_term


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode shape: time step, length limits, track source, initial speed."""

    dt: float = 1.0 / 120.0
    max_steps: int = 3600
    track_spec: TrackSpec = field(default_factory=TrackSpec)
    fixed_track: TerrainProfile | None = None  # overrides track_spec
    initial_x_dot: float = 0.0

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.max_steps > 0):
            raise ValueError("max_steps must be positive")


class BumpEnv:
    """Gym-style environment: observation (x_dot, z_ddot_meas, p), action u_x."""

    def __init__(self, params: VehicleParams = VehicleParams(),
                 camera: CameraSpec = CameraSpec(),
                 reward_spec: RewardSpec = RewardSpec(),
                 episode: EpisodeConfig = EpisodeConfig()):
        self.params = params
        self.camera = camera
        self.reward_spec = reward_spec
        self.episode = episode
        self._rng = np.random.default_rng()
        self._state: VehicleState | None = None
        self._terrain: TerrainProfile = FLAT
        self._steps = 0
        self._t = 0.0

    @property
    def terrain(self) -> TerrainProfile:
        return self._terrain

    def reset(self, seed=None) -> Observation:
        """Start a new episode; a seed makes the randomized track deterministic."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self.episode.fixed_track is not None:
            self._terrain = self.episode.fixed_track
        else:
            self._terrain = random_track(self._rng, self.episode.track_spec)
        self._state = VehicleState(x_dot=self.episode.initial_x_dot)
        self._steps = 0
        self._t = 0.0
        z_ddot = derivatives(self._state, 0.0, self.params, self._terrain)[3]
        return observe(self._state, z_ddot, self._terrain, self.camera, self.params)

    def step(self, action: float):
        """Advance one control period; returns (obs, reward, done, info)."""
        if self._state is None:
            raise EnvNotReset("call reset() before step()")
        if not math.isfinite(action):
            raise NonFiniteAction(f"action must be finite, got {action}")
        u_x = min(max(float(action), 0.0), self.params.u_max)
        # step_rk4 also returns the model z_ddot at the new state; it serves
        # both the IMU channel and info, which keeps the raw value:
        # (z_ddot + 9.8) - 9.8 need not equal z_ddot.
        self._state, z_ddot = step_rk4(
            self._state, u_x, self.params, self._terrain, self.episode.dt
        )
        self._steps += 1
        self._t += self.episode.dt
        obs = observe(self._state, z_ddot, self._terrain, self.camera, self.params)
        r = reward(obs, self.reward_spec)
        done = (
            self._state.x >= self._terrain.track_length
            or self._steps >= self.episode.max_steps
        )
        info = {
            "t": self._t,
            "x": self._state.x,
            "x_dot": self._state.x_dot,
            "u_x": u_x,
            "z": self._state.z,
            "theta": self._state.theta,
            "z_ddot_model": z_ddot,
            "p": obs.p,
        }
        return obs, r, done, info
