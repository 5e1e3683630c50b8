"""JSON run configuration: strict keys and types, resolved echo.

The dataclasses hold every default. Each section's keys are its class's
fields in order; a key's JSON type follows the field's annotation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .env import EpisodeConfig, RewardSpec
from .sensors import CameraSpec
from .terrain import Bump, TerrainProfile, TrackSpec
from .vehicle import VehicleParams


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass(frozen=True)
class AgentConfig:
    """Training hyperparameters; defaults follow the training-parameter table."""

    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    gamma: float = 0.99
    batch_size: int = 64
    tau_soft: float = 1e-3
    buffer_capacity: int = 100_000
    warmup_steps: int = 1000
    hidden_sizes: tuple[int, ...] = (64, 64)
    u_max: float = 2.0
    noise_variance: float = 0.8
    noise_decay: float = 1e-4
    noise_floor: float = 0.01
    noise_mean_reversion: float = 0.15
    # Rewards reach the -100s per step near bumps; scaling them into the
    # critic's comfortable output range stabilizes value regression. Applied
    # on store(), so logged episode returns stay in true reward units.
    reward_scale: float = 0.01

    def __post_init__(self):
        if not (self.actor_lr > 0.0 and self.critic_lr > 0.0):
            raise ValueError("learning rates must be positive")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not (0.0 < self.tau_soft <= 1.0):
            raise ValueError("tau_soft must lie in (0, 1]")
        if not (1 <= self.batch_size <= self.buffer_capacity):
            raise ValueError(
                f"need 1 <= batch_size ({self.batch_size}) <= buffer_capacity "
                f"({self.buffer_capacity})"
            )
        if not all(width >= 1 for width in self.hidden_sizes):
            raise ValueError(
                f"agent.hidden_sizes: every layer width must be >= 1, got "
                f"{list(self.hidden_sizes)}"
            )
        # normalize_obs divides by u_max; a config takes it from vehicle.u_max.
        if not (0.0 < self.u_max < math.inf):
            raise ValueError(f"u_max must be positive and finite, got {self.u_max}")
        # OUNoise.sample takes the square root of the variance.
        for key in ("noise_variance", "noise_floor"):
            value = getattr(self, key)
            if not (value >= 0.0):
                raise ValueError(f"agent.{key} must be >= 0, got {value}")
        for key in ("noise_decay", "noise_mean_reversion"):
            value = getattr(self, key)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"agent.{key} must lie in [0, 1], got {value}")
        if not (0.0 < self.reward_scale < math.inf):
            raise ValueError("agent.reward_scale must be positive and finite, "
                             f"got {self.reward_scale}")


# train() draws every episode's reset seed up front, one array of this many.
MAX_EPISODES = 1_000_000


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce a training run."""

    episodes: int = 500
    seed: int = 0
    params: VehicleParams = field(default_factory=VehicleParams)
    camera: CameraSpec = field(default_factory=CameraSpec)
    reward_spec: RewardSpec = field(default_factory=RewardSpec)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    out_dir: str | None = None
    checkpoint_interval: int = 100  # episodes between periodic checkpoints

    def __post_init__(self):
        if not (self.seed >= 0):
            raise ValueError(f"train.seed must be >= 0, got {self.seed}")
        if not (1 <= self.episodes <= MAX_EPISODES):
            raise ValueError(
                f"train.episodes must lie in [1, {MAX_EPISODES}], got {self.episodes}")
        if not (self.checkpoint_interval >= 1):
            raise ValueError("train.checkpoint_interval must be >= 1, got "
                             f"{self.checkpoint_interval}")
        # train() starts updating after warmup_steps + 1 stored transitions.
        if self.agent.warmup_steps + 1 < self.agent.batch_size:
            raise ValueError(
                f"agent.warmup_steps + 1 ({self.agent.warmup_steps + 1}) must be "
                f">= agent.batch_size ({self.agent.batch_size})"
            )
        # The agent scales x_dot and its action by u_max; the env clamps to it.
        if self.agent.u_max != self.params.u_max:
            raise ValueError(f"agent.u_max ({self.agent.u_max}) must equal "
                             f"vehicle.u_max ({self.params.u_max})")


_BUMPS = "bumps"  # type of terrain.fixed_bumps: null or [{"H", "mu", "sigma"}]


def _keys(cls, skip=()) -> dict:
    """Key -> (JSON default, type) for each field of cls that is a config
    key: nested dataclasses and the names in skip are not."""
    hints = get_type_hints(cls)
    return {
        f.name: (list(f.default) if isinstance(f.default, tuple) else f.default,
                 hints[f.name])
        for f in fields(cls)
        if f.name not in skip and not is_dataclass(hints[f.name])
    }


_SCHEMA = {
    "vehicle": _keys(VehicleParams),
    # The episode's track source lives here: fixed_bumps pins the track, or
    # else each reset draws one from the other keys (n_bumps 0: a flat one).
    "terrain": {**_keys(TrackSpec), "fixed_bumps": (None, _BUMPS)},
    "camera": _keys(CameraSpec),
    "reward": _keys(RewardSpec),
    "agent": _keys(AgentConfig, skip={"u_max"}),  # from vehicle.u_max
    "episode": _keys(EpisodeConfig, skip={"track"}),  # from terrain
    "train": _keys(TrainConfig, skip={"out_dir"}),  # the --out flag
}

DEFAULTS = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in _SCHEMA.items()
}

_TYPE_NAMES = {float: "finite number", int: "integer", bool: "boolean", str: "string"}


def has_type(value, t) -> bool:
    """Whether a JSON value is of type t: a float is any number, an int only
    an integer, a boolean neither. Python's json also reads NaN, Infinity and
    integers of any size: a number must have a finite float value."""
    if isinstance(value, bool):
        return t is bool
    if isinstance(value, (int, float)):
        try:
            if not math.isfinite(value):
                return False
        except OverflowError:  # an integer beyond the float range
            return False
    return isinstance(value, (int, float) if t is float else t)


def _check(where: str, value, t):
    """value converted to its key's type t, or a ConfigError: a float key's
    integer becomes a float, so no run computes or writes an int there."""
    if t is _BUMPS:
        if value is None or isinstance(value, list) and all(
            isinstance(b, dict) and b.keys() == {"H", "mu", "sigma"}
            and all(has_type(v, float) for v in b.values())
            for b in value
        ):
            return None if value is None else [
                {k: float(v) for k, v in b.items()} for b in value]
        expected = 'null or list of {"H", "mu", "sigma"} objects of finite numbers'
    elif get_origin(t) is tuple:
        elem, *rest = get_args(t)
        ok = isinstance(value, list) and all(has_type(v, elem) for v in value)
        expected = f"list of {_TYPE_NAMES[elem]}s"
        if rest != [Ellipsis]:  # fixed length, as the *_range pairs
            ok = ok and len(value) == 1 + len(rest)
            expected = f"list of {1 + len(rest)} {_TYPE_NAMES[elem]}s"
        if ok:
            return [elem(v) for v in value]
    elif has_type(value, t):
        return t(value)
    else:
        expected = _TYPE_NAMES[t]
    raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")


def resolve(doc: dict) -> dict:
    """Merge a config document over DEFAULTS, rejecting unknown keys and
    values whose JSON type does not match the key's; each given value is
    converted to its key's type."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = {}
    for section, keys in _SCHEMA.items():
        given = doc.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"section {section!r} must be an object")
        unknown = set(given) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown keys in section {section!r}: {sorted(unknown)}"
            )
        resolved[section] = {**DEFAULTS[section], **{
            key: _check(f"{section}.{key}", value, keys[key][1])
            for key, value in given.items()
        }}
    unknown_sections = set(doc) - set(DEFAULTS)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    return resolved


def load(path: str) -> dict:
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return resolve(doc)


def echo(resolved: dict, out_dir: str):
    """Write the fully resolved config to out_dir/resolved_config.json, making
    out_dir, so the run is reproducible from it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        json.dump(resolved, f, indent=2)
        f.write("\n")


def _build(cls, section: dict, **extra):
    """cls from the section's keys that are its fields (lists as tuples),
    plus the fields given in extra."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: tuple(v) if isinstance(v, list) else v
                  for k, v in section.items() if k in names}, **extra)


def vehicle_params(resolved: dict) -> VehicleParams:
    return _build(VehicleParams, resolved["vehicle"])


def camera_spec(resolved: dict) -> CameraSpec:
    return _build(CameraSpec, resolved["camera"])


def reward_spec(resolved: dict) -> RewardSpec:
    return _build(RewardSpec, resolved["reward"])


def fixed_track(resolved: dict) -> TerrainProfile | None:
    t = resolved["terrain"]
    if t["fixed_bumps"] is None:
        return None
    bumps = tuple(
        Bump(height=b["H"], center=b["mu"], spread=b["sigma"])
        for b in t["fixed_bumps"]
    )
    return TerrainProfile(bumps=bumps, track_length=t["track_length"])


def episode_config(resolved: dict) -> EpisodeConfig:
    track = fixed_track(resolved)
    if track is None:
        track = _build(TrackSpec, resolved["terrain"])
    return _build(EpisodeConfig, resolved["episode"], track=track)


def agent_config(resolved: dict) -> AgentConfig:
    return _build(AgentConfig, resolved["agent"],
                  u_max=resolved["vehicle"]["u_max"])


def train_config(resolved: dict, out_dir: str | None) -> TrainConfig:
    return _build(TrainConfig, resolved["train"],
                  params=vehicle_params(resolved), camera=camera_spec(resolved),
                  reward_spec=reward_spec(resolved),
                  episode=episode_config(resolved),
                  agent=agent_config(resolved), out_dir=out_dir)
