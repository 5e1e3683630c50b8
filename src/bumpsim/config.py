"""JSON run configuration: strict keys and types, resolved echo.

The dataclasses hold every default. Each section's keys are its class's
fields in order; a key's JSON type follows the field's annotation.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .ddpg import AgentConfig
from .env import EpisodeConfig, RewardSpec
from .harness import TrainConfig
from .sensors import CameraSpec
from .terrain import Bump, TerrainProfile, TrackSpec
from .vehicle import VehicleParams


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


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
    # The episode's track source lives here: fixed_bumps pins the track and
    # overrides randomization.
    "terrain": {**_keys(TrackSpec),
                "randomize": (EpisodeConfig.randomize_track, bool),
                "fixed_bumps": (None, _BUMPS)},
    "camera": _keys(CameraSpec),
    "reward": _keys(RewardSpec),
    "agent": _keys(AgentConfig, skip={"u_max"}),  # from vehicle.u_max
    "episode": _keys(EpisodeConfig, skip={"fixed_track", "randomize_track"}),
    "train": _keys(TrainConfig, skip={"out_dir"}),  # the --out flag
}

DEFAULTS = {
    section: {key: default for key, (default, _) in keys.items()}
    for section, keys in _SCHEMA.items()
}

_TYPE_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string"}


def _is(value, t) -> bool:
    """A float key takes any JSON number, an int key only integers; a
    boolean is neither."""
    if isinstance(value, bool):
        return t is bool
    return isinstance(value, (int, float) if t is float else t)


def _check(where: str, value, t):
    if t is _BUMPS:
        ok = value is None or isinstance(value, list) and all(
            isinstance(b, dict) and b.keys() == {"H", "mu", "sigma"}
            and all(_is(v, float) for v in b.values())
            for b in value
        )
        expected = 'null or list of {"H", "mu", "sigma"} number objects'
    elif get_origin(t) is tuple:
        elem, *rest = get_args(t)
        ok = isinstance(value, list) and all(_is(v, elem) for v in value)
        expected = f"list of {_TYPE_NAMES[elem]}s"
        if rest != [Ellipsis]:  # fixed length, as the *_range pairs
            ok = ok and len(value) == 1 + len(rest)
            expected = f"list of {1 + len(rest)} {_TYPE_NAMES[elem]}s"
    else:
        ok = _is(value, t)
        expected = _TYPE_NAMES[t]
    if not ok:
        raise ConfigError(f"{where}: expected {expected}, got {json.dumps(value)}")


def resolve(doc: dict) -> dict:
    """Merge a config document over DEFAULTS, rejecting unknown keys and
    values whose JSON type does not match the key's."""
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
        for key, value in given.items():
            _check(f"{section}.{key}", value, keys[key][1])
        resolved[section] = {**DEFAULTS[section], **given}
    unknown_sections = set(doc) - set(DEFAULTS)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    return resolved


def load(path: str) -> dict:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return resolve(doc)


def echo(resolved: dict, path: str):
    """Write the fully resolved config so the run is reproducible from it."""
    with open(path, "w") as f:
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
    t = resolved["terrain"]
    return _build(EpisodeConfig, resolved["episode"],
                  track_spec=_build(TrackSpec, t),
                  fixed_track=fixed_track(resolved),
                  randomize_track=t["randomize"])


def agent_config(resolved: dict) -> AgentConfig:
    return _build(AgentConfig, resolved["agent"],
                  u_max=resolved["vehicle"]["u_max"])


def train_config(resolved: dict, out_dir: str | None) -> TrainConfig:
    return _build(TrainConfig, resolved["train"],
                  params=vehicle_params(resolved), camera=camera_spec(resolved),
                  reward_spec=reward_spec(resolved),
                  episode=episode_config(resolved),
                  agent=agent_config(resolved), out_dir=out_dir)
