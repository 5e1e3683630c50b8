"""Half-car bump-traversal simulator and velocity-policy learning toolkit.

The simulator, `EnvServer` and `RemoteEnv` need only the standard library; the
learner (`ddpg`) and the experiment harness (`harness`) import numpy. Each
name below is imported from its module on first use (PEP 562), so
`import bumpsim` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "config": ("AgentConfig", "TrainConfig"),
    "ddpg": ("DdpgAgent",),
    "env": ("BumpEnv", "EpisodeConfig", "RewardSpec", "reward"),
    "harness": ("Metrics", "evaluate", "sweep_velocities", "train"),
    "sensors": ("CameraSpec", "Observation", "observe", "preview"),
    "terrain": ("Bump", "TerrainProfile", "TrackSpec", "random_track"),
    "vehicle": ("VehicleParams", "VehicleState", "derivatives", "step_rk4"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
