"""Half-car bump-traversal simulator and velocity-policy learning toolkit."""

from .ddpg import AgentConfig, DdpgAgent
from .env import BumpEnv, EpisodeConfig, RewardSpec, reward
from .harness import Metrics, TrainConfig, evaluate, sweep_velocities, train
from .sensors import CameraSpec, Observation, observe, preview
from .terrain import Bump, TerrainProfile, TrackSpec, random_track
from .vehicle import VehicleParams, VehicleState, derivatives, step_rk4

__version__ = "0.1.0"
