"""Synthetic sensing: terrain preview ratio, IMU channel, encoder velocity.

The real platform thresholds camera images of taped bumps to get the fraction
of pixels covered by an upcoming bump. Here that quantity is modelled directly
from geometry: each visible bump contributes a term proportional to its
relative height and inversely proportional to its forward distance, saturating
once the bump is closer than the near limit of full visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .terrain import TerrainProfile
from .vehicle import GRAVITY_NOMINAL, VehicleParams, VehicleState


@dataclass(frozen=True)
class CameraSpec:
    """Forward-camera preview model parameters."""

    lookahead_max: float = 2.0   # m, farthest distance a bump is visible
    lookahead_min: float = 0.2   # m, distance of nearest full visibility
    gain: float = 0.3            # pixel ratio of a full-height bump at lookahead_min

    def __post_init__(self):
        if not (0.0 < self.lookahead_min < self.lookahead_max):
            raise ValueError(
                f"need 0 < lookahead_min < lookahead_max, got "
                f"{self.lookahead_min}, {self.lookahead_max}"
            )
        if not (self.gain > 0.0):
            raise ValueError(f"gain must be positive, got {self.gain}")


class Observation(NamedTuple):
    """Agent observation: velocity, measured vertical acceleration, preview."""

    x_dot: float
    z_ddot_meas: float
    p: float


def preview(state: VehicleState, terrain: TerrainProfile,
            cam: CameraSpec, params: VehicleParams) -> float:
    """Pixel-ratio preview of upcoming bumps, measured from the front axle.

    Each bump ahead within (0, lookahead_max] contributes
    gain * (H / H_max) * lookahead_min / max(d, lookahead_min); the sum is
    clamped to [0, 1].
    """
    h_max = terrain.max_bump_height
    if h_max <= 0.0:
        return 0.0
    x1 = state.x + params.L1 * math.cos(state.theta)
    total = 0.0
    for b in terrain.bumps:
        d = b.center - x1
        if 0.0 < d <= cam.lookahead_max:
            total += (
                cam.gain
                * (b.height / h_max)
                * (cam.lookahead_min / max(d, cam.lookahead_min))
            )
    return min(1.0, total)


def observe(state: VehicleState, z_ddot: float, terrain: TerrainProfile,
            cam: CameraSpec, params: VehicleParams) -> Observation:
    """Assemble the observation vector.

    z_ddot is the model heave acceleration at `state`; the IMU reads it plus
    nominal gravity.
    """
    return Observation(state.x_dot, z_ddot + GRAVITY_NOMINAL,
                       preview(state, terrain, cam, params))
