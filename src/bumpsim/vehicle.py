"""Half-car vertical dynamics with first-order longitudinal velocity lag.

The chassis has heave (z) and pitch (theta) degrees of freedom suspended on
front/rear spring-damper pairs; the road enters through the wheel contact
points. Longitudinal motion is a commanded velocity filtered by a first-order
lag with time constant tau. Integration is classical fixed-step RK4.

Suspension deflections are measured from static equilibrium, so gravity shows
up only as the +9.8 m/s^2 offset on the simulated IMU channel.

Note: the printed parameter set (c = 77.6 N s/m against k = 19.6 N/m on a
1.391 kg chassis) is extremely overdamped; it is implemented as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GRAVITY_NOMINAL = 9.8  # m/s^2, nominal IMU reading at rest


class DynamicsError(Exception):
    """Base class for dynamics evaluation failures."""


class PitchOutOfRange(DynamicsError):
    """|theta| >= pi/2: outside the model's validity region."""


class NonFinite(DynamicsError):
    """A state, input, or derivative value is NaN or infinite."""


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of the half-car (defaults: scaled-vehicle values)."""

    m: float = 1.391        # chassis mass, kg
    inertia: float = 0.001897  # pitch moment of inertia, kg m^2
    k1: float = 19.6        # front suspension stiffness, N/m
    k2: float = 19.6        # rear suspension stiffness, N/m
    c1: float = 77.6        # front damping, N s/m
    c2: float = 77.6        # rear damping, N s/m
    L1: float = 0.128       # CG to front axle, m
    L2: float = 0.128       # CG to rear axle, m
    tau: float = 0.3        # commanded-velocity time constant, s
    u_max: float = 2.0      # commanded velocity clamp, m/s

    def __post_init__(self):
        for name in ("m", "inertia", "k1", "k2", "c1", "c2", "L1", "L2", "tau", "u_max"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0.0 and math.isfinite(v)):
                raise ValueError(f"VehicleParams.{name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class VehicleState:
    """Chassis state: longitudinal position/velocity, heave, pitch and rates."""

    x: float = 0.0
    x_dot: float = 0.0
    z: float = 0.0
    z_dot: float = 0.0
    theta: float = 0.0
    theta_dot: float = 0.0

    def as_tuple(self):
        return (self.x, self.x_dot, self.z, self.z_dot, self.theta, self.theta_dot)


def _accelerations(p: VehicleParams, terrain):
    """Equations of motion with the parameters and the road bound once.

    Returns acc(x, x_dot, z, z_dot, theta, theta_dot, u_x) ->
    (x_ddot, z_ddot, theta_ddot) on unpacked scalars; the other three
    components of the state derivative are the state's own rates.
    """
    L1, L2, k1, k2, c1, c2 = p.L1, p.L2, p.k1, p.k2, p.c1, p.c2
    m, inertia, tau = p.m, p.inertia, p.tau
    road = terrain.height_slope
    sin, cos = math.sin, math.cos
    half_pi = math.pi / 2

    def acc(x, x_dot, z, z_dot, theta, theta_dot, u_x):
        if not (-half_pi < theta < half_pi):
            raise PitchOutOfRange(f"|theta| must stay below pi/2, got {theta}")
        s = sin(theta)
        c = cos(theta)
        l1c = L1 * c
        l2c = L2 * c
        # Road height and slope at each wheel; both axles share the chassis
        # forward speed.
        zh1, g1 = road(x + l1c)
        zh2, g2 = road(x - l2c)
        # Suspension forces from the deflections (measured from static
        # equilibrium) and their rates.
        f1 = k1 * ((z - L1 * s) - zh1) + c1 * ((z_dot - l1c * theta_dot) - g1 * x_dot)
        f2 = k2 * ((z + L2 * s) - zh2) + c2 * ((z_dot + l2c * theta_dot) - g2 * x_dot)
        return (u_x - x_dot) / tau, -(f1 + f2) / m, c * (L1 * f1 - L2 * f2) / inertia

    return acc


def derivatives(state: VehicleState, u_x: float, params: VehicleParams,
                terrain) -> tuple[float, float, float, float, float, float]:
    """Evaluate the equations of motion for a commanded velocity u_x.

    Returns the time derivative of each VehicleState field, in field order:
    (x_dot, x_ddot, z_dot, z_ddot, theta_dot, theta_ddot).
    """
    x, x_dot, z, z_dot, theta, theta_dot = state.as_tuple()
    x_ddot, z_ddot, theta_ddot = _accelerations(params, terrain)(
        x, x_dot, z, z_dot, theta, theta_dot, u_x)
    out = (x_dot, x_ddot, z_dot, z_ddot, theta_dot, theta_ddot)
    if not all(math.isfinite(v) for v in out):
        raise NonFinite(f"non-finite derivative: {out}")
    return out


def step_rk4(state: VehicleState, u_x: float, params: VehicleParams,
             terrain, dt: float, substeps: int = 8) -> VehicleState:
    """Advance one control period with classical RK4; u_x is zero-order held.

    The period is split into equal substeps because the overdamped pitch mode
    decays at ~1.3e3 1/s with the default parameters, outside RK4's stability
    region at a 120 Hz step. Observations still happen once per control
    period; the substeps are purely internal to the integrator.

    Stage k_i is (x_dot_i, a_i, z_dot_i, b_i, theta_dot_i, c_i), where the
    rates are those of the stage's state and (a_i, b_i, c_i) its
    accelerations. Every update keeps the operation order of the textbook
    form, y + (h/2) k and y + (h/6) (k1 + 2 k2 + 2 k3 + k4), so the unrolled
    stages give the same bits as the tuple form that tests/test_vehicle.py
    keeps as its reference.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (substeps >= 1):
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    h = dt / substeps
    hh = 0.5 * h
    h6 = h / 6.0
    acc = _accelerations(params, terrain)
    x, xd, z, zd, th, thd = state.as_tuple()
    for _ in range(substeps):
        a1, b1, c1 = acc(x, xd, z, zd, th, thd, u_x)
        xd1 = xd + hh * a1
        zd1 = zd + hh * b1
        thd1 = thd + hh * c1
        a2, b2, c2 = acc(x + hh * xd, xd1, z + hh * zd, zd1, th + hh * thd, thd1, u_x)
        xd2 = xd + hh * a2
        zd2 = zd + hh * b2
        thd2 = thd + hh * c2
        a3, b3, c3 = acc(x + hh * xd1, xd2, z + hh * zd1, zd2, th + hh * thd1, thd2, u_x)
        xd3 = xd + h * a3
        zd3 = zd + h * b3
        thd3 = thd + h * c3
        a4, b4, c4 = acc(x + h * xd2, xd3, z + h * zd2, zd3, th + h * thd2, thd3, u_x)
        x = x + h6 * (xd + 2.0 * xd1 + 2.0 * xd2 + xd3)
        z = z + h6 * (zd + 2.0 * zd1 + 2.0 * zd2 + zd3)
        th = th + h6 * (thd + 2.0 * thd1 + 2.0 * thd2 + thd3)
        xd = xd + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        zd = zd + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        thd = thd + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
    y = (x, xd, z, zd, th, thd)
    if not all(math.isfinite(v) for v in y):
        raise NonFinite(f"non-finite state after RK4 step: {y}")
    return VehicleState(*y)


def mechanical_energy(state: VehicleState, params: VehicleParams) -> float:
    """Kinetic plus suspension strain energy about static equilibrium (flat road)."""
    s = math.sin(state.theta)
    d1 = state.z - params.L1 * s
    d2 = state.z + params.L2 * s
    return (
        0.5 * params.m * state.z_dot**2
        + 0.5 * params.inertia * state.theta_dot**2
        + 0.5 * params.k1 * d1**2
        + 0.5 * params.k2 * d2**2
    )
