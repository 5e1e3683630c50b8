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
from dataclasses import dataclass, fields
from typing import NamedTuple

GRAVITY_NOMINAL = 9.8  # m/s^2, nominal IMU reading at rest


def floats_from_ints(spec):
    """Store each int in a float field of the frozen dataclass spec as a
    float, so that no int reaches a run, an output or the wire; any other
    value is left as it is. Called after the spec's own checks."""
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.type in ("float", float) and isinstance(v, int):
            object.__setattr__(spec, f.name, float(v))


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
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and v > 0.0 and math.isfinite(v)):
                raise ValueError(f"VehicleParams.{f.name} must be strictly positive, got {v}")
        floats_from_ints(self)


class VehicleState(NamedTuple):
    """Chassis state: longitudinal position/velocity, heave, pitch and rates."""

    x: float = 0.0
    x_dot: float = 0.0
    z: float = 0.0
    z_dot: float = 0.0
    theta: float = 0.0
    theta_dot: float = 0.0


def _accelerations(p: VehicleParams, road2):
    """Equations of motion with the parameters and the road bound once.

    road2(x1, x2) -> (g(x1), g'(x1), g(x2), g'(x2)) gives the road at the
    front and rear wheels, as from terrain.wheels(a, b); it must be exact at
    every wheel position the caller evaluates. None stands for a road2 that
    returns (0.0, 0.0, 0.0, 0.0), a window no bump reaches, and costs no call.
    Returns acc(x, x_dot, z, z_dot, theta, theta_dot, u_x) -> (x_ddot, z_ddot,
    theta_ddot) on unpacked scalars; the other three components of the state
    derivative are the state's own rates.

    When road2 carries a bump (road2.bump, see terrain.TerrainProfile.wheels),
    acc evaluates that bump itself, with road2's operations in road2's order,
    and calls road2 only where a value fails its floor.
    """
    L1, L2, k1, k2, c1, c2 = p.L1, p.L2, p.k1, p.k2, p.c1, p.c2
    inertia, tau = p.inertia, p.tau
    neg_m = -p.m  # x / neg_m rounds as -x / m does: rounding is sign-symmetric
    sin, cos, exp = math.sin, math.cos, math.exp
    neg_half_pi, half_pi = -math.pi / 2, math.pi / 2
    flat = road2 is None
    bump = getattr(road2, "bump", None)
    if bump is not None:
        mu, h, nh, n2s2, s2, floor_h, floor_s = bump

    def acc(x, x_dot, z, z_dot, theta, theta_dot, u_x):
        if not (neg_half_pi < theta < half_pi):
            if not math.isfinite(theta):
                raise NonFinite(f"non-finite pitch: {theta}")
            raise PitchOutOfRange(f"|theta| must stay below pi/2, got {theta}")
        s = sin(theta)
        c = cos(theta)
        l1c = L1 * c
        l2c = L2 * c
        # Road height and slope at each wheel; both axles share the chassis
        # forward speed. With |theta| < pi/2, 0 < c <= 1, so the wheels lie
        # in [x - L2, x + L1].
        x1, x2 = x + l1c, x - l2c
        if bump is not None:
            d1 = x1 - mu
            d2 = x2 - mu
            e1 = exp(d1 * d1 / n2s2)
            e2 = exp(d2 * d2 / n2s2)
            zh1 = h * e1
            zh2 = h * e2
            # 0.0 + turns a -0.0 slope into road2's +0.0.
            g1 = 0.0 + nh * d1 / s2 * e1
            g2 = 0.0 + nh * d2 / s2 * e2
            if not (zh1 > floor_h and zh2 > floor_h
                    and abs(g1) > floor_s and abs(g2) > floor_s):
                zh1, g1, zh2, g2 = road2(x1, x2)
        elif flat:
            zh1 = g1 = zh2 = g2 = 0.0
        else:
            zh1, g1, zh2, g2 = road2(x1, x2)
        # Suspension forces from the deflections (measured from static
        # equilibrium) and their rates.
        f1 = k1 * ((z - L1 * s) - zh1) + c1 * ((z_dot - l1c * theta_dot) - g1 * x_dot)
        f2 = k2 * ((z + L2 * s) - zh2) + c2 * ((z_dot + l2c * theta_dot) - g2 * x_dot)
        return (u_x - x_dot) / tau, (f1 + f2) / neg_m, c * (L1 * f1 - L2 * f2) / inertia

    return acc


def _rates(acc, y, u_x):
    """The state derivative at state tuple y through acc, checked finite."""
    x, x_dot, z, z_dot, theta, theta_dot = y
    x_ddot, z_ddot, theta_ddot = acc(x, x_dot, z, z_dot, theta, theta_dot, u_x)
    out = (x_dot, x_ddot, z_dot, z_ddot, theta_dot, theta_ddot)
    if not all(map(math.isfinite, out)):
        raise NonFinite(f"non-finite derivative: {out}")
    return out


def derivatives(state: VehicleState, u_x: float, params: VehicleParams,
                terrain) -> tuple[float, float, float, float, float, float]:
    """Evaluate the equations of motion for a commanded velocity u_x.

    Returns the time derivative of each VehicleState field, in field order:
    (x_dot, x_ddot, z_dot, z_ddot, theta_dot, theta_ddot).
    """
    x = state.x
    road2 = terrain.wheels(x - params.L2, x + params.L1)
    return _rates(_accelerations(params, road2), state, u_x)


def step_rk4(state: VehicleState, u_x: float, params: VehicleParams,
             terrain, dt: float, substeps: int = 8) -> tuple[VehicleState, float]:
    """Advance one control period with classical RK4; u_x is zero-order held.

    Returns (new state, z_ddot), where z_ddot is the heave acceleration at
    the new state under u_x, the value derivatives(new state, u_x, ...)[3]
    gives, with the same errors.

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

    A car at rest takes a shorter path with the same bits. It applies when
    the step's road window is the bounded one (h <= tau, finite inputs), no
    bump reaches it (terrain.wheels returns None), and z, z_dot, theta and
    theta_dot are each exactly +0.0. Then every force term is +0.0: the
    slope term 0.0 * x_dot is +0.0 or -0.0, and 0.0 minus either is +0.0.
    The equations of motion give (a, -0.0, 0.0), each stage update
    0.0 + hh * (-0.0) stays +0.0, and the end state's z_ddot is 0.0 / -m,
    -0.0. So the path integrates only a = (u_x - x_dot) / tau, with the
    operations of the full loop in its order, and returns z_ddot = -0.0. A
    -0.0 vertical slot does not qualify, since its sign can reach the result.
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (substeps >= 1):
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    h = dt / substeps
    hh = 0.5 * h
    h6 = h / 6.0
    x, xd, z, zd, th, thd = state
    # One road window holds every wheel position of every stage. The
    # longitudinal equation x_ddot = (u_x - x_dot) / tau does not see the
    # road, and with h <= tau every stage velocity lies between x_dot and
    # u_x, so the chassis moves at most dt * v in this call. The margin m adds
    # a millionth of each magnitude in that arithmetic, far above its
    # rounding. With h > tau the stages can overshoot u_x, and with
    # non-finite or overflowing inputs the bound does not hold: then the
    # window is the whole line, which keeps every bump. Either way the window
    # also holds the wheels of the end state, so the same road serves the
    # z_ddot returned with it.
    tau, L1, L2 = params.tau, params.L1, params.L2
    # max() keeps its first argument when the other is a NaN; 0.0 * u_x
    # carries a NaN command into v and adds a zero for a finite one.
    v = max(abs(xd), abs(u_x)) + 0.0 * u_x
    m = dt * v + 1e-6 * (dt * v + abs(x) + L1 + L2)
    if h <= tau and abs(x) + m + v + v / tau < 1e300:  # False for NaN
        road2 = terrain.wheels(x - L2 - m, x + L1 + m)
        # At rest on a zero road only the speed lag moves: see the docstring.
        if (road2 is None and not (z or zd or th or thd)
                and math.copysign(1.0, z) + math.copysign(1.0, zd)
                + math.copysign(1.0, th) + math.copysign(1.0, thd) == 4.0):
            for _ in range(substeps):
                a1 = (u_x - xd) / tau
                v1 = xd + hh * a1
                a2 = (u_x - v1) / tau
                v2 = xd + hh * a2
                a3 = (u_x - v2) / tau
                v3 = xd + h * a3
                a4 = (u_x - v3) / tau
                x = x + h6 * (xd + 2.0 * v1 + 2.0 * v2 + v3)
                xd = xd + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            return VehicleState(x, xd), -0.0
    else:
        road2 = terrain.wheels(-math.inf, math.inf)
    acc = _accelerations(params, road2)
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
    if not all(map(math.isfinite, y)):
        raise NonFinite(f"non-finite state after RK4 step: {y}")
    return VehicleState._make(y), _rates(acc, y, u_x)[3]


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
