import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpsim import vehicle
from bumpsim.env import BumpEnv, EpisodeConfig
from bumpsim.sensors import CameraSpec, observe
from bumpsim.terrain import FLAT, Bump, TerrainProfile, TrackSpec, random_track
from bumpsim.vehicle import (
    GRAVITY_NOMINAL,
    DynamicsError,
    NonFinite,
    PitchOutOfRange,
    VehicleParams,
    VehicleState,
    derivatives,
    mechanical_energy,
    step_rk4,
)

DT = 1.0 / 120.0


@pytest.fixture
def params():
    return VehicleParams()


class TestParams:
    def test_defaults_match_documented_values(self, params):
        assert params.m == 1.391
        assert params.inertia == 0.001897
        assert params.k1 == params.k2 == 19.6
        assert params.c1 == params.c2 == 77.6
        assert params.L1 == params.L2 == 0.128

    @pytest.mark.parametrize("field", ["m", "inertia", "k1", "c2", "L1", "tau"])
    def test_nonpositive_values_rejected(self, field):
        with pytest.raises(ValueError):
            VehicleParams(**{field: 0.0})


    def test_integer_fields_run_as_floats(self):
        env = BumpEnv(params=VehicleParams(u_max=3))
        env.reset(seed=0)
        _, _, _, info = env.step(5.0)
        assert type(info["u_x"]) is float and info["u_x"] == 3.0


class TestDerivatives:
    def test_equilibrium_is_fixed_point(self, params):
        d = derivatives(VehicleState(), 0.0, params, FLAT)
        assert d == (0.0, 0.0, 0.0, -0.0, 0.0, 0.0)

    def test_commanded_velocity_lag(self, params):
        _, x_ddot, _, z_ddot, _, theta_ddot = derivatives(
            VehicleState(), 1.0, params, FLAT)
        assert x_ddot == pytest.approx(1.0 / 0.3)
        assert z_ddot == 0.0
        assert theta_ddot == 0.0

    def test_pure_heave_response(self, params):
        _, _, _, z_ddot, _, theta_ddot = derivatives(
            VehicleState(z=0.01), 0.0, params, FLAT)
        expected = -(19.6 * 0.01 + 19.6 * 0.01) / 1.391
        assert z_ddot == pytest.approx(expected)
        assert z_ddot == pytest.approx(-0.28181, abs=1e-5)
        assert theta_ddot == 0.0  # front/rear contributions cancel

    def test_pitch_bound_enforced(self, params):
        with pytest.raises(PitchOutOfRange):
            derivatives(VehicleState(theta=math.pi / 2), 0.0, params, FLAT)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_pitch_is_non_finite(self, params, theta):
        with pytest.raises(NonFinite):
            derivatives(VehicleState(theta=theta), 0.0, params, FLAT)

    def test_symmetry_pure_heave_any_terrain_offset(self, params):
        # Symmetric car, both wheels on the same road height: no pitch torque
        # for heave-only states.
        class UniformRoad:
            def height(self, x):
                return 0.004

            def slope(self, x):
                return 0.0

            def wheels(self, a, b):
                return lambda x1, x2: (self.height(x1), self.slope(x1),
                                       self.height(x2), self.slope(x2))

        for z, z_dot in [(0.0, 0.0), (0.01, -0.1), (-0.005, 0.2)]:
            d = derivatives(VehicleState(z=z, z_dot=z_dot), 0.0, params, UniformRoad())
            assert d[5] == 0.0  # theta_ddot


# No two arms, springs or dampers alike: the default car's symmetry hides a
# swapped pair of them.
ASYMMETRIC = VehicleParams(L1=0.10, L2=0.15, k1=22.0, k2=17.0, c1=70.0, c2=85.0)


class TestAsymmetricCar:
    def test_linear_modes_match_the_strain_energy(self):
        # At rest on a flat road, (z_ddot, theta_ddot) = -M^-1 (K q + C q_dot)
        # for q = (z, theta), M = diag(m, inertia). K is the Hessian of the
        # strain energy, and C that of the same energy with the dampers'
        # constants in place of the springs'.
        p = ASYMMETRIC

        def hessian(params, h=1e-4):
            def energy(z, theta):
                return mechanical_energy(VehicleState(z=z, theta=theta), params)

            return np.array([[
                (energy(*(h * (e_i + e_j))) - energy(*(h * (e_i - e_j)))
                 - energy(*(h * (e_j - e_i))) + energy(*(-h * (e_i + e_j))))
                / (4 * h * h) for e_j in np.eye(2)] for e_i in np.eye(2)])

        def jacobian(fields, h=1e-6):
            columns = []
            for name in fields:
                up = derivatives(VehicleState(**{name: h}), 0.0, p, FLAT)
                down = derivatives(VehicleState(**{name: -h}), 0.0, p, FLAT)
                columns.append([(up[i] - down[i]) / (2 * h) for i in (3, 5)])
            return np.array(columns).T

        m_inv = np.diag([1 / p.m, 1 / p.inertia])
        stiffness = hessian(p)
        damping = hessian(replace(p, k1=p.c1, k2=p.c2))
        np.testing.assert_allclose(jacobian(("z", "theta")), -m_inv @ stiffness,
                                   rtol=1e-6)
        np.testing.assert_allclose(jacobian(("z_dot", "theta_dot")),
                                   -m_inv @ damping, rtol=1e-6)

    def test_rear_wheel_reads_the_road_under_it(self):
        # One narrow bump under the rear wheel only, the car pitched: the
        # front wheel's road is flat.
        p = ASYMMETRIC
        state = VehicleState(x=5.0, x_dot=1.2, z=0.001, z_dot=0.02,
                             theta=0.05, theta_dot=-0.3)
        s, c = math.sin(state.theta), math.cos(state.theta)
        x2 = state.x - p.L2 * c
        bump = Bump(height=0.01, center=x2 - 0.01, spread=0.02)
        e = math.exp(-((x2 - bump.center) / bump.spread) ** 2 / 2)
        g2 = bump.height * e
        g2_x = -bump.height * (x2 - bump.center) / bump.spread**2 * e
        f1 = p.k1 * (state.z - p.L1 * s) \
            + p.c1 * (state.z_dot - p.L1 * c * state.theta_dot)
        f2 = p.k2 * (state.z + p.L2 * s - g2) \
            + p.c2 * (state.z_dot + p.L2 * c * state.theta_dot - g2_x * state.x_dot)
        terrain = TerrainProfile(bumps=(bump,), track_length=10.0)
        got = derivatives(state, 1.0, p, terrain)
        assert got == pytest.approx(
            (1.2, (1.0 - 1.2) / p.tau, 0.02, -(f1 + f2) / p.m, -0.3,
             c * (p.L1 * f1 - p.L2 * f2) / p.inertia), rel=1e-12)

    def test_free_decay_follows_the_linear_model(self):
        # Small enough an offset that sin(theta) = theta to 2e-9 relative:
        # (z, z_dot, theta, theta_dot) follows exp(A t) x0, with A from the
        # hand-derived stiffness and damping matrices. Checked once the fast
        # pitch mode (about -1.4e3 1/s) has died, from 50 ms on.
        p = ASYMMETRIC

        def matrix(front, rear):
            cross = rear * p.L2 - front * p.L1
            return np.array([[front + rear, cross],
                             [cross, front * p.L1**2 + rear * p.L2**2]])

        m_inv = np.diag([1 / p.m, 1 / p.inertia])
        a = np.zeros((4, 4))
        a[0, 1] = a[2, 3] = 1.0
        a[np.ix_([1, 3], [0, 2])] = -m_inv @ matrix(p.k1, p.k2)
        a[np.ix_([1, 3], [1, 3])] = -m_inv @ matrix(p.c1, p.c2)
        rates, modes = np.linalg.eig(a)
        x0 = np.array([1e-3, 0.0, 1e-4, 0.0])
        weights = np.linalg.solve(modes, x0)
        state = VehicleState(z=x0[0], theta=x0[2])
        for k in range(1, 61):
            state, _ = step_rk4(state, 0.0, p, FLAT, DT)
            if k * DT >= 0.05:
                want = (modes @ (np.exp(rates * k * DT) * weights)).real
                got = np.array([state.z, state.z_dot, state.theta, state.theta_dot])
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_fourth_order_over_a_bump(self):
        # Criterion 1 checks the order on the velocity lag alone; here the
        # road drives both wheels. At x_dot = u_x = 1 the car crosses the
        # bump in 1 s; 16, 32 and 64 substeps against 256 read orders of
        # about 4.2.
        terrain = TerrainProfile(bumps=(Bump(0.008, 0.6, 0.05),), track_length=2.0)

        def end_state(substeps):
            state = VehicleState(x_dot=1.0)
            for _ in range(120):
                state, _ = step_rk4(state, 1.0, ASYMMETRIC, terrain, DT, substeps)
            return np.array([state.z, state.z_dot, state.theta, state.theta_dot])

        ref = end_state(256)
        errors = [np.max(np.abs(end_state(n) - ref)) for n in (16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert math.log2(coarse / fine) >= 3.5


class TestStepRk4:
    def test_equilibrium_preserved(self, params):
        state = VehicleState()
        for _ in range(100):
            state, _ = step_rk4(state, 0.0, params, FLAT, DT)
        assert state == VehicleState()

    def test_velocity_step_response_closed_form(self, params):
        # tau x_ddot + x_dot = u has solution x_dot = 1 - exp(-t / tau).
        state = VehicleState()
        for _ in range(36):  # 0.3 s = tau
            state, _ = step_rk4(state, 1.0, params, FLAT, DT)
        assert state.x_dot == pytest.approx(1 - math.exp(-1), abs=1e-6)

    def test_convergence_is_fourth_order(self, params):
        def final_xdot(dt, steps):
            s = VehicleState()
            for _ in range(steps):
                s, _ = step_rk4(s, 1.0, params, FLAT, dt, substeps=1)
            return s.x_dot

        ref = final_xdot(0.0125, 80)  # dt/4 reference over 1 s
        e1 = abs(final_xdot(0.05, 20) - ref)
        e2 = abs(final_xdot(0.025, 40) - ref)
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    def test_rejects_nonpositive_dt(self, params):
        with pytest.raises(ValueError):
            step_rk4(VehicleState(), 0.0, params, FLAT, 0.0)

    def test_energy_nonincreasing_from_random_perturbations(self, params):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state = VehicleState(
                z=rng.uniform(-0.02, 0.02), z_dot=rng.uniform(-0.2, 0.2),
                theta=rng.uniform(-0.2, 0.2), theta_dot=rng.uniform(-1.0, 1.0),
            )
            energy = mechanical_energy(state, params)
            for _ in range(100):
                state, _ = step_rk4(state, 0.0, params, FLAT, DT)
                new_energy = mechanical_energy(state, params)
                assert new_energy <= energy + 1e-9
                energy = new_energy

    def test_drives_over_bump_without_blowup(self, params):
        terrain = TerrainProfile(
            bumps=(Bump(0.008, 2.0, 0.05),), track_length=5.0
        )
        state = VehicleState(x_dot=1.0)
        peak = 0.0
        for _ in range(360):
            state, z_ddot = step_rk4(state, 1.0, params, terrain, DT)
            peak = max(peak, abs(z_ddot))
        assert math.isfinite(state.z)
        assert peak > 0.1  # the bump actually excites the chassis


class TestMeasuredAcceleration:
    """The IMU channel: the model heave acceleration plus nominal gravity."""

    @staticmethod
    def imu(state, params):
        z_ddot = derivatives(state, 0.0, params, FLAT)[3]
        return observe(state, z_ddot, FLAT, CameraSpec(), params).z_ddot_meas

    def test_equilibrium_reads_nominal_gravity(self, params):
        assert self.imu(VehicleState(), params) == GRAVITY_NOMINAL

    def test_pure_heave_offset(self, params):
        got = self.imu(VehicleState(z=0.01), params)
        assert got == pytest.approx(9.8 - 0.28181, abs=1e-5)


# Reference path: the equations of motion and RK4 as first written, with
# separate height/slope sums and tuple/zip stage updates. The fused integrator
# must reproduce it bit for bit.

def ref_height(terrain, x):
    total = 0.0
    for b in terrain.bumps:
        d = x - b.center
        total += b.height * math.exp(-d * d / (2.0 * b.spread * b.spread))
    return total


def ref_slope(terrain, x):
    total = 0.0
    for b in terrain.bumps:
        d = x - b.center
        s2 = b.spread * b.spread
        total += -b.height * d / s2 * math.exp(-d * d / (2.0 * s2))
    return total


def ref_derivatives(x, x_dot, z, z_dot, theta, theta_dot, u_x, p, terrain):
    if not (-math.pi / 2 < theta < math.pi / 2):
        raise (PitchOutOfRange if math.isfinite(theta) else NonFinite)(theta)
    s = math.sin(theta)
    c = math.cos(theta)
    x1 = x + p.L1 * c
    x2 = x - p.L2 * c
    zh1 = ref_height(terrain, x1)
    zh2 = ref_height(terrain, x2)
    zh1_dot = ref_slope(terrain, x1) * x_dot
    zh2_dot = ref_slope(terrain, x2) * x_dot
    d1 = (z - p.L1 * s) - zh1
    d2 = (z + p.L2 * s) - zh2
    v1 = (z_dot - p.L1 * c * theta_dot) - zh1_dot
    v2 = (z_dot + p.L2 * c * theta_dot) - zh2_dot
    f1 = p.k1 * d1 + p.c1 * v1
    f2 = p.k2 * d2 + p.c2 * v2
    z_ddot = -(f1 + f2) / p.m
    theta_ddot = c * (p.L1 * f1 - p.L2 * f2) / p.inertia
    x_ddot = (u_x - x_dot) / p.tau
    return (x_dot, x_ddot, z_dot, z_ddot, theta_dot, theta_ddot)


def ref_step_rk4(y, u_x, p, terrain, dt, substeps=8):
    h = dt / substeps
    for _ in range(substeps):
        k1 = ref_derivatives(*y, u_x, p, terrain)
        y1 = tuple(a + 0.5 * h * b for a, b in zip(y, k1))
        k2 = ref_derivatives(*y1, u_x, p, terrain)
        y2 = tuple(a + 0.5 * h * b for a, b in zip(y, k2))
        k3 = ref_derivatives(*y2, u_x, p, terrain)
        y3 = tuple(a + h * b for a, b in zip(y, k3))
        k4 = ref_derivatives(*y3, u_x, p, terrain)
        y = tuple(
            a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
    return y


def bits(values):
    """Exact float representations, so 0.0 and -0.0 differ and NaN matches."""
    return tuple(float(v).hex() for v in values)


def outcome(call):
    """A call's result as bits, or the type of the DynamicsError or
    arithmetic error it raised; a non-finite result counts as NonFinite, as
    the fused path raises it."""
    try:
        y = call()
    except (DynamicsError, ArithmeticError) as e:
        return type(e)
    return bits(y) if all(math.isfinite(v) for v in y) else NonFinite


def fused_step(y, u_x, p, terrain):
    """step_rk4 from state tuple y: the new state and its z_ddot, as a tuple."""
    state, z_ddot = step_rk4(VehicleState(*y), u_x, p, terrain, DT)
    return (*state, z_ddot)


def ref_step(y, u_x, p, terrain):
    """ref_step_rk4, then ref_derivatives at the new state for its z_ddot,
    with the state checked before the derivative, as step_rk4 checks them."""
    y = ref_step_rk4(y, u_x, p, terrain, DT)
    if not all(map(math.isfinite, y)):
        raise NonFinite(y)
    d = ref_derivatives(*y, u_x, p, terrain)
    if not all(map(math.isfinite, d)):
        raise NonFinite(d)
    return y + (d[3],)


def run_beside_reference(terrain, y, actions, params):
    """Step step_rk4 and the reference side by side from state tuple y and
    check the states, the returned z_ddot and the derivatives bit for bit,
    or that both raise the same error, which ends the run. Returns the
    states and the end error."""
    states = [y]
    for u in actions:
        got = outcome(lambda: fused_step(y, u, params, terrain))
        want = outcome(lambda: ref_step(y, u, params, terrain))
        assert got == want, (y, u)
        if isinstance(want, type):
            return states, want
        y = ref_step_rk4(y, u, params, terrain, DT)
        states.append(y)
        assert outcome(lambda: derivatives(VehicleState(*y), u, params, terrain)) \
            == outcome(lambda: ref_derivatives(*y, u, params, terrain)), (y, u)
    return states, None


def solve(f, target, x):
    """A float near x with f(x) == target, or None if f steps over it."""
    for _ in range(8):
        y = f(x)
        if y == target:
            return x
        x = math.nextafter(x, math.inf if y < target else -math.inf)
    return None


# Bumps out of order, overlapping bumps, a bump at the end of the track and a
# wide one whose reach covers the whole track.
UNSORTED = TerrainProfile(bumps=(
    Bump(0.012, 2.0, 0.05), Bump(0.008, 0.9, 0.04), Bump(0.016, 2.04, 0.02),
    Bump(0.005, 1.4, 0.3), Bump(0.01, 0.5, 0.01), Bump(0.016, 2.6, 0.03),
), track_length=2.6)


# Short-reach bumps far apart: where a wheel first comes within a bump's
# reach, the road is a subnormal from that bump alone, so a road window that
# misses a wheel position changes the result.
ISOLATED = TerrainProfile(bumps=(Bump(0.008, 0.5, 0.005), Bump(0.008, 1.2, 0.01)),
                          track_length=1.5)
FAR = TerrainProfile(bumps=(Bump(0.016, 20.0, 0.3),), track_length=40.0)

_RNG = np.random.default_rng(8)
ERROR = "error"
PAST_END = lambda x, length: x > length  # noqa: E731
# case: (terrain, start state, actions, params, end), where end is a test of
# the final x and the track length, or ERROR: both paths raise the same error.
EDGE_CASES = {
    "unsorted_overlapping": (
        UNSORTED, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(0.0, 2.0, 360)], VehicleParams(), PAST_END),
    "from_negative_x_past_track_end": (
        UNSORTED, (-1.0, 1.5, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(1.0, 2.0, 480)], VehicleParams(), PAST_END),
    "large_x_dot": (
        UNSORTED, (0.0, 25.0, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(0.0, 2.0, 40)], VehicleParams(), PAST_END),
    # Slowing down, so the travel bound comes from x_dot and not u_x; the
    # car coasts past the first bump.
    "isolated_coasting": (
        ISOLATED, (0.0, 3.0, 0.0, 0.0, 0.0, 0.0), [0.0] * 240, VehicleParams(),
        lambda x, length: 0.8 < x < length),
    # h = DT / 8 > tau: the stage velocities overshoot u_x, so the window
    # falls back to all bumps.
    "tau_below_substep": (
        UNSORTED, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(0.0, 2.0, 360)], VehicleParams(tau=0.0005),
        PAST_END),
    # RK4 diverges on x_dot; within one step the car reaches a bump far
    # outside the window that x_dot would give.
    "tau_below_substep_diverging": (
        FAR, (0.0, 0.01, 0.0, 0.0, 0.0, 0.0), [0.0] * 20, VehicleParams(tau=0.0003),
        lambda x, length: abs(x) > 1e9),
    "tau_below_substep_diverging_to_error": (
        UNSORTED, (0.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(0.0, 2.0, 360)], VehicleParams(tau=0.0003),
        ERROR),
    # No bump reaches the window, so the road is taken as zeros without a
    # call. Rolling backwards makes the slope times x_dot -0.0. From a
    # vertical state of signed zeros the sign of a zero road term can reach
    # the result: the first of the next two cases fails if the front wheel's
    # slope is taken as -0.0, the second if its height is.
    "empty_window_reversing": (
        FAR, (1.0, -0.4, 0.003, -0.0, -0.0, 0.02), [0.0] * 60, VehicleParams(),
        lambda x, length: 0.0 < x < 1.0),
    "empty_window_reversing_from_signed_zeros": (
        FAR, (1.0, -0.4, -0.0, -0.0, -0.0, -0.0), [0.0] * 60, VehicleParams(),
        lambda x, length: 0.0 < x < 1.0),
    "empty_window_forward_from_signed_zeros": (
        FAR, (1.0, 0.4, -0.0, -0.0, -0.0, -0.0), [0.0] * 60, VehicleParams(),
        lambda x, length: 1.0 < x < 2.0),
    # At rest: the vertical slots are +0.0 and the road window is empty, so
    # step_rk4 integrates the speed lag alone. Reversing, the slope term is
    # -0.0; from x_dot = -0.0 under u_x = -0.0, u_x - x_dot is +0.0.
    "empty_window_at_rest_reversing": (
        FAR, (1.0, -0.4, 0.0, 0.0, 0.0, 0.0), [0.0] * 60, VehicleParams(),
        lambda x, length: 0.0 < x < 1.0),
    "empty_window_at_rest_from_negative_zero_x_dot": (
        FAR, (1.0, -0.0, 0.0, 0.0, 0.0, 0.0), [-0.0] * 10 + [0.5] * 50,
        VehicleParams(), lambda x, length: 1.0 < x < 2.0),
    # At rest until the window first meets a bump's reach, where the road
    # is a subnormal; from there the full loop runs.
    "isolated_at_rest_to_first_live_window": (
        ISOLATED, (0.0, 0.3, 0.0, 0.0, 0.0, 0.0), [0.3] * 120, VehicleParams(),
        lambda x, length: 0.25 < x < 0.5),
    # h > tau: at rest on an empty stretch, yet the window is the whole
    # line, so the full loop runs.
    "at_rest_tau_below_substep": (
        FAR, (1.0, 0.5, 0.0, 0.0, 0.0, 0.0),
        [float(u) for u in _RNG.uniform(0.0, 2.0, 60)], VehicleParams(tau=0.0005),
        lambda x, length: 1.0 < x < 3.0),
}
EMPTY_WINDOW_CASES = [c for c in EDGE_CASES if c.startswith("empty_window")]


@pytest.fixture
def dense_track():
    spec = TrackSpec(track_length=5.0, n_bumps=6, sigma_range=(0.02, 0.08),
                     min_spacing=0.3, placement_range=(0.3, 3.2),
                     bump_height=0.016)
    return random_track(11, spec)


class TestFusedPathBitExact:
    def test_height_slope_matches_separate_sums(self, dense_track):
        grid = [float(x) for x in np.linspace(-1.0, 6.0, 2801)]
        grid += [b.center for b in dense_track.bumps]
        # Each bump's reach on both sides, and the next float beyond it.
        for _, lo, hi, _ in dense_track._zero_bands:
            grid += [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        for terrain in (dense_track, FLAT):
            for x in grid:
                got = terrain.height_slope(x)
                want = (ref_height(terrain, x), ref_slope(terrain, x))
                assert bits(got) == bits(want), x
                assert bits((terrain.height(x), terrain.slope(x))) == bits(want)

    def test_step_rk4_matches_reference(self, params, dense_track):
        rng = np.random.default_rng(3)
        state = VehicleState(x_dot=0.5)
        ref = tuple(state)
        pitch_seen = 0.0
        for _ in range(400):
            u = float(rng.uniform(0.0, 2.0))
            state, z_ddot = step_rk4(state, u, params, dense_track, DT)
            ref = ref_step_rk4(ref, u, params, dense_track, DT)
            assert bits(state) == bits(ref)
            d = derivatives(state, u, params, dense_track)
            assert bits(d) == bits(
                ref_derivatives(*ref, u, params, dense_track))
            assert bits([z_ddot]) == bits([d[3]])
            pitch_seen = max(pitch_seen, abs(state.theta))
        assert state.x > 3.2  # every bump was crossed
        assert pitch_seen > 1e-4

    @pytest.mark.parametrize("sigma", [1.5e-154, 1e-160, 1e-200, 1e200])
    def test_extreme_bumps_match_separate_sums(self, sigma):
        # A variance near or below the normal range: far from the bump the
        # reference slope is inf * 0.0 = NaN, or a zero variance divides by
        # zero. Such a bump is never left out, so the errors stay the same.
        terrain = TerrainProfile(bumps=(Bump(0.008, 5.0, sigma),), track_length=2000.0)
        for x in (5.0, 4.0, 1000.0):
            assert outcome(lambda: terrain.height_slope(x)) == \
                outcome(lambda: (ref_height(terrain, x), ref_slope(terrain, x))), x

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_step_rk4_matches_reference_at_edges(self, case):
        terrain, y, actions, params, end = EDGE_CASES[case]
        states, error = run_beside_reference(terrain, y, actions, params)
        if end is ERROR:
            assert error is not None
        else:
            assert error is None
            assert end(states[-1][0], terrain.track_length)

    def test_wheel_exactly_at_reach(self, params, dense_track):
        # A rear wheel at a bump's reach behind it, or a front wheel at its
        # reach ahead, keeps the bump; one float further on leaves it out.
        # Both must match the reference.
        L1, L2 = params.L1, params.L2
        placed = 0
        for _, lo, hi, _ in dense_track._zero_bands:
            for target in (hi, math.nextafter(hi, math.inf)):
                placed += self._check_at(params, dense_track, solve(
                    lambda x: x - L2, target, target + L2))
            for target in (lo, math.nextafter(lo, -math.inf)):
                placed += self._check_at(params, dense_track, solve(
                    lambda x: x + L1, target, target - L1))
        assert placed >= 12

    @staticmethod
    def _check_at(params, terrain, x):
        if x is None:
            return 0
        y = (x, 0.0, 0.002, -0.01, 0.0, 0.05)
        assert outcome(lambda: derivatives(VehicleState(*y), 0.0, params, terrain)) \
            == outcome(lambda: ref_derivatives(*y, 0.0, params, terrain))
        run_beside_reference(terrain, y, [0.0, 1.0], params)
        return 1

    @pytest.mark.parametrize("case", EMPTY_WINDOW_CASES)
    def test_empty_window_has_no_road(self, params, case):
        # Every state of these cases has a road window, wider than
        # step_rk4's, that no bump reaches.
        terrain, y, actions, _, _ = EDGE_CASES[case]
        states, _ = run_beside_reference(terrain, y, actions, params)
        for x, *_ in states:
            assert terrain.wheels(x - params.L2 - 0.1, x + params.L1 + 0.1) is None
        assert FLAT.wheels(-math.inf, math.inf) is None
        assert terrain.wheels(-math.inf, math.inf) is not None

    @settings(max_examples=300, deadline=None)
    @given(vertical=st.tuples(*[st.sampled_from([0.0, -0.0])] * 4),
           x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 22.0)),
           x_dot=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
           u_x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
           terrain=st.sampled_from([FLAT, FAR, ISOLATED]))
    def test_step_from_signed_zeros_matches_reference(self, vertical, x, x_dot,
                                                      u_x, terrain):
        # Only +0.0 in every vertical slot takes the at-rest path; a -0.0
        # anywhere takes the full loop. Both must give the reference's bits.
        y = (x, x_dot, *vertical)
        params = VehicleParams()
        assert outcome(lambda: fused_step(y, u_x, params, terrain)) \
            == outcome(lambda: ref_step(y, u_x, params, terrain))

    def test_at_rest_step_builds_no_equations_of_motion(self, params, monkeypatch):
        # From rest towards ISOLATED's first bump: each step on an empty
        # window builds no equations of motion, and from the first step
        # whose window the bump reaches on, each step builds them once.
        built = []
        real = vehicle._accelerations
        monkeypatch.setattr(vehicle, "_accelerations",
                            lambda *a: built.append(a) or real(*a))
        state, counts = VehicleState(x_dot=0.3), []
        for _ in range(120):
            before = len(built)
            state, _ = step_rk4(state, 0.3, params, ISOLATED, DT)
            counts.append(len(built) - before)
        resting = counts.index(1)
        assert resting > 20 and counts == [0] * resting + [1] * (120 - resting)
        assert state.z != 0.0

    def test_at_rest_nan_command_raises(self, params):
        # The at-rest path must not take a NaN command and return a NaN state
        # where the full loop raises, with a bump on the line or none.
        for terrain in (FAR, FLAT):
            with pytest.raises(NonFinite, match="non-finite pitch: nan"):
                step_rk4(VehicleState(x=1.0, x_dot=0.5), math.nan, params, terrain, DT)

    @pytest.mark.parametrize("x_dot, u_x", [(0.5, math.nan), (math.nan, 0.5)],
                             ids=["nan_command", "nan_speed"])
    def test_nan_input_takes_the_whole_line(self, params, x_dot, u_x):
        # max(abs(x_dot), abs(u_x)) keeps its first argument against a NaN;
        # a NaN in either must still widen the window to the whole line.
        windows = []

        class Spy:
            def wheels(self, a, b):
                windows.append((a, b))

        with pytest.raises(NonFinite):
            step_rk4(VehicleState(x=1.0, x_dot=x_dot), u_x, params, Spy(), DT)
        assert windows == [(-math.inf, math.inf)]

    def test_end_state_error_is_the_one_derivatives_raises(self, params):
        # A road that is flat before a point and infinitely steep from it on.
        # With the point at the end state's front wheel, every RK4 stage sees
        # a flat road and only the z_ddot evaluation at the end state fails.
        class Cliff:
            def __init__(self, at):
                self.at = at
                self.front_wheels = []

            def wheels(self, a, b):
                def road2(x1, x2):
                    self.front_wheels.append(x1)
                    return 0.0, (math.inf if x1 >= self.at else 0.0), 0.0, 0.0
                return road2

        start = VehicleState(x_dot=0.5)
        probe = Cliff(math.inf)
        end, _ = step_rk4(start, 1.0, params, probe, DT)
        *stages, at = probe.front_wheels
        assert len(stages) == 8 * 4 and max(stages) < at
        cliff = Cliff(at)
        with pytest.raises(NonFinite) as got:
            step_rk4(start, 1.0, params, cliff, DT)
        with pytest.raises(NonFinite) as want:
            derivatives(end, 1.0, params, cliff)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite derivative: ")

    def test_far_bumps_are_not_summed(self, params, monkeypatch):
        # The bump at 8 m is far past its reach of the car at 0 m: each of
        # the 8 x 4 RK4 stages takes one exp per wheel, for the near bump,
        # and so does the one evaluation at the end state for its z_ddot.
        terrain = TerrainProfile(bumps=(Bump(0.008, 8.0, 0.05), Bump(0.008, 1.0, 0.05)),
                                 track_length=10.0)
        exps = []
        real_exp = math.exp
        monkeypatch.setattr(math, "exp", lambda v: exps.append(v) or real_exp(v))
        step_rk4(VehicleState(x_dot=1.0), 1.0, params, terrain, DT)
        assert len(exps) == 8 * 4 * 2 + 2

    def test_env_imu_reads_model_z_ddot_plus_gravity(self, dense_track):
        env = BumpEnv(episode=EpisodeConfig(track=dense_track,
                                            max_steps=400))
        env.reset(seed=0)
        rng = np.random.default_rng(4)
        done = False
        while not done:
            obs, _, done, info = env.step(float(rng.uniform(0.0, 2.0)))
            assert bits([info["z_ddot_model"] + GRAVITY_NOMINAL]) == \
                bits([obs.z_ddot_meas])


class Counted:
    """A terrain's road with each road2 call counted. road2.bump is kept,
    or dropped to stand for a terrain whose road2 carries none."""

    def __init__(self, terrain, keep_bump=True):
        self.terrain, self.keep_bump, self.calls = terrain, keep_bump, 0

    def wheels(self, a, b):
        road2 = self.terrain.wheels(a, b)
        if road2 is None:
            return None

        def counted(x1, x2):
            self.calls += 1
            return road2(x1, x2)

        if self.keep_bump:
            counted.bump = road2.bump
        return counted


def deciding_bump_values(bump, x1, x2):
    """The road values that road2.bump certifies at x1 and x2, each in
    road2's operation order, or None where one fails its floor."""
    mu, h, nh, n2s2, s2, floor_h, floor_s = bump
    values = []
    for x in (x1, x2):
        d = x - mu
        e = math.exp(d * d / n2s2)
        values += [h * e, 0.0 + nh * d / s2 * e]
    zh1, g1, zh2, g2 = values
    if zh1 > floor_h and zh2 > floor_h and abs(g1) > floor_s and abs(g2) > floor_s:
        return values
    return None


def full_sums(terrain, x1, x2):
    return (ref_height(terrain, x1), ref_slope(terrain, x1),
            ref_height(terrain, x2), ref_slope(terrain, x2))


# Spreads from 0.01 to 0.3, one whose variance is subnormal (1e-320) and
# one just inside the normal range; heights from 1e-200 to 5 and near
# overflow.
BUMPS = st.lists(st.builds(
    Bump,
    height=st.one_of(st.floats(1e-200, 5.0), st.sampled_from([1e307, 1.7e308])),
    center=st.floats(0.0, 4.0),
    spread=st.one_of(st.floats(0.01, 0.3), st.sampled_from([1e-160, 1.5e-154]))),
    min_size=2, max_size=6)


def _wheel(a, b, at, bumps):
    """A wheel position in [a, b]: a fraction of the way, or a bump's centre."""
    inside = [bump.center for bump in bumps if a <= bump.center <= b]
    if isinstance(at, int):
        return inside[at % len(inside)] if inside else a
    return min(b, a + at * (b - a))


class TestDecidingBump:
    @settings(max_examples=400, deadline=None)
    @given(bumps=BUMPS, a=st.floats(-0.5, 4.5), width=st.floats(0.0, 0.5),
           at=st.lists(st.one_of(st.floats(0.0, 1.0), st.integers(0, 5)),
                       min_size=2, max_size=2))
    def test_certified_values_are_the_full_sum(self, bumps, a, width, at):
        terrain = TerrainProfile(bumps=tuple(bumps), track_length=4.0)
        b = a + width
        x1, x2 = (_wheel(a, b, w, bumps) for w in at)
        road2 = terrain.wheels(a, b)
        want = bits(full_sums(terrain, x1, x2))
        if road2 is None:
            assert want == bits((0.0,) * 4)
            return
        assert bits(road2(x1, x2)) == want
        if road2.bump is not None:
            got = deciding_bump_values(road2.bump, x1, x2)
            assert got is None or bits(got) == want

    @settings(max_examples=300, deadline=None)
    @given(bumps=BUMPS, x=st.floats(0.0, 4.0), theta=st.floats(-0.3, 0.3),
           rates=st.tuples(st.floats(-1e-3, 1e-3), st.floats(-0.1, 0.1),
                           st.floats(-1.0, 1.0), st.floats(-3.0, 3.0)),
           at_centre=st.booleans())
    def test_derivatives_use_the_full_sum(self, bumps, x, theta, rates, at_centre):
        # The four road values the equations of motion use, through
        # everything that derivatives computes from them.
        params = VehicleParams()
        terrain = TerrainProfile(bumps=tuple(bumps), track_length=4.0)
        if at_centre:  # the front wheel on the first bump's centre
            theta, mu = 0.0, bumps[0].center
            x = solve(lambda x: x + params.L1, mu, mu - params.L1) or x
        z, z_dot, theta_dot, x_dot = rates
        y = (x, x_dot, z, z_dot, theta, theta_dot)
        assert outcome(lambda: derivatives(VehicleState(*y), 1.0, params, terrain)) \
            == outcome(lambda: ref_derivatives(*y, 1.0, params, terrain))

    def test_bump_dropped_exactly_at_the_limit(self):
        # A second bump whose y is exactly 40 above the first bump's y at
        # the window's far end is left out; one float nearer, it is kept.
        two_s2 = 2.0 * 0.05 * 0.05
        for i in range(200):
            a, b = 1.9, 2.1 + i * 1e-3
            far = max(b - 2.0, 2.0 - a)
            limit = far * far / two_s2 + 40.0
            mu = b + math.sqrt(limit * two_s2)
            for _ in range(64):
                y = (mu - b) * (mu - b) / two_s2
                if y == limit:
                    break
                mu = math.nextafter(mu, math.inf if y < limit else 0.0)
            if y == limit:
                break
        assert y == limit
        carried = []
        for mu_j in (mu, math.nextafter(mu, 0.0)):
            terrain = TerrainProfile(bumps=(Bump(0.008, 2.0, 0.05), Bump(0.008, mu_j, 0.05)),
                                     track_length=5.0)
            road2 = terrain.wheels(a, b)
            carried.append(road2.bump is not None)
            for x1, x2 in [(a, b), (b, a), (2.0, 2.05)]:
                want = bits(full_sums(terrain, x1, x2))
                assert bits(road2(x1, x2)) == want
                got = deciding_bump_values(road2.bump, x1, x2) if carried[-1] else None
                assert got is None or bits(got) == want
        assert carried == [True, False]

    def test_second_bump_within_2_56_of_the_first_is_summed(self, params):
        # At the front wheel (2.028) the tall bump adds about 2^-30 of the
        # near one's height: the floors keep it summed. With 2^8 in place of
        # 2^56 they would pass it and drop that term.
        terrain = TerrainProfile(bumps=(Bump(0.008, 2.0, 0.05), Bump(7.3e14, 2.576, 0.05)),
                                 track_length=5.0)
        road2 = terrain.wheels(1.9 - params.L2, 1.9 + params.L1)
        x1 = 1.9 + params.L1
        assert road2.bump is not None and road2.bump[:5] == terrain._terms[0]
        tall = ref_height(terrain, x1) - ref_height(TerrainProfile(bumps=terrain.bumps[:1]), x1)
        assert 2.0 ** -56 < tall / ref_height(terrain, x1) < 2.0 ** -8
        y = (1.9, 1.0, 0.001, 0.0, 0.0, 0.0)
        counted = Counted(terrain)
        assert bits(derivatives(VehicleState(*y), 1.0, params, counted)) == \
            bits(ref_derivatives(*y, 1.0, params, terrain))
        assert counted.calls == 1

    def test_zero_slope_at_a_centre_calls_road2(self, params):
        # The second bump is so far out (y about 756) that its bounds are
        # 0.0, so the floors are 0.0. The front wheel on the first bump's
        # centre has a slope of 0.0, which fails the strict test, so road2
        # gives the values; one float off the centre, the bump alone does.
        terrain = TerrainProfile(bumps=(Bump(0.008, 2.0, 0.05), Bump(0.008, 3.945, 0.05)),
                                 track_length=5.0)
        x = solve(lambda x: x + params.L1, 2.0, 2.0 - params.L1)
        assert x is not None
        for x, calls in [(x, 1), (math.nextafter(x, 0.0), 0)]:
            assert terrain.wheels(x - params.L2, x + params.L1).bump[5:] == (0.0, 0.0)
            y = (x, 1.0, 0.0, 0.0, 0.0, 0.0)
            counted = Counted(terrain)
            assert bits(derivatives(VehicleState(*y), 1.0, params, counted)) == \
                bits(ref_derivatives(*y, 1.0, params, terrain))
            assert counted.calls == calls

    def test_dense_track_steps_skip_road2(self, params):
        # On a 12-bump track most steps evaluate one bump inline and never
        # call road2; a terrain whose road2 carries no bump is called at every
        # stage and for the end state's z_ddot. Both give the same bits.
        track = random_track(1, TrackSpec(track_length=20.0, n_bumps=12,
                                          placement_range=(2.0, 19.0)))
        inline, other = Counted(track), Counted(track, keep_bump=False)
        start = VehicleState(x=1.5, x_dot=1.0)
        a = b = start
        skipped = live = 0
        for _ in range(600):
            before = inline.calls, other.calls
            a, za = step_rk4(a, 1.0, params, inline, DT)
            b, zb = step_rk4(b, 1.0, params, other, DT)
            assert bits((*a, za)) == bits((*b, zb))
            live += other.calls > before[1]
            skipped += inline.calls == before[0]
            assert other.calls - before[1] in (0, 8 * 4 + 1)
        assert a.x > 6.0 and live > 500 and skipped > 0.6 * 600

    def test_zero_slopes_past_a_bump_are_positive(self, params):
        # Both wheels past the bump, where its exp underflows to 0.0 but
        # inside its reach, so the window keeps it: each slope term is
        # -H d / sigma^2 * 0.0 = -0.0, and road2's sum is +0.0. From signed
        # zeros the sign reaches the front force and theta_ddot.
        terrain = TerrainProfile(bumps=(Bump(0.008, 1.0, 0.05),), track_length=5.0)
        x = 1.0 + math.sqrt(750.0 * 0.005) + params.L2
        assert terrain.wheels(x - params.L2, x + params.L1).bump[5:] == (-math.inf,) * 2
        y = (x, 1.0, -0.0, -0.0, 0.0, 0.0)
        got = derivatives(VehicleState(*y), 1.0, params, terrain)
        assert bits(got) == bits(ref_derivatives(*y, 1.0, params, terrain))
        assert bits(got[3:]) == bits([-0.0, 0.0, -0.0])
