import math
from dataclasses import replace

import numpy as np
import pytest

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
