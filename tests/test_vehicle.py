import math

import numpy as np
import pytest

from bumpsim.env import BumpEnv, EpisodeConfig
from bumpsim.sensors import CameraSpec, observe
from bumpsim.terrain import FLAT, Bump, TerrainProfile, TrackSpec, random_track
from bumpsim.vehicle import (
    GRAVITY_NOMINAL,
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

    def test_symmetry_pure_heave_any_terrain_offset(self, params):
        # Symmetric car, both wheels on the same road height: no pitch torque
        # for heave-only states.
        class UniformRoad:
            def height(self, x):
                return 0.004

            def slope(self, x):
                return 0.0

            def height_slope(self, x):
                return self.height(x), self.slope(x)

        for z, z_dot in [(0.0, 0.0), (0.01, -0.1), (-0.005, 0.2)]:
            d = derivatives(VehicleState(z=z, z_dot=z_dot), 0.0, params, UniformRoad())
            assert d[5] == 0.0  # theta_ddot


class TestStepRk4:
    def test_equilibrium_preserved(self, params):
        state = VehicleState()
        for _ in range(100):
            state = step_rk4(state, 0.0, params, FLAT, DT)
        assert state == VehicleState()

    def test_velocity_step_response_closed_form(self, params):
        # tau x_ddot + x_dot = u has solution x_dot = 1 - exp(-t / tau).
        state = VehicleState()
        for _ in range(36):  # 0.3 s = tau
            state = step_rk4(state, 1.0, params, FLAT, DT)
        assert state.x_dot == pytest.approx(1 - math.exp(-1), abs=1e-6)

    def test_convergence_is_fourth_order(self, params):
        def final_xdot(dt, steps):
            s = VehicleState()
            for _ in range(steps):
                s = step_rk4(s, 1.0, params, FLAT, dt, substeps=1)
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
                state = step_rk4(state, 0.0, params, FLAT, DT)
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
            state = step_rk4(state, 1.0, params, terrain, DT)
            z_ddot = derivatives(state, 1.0, params, terrain)[3]
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
        raise PitchOutOfRange(theta)
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
        for terrain in (dense_track, FLAT):
            for x in grid:
                got = terrain.height_slope(x)
                want = (ref_height(terrain, x), ref_slope(terrain, x))
                assert bits(got) == bits(want), x
                assert bits((terrain.height(x), terrain.slope(x))) == bits(want)

    def test_step_rk4_matches_reference(self, params, dense_track):
        rng = np.random.default_rng(3)
        state = VehicleState(x_dot=0.5)
        ref = state.as_tuple()
        pitch_seen = 0.0
        for _ in range(400):
            u = float(rng.uniform(0.0, 2.0))
            state = step_rk4(state, u, params, dense_track, DT)
            ref = ref_step_rk4(ref, u, params, dense_track, DT)
            assert bits(state.as_tuple()) == bits(ref)
            d = derivatives(state, u, params, dense_track)
            assert bits(d) == bits(
                ref_derivatives(*ref, u, params, dense_track))
            pitch_seen = max(pitch_seen, abs(state.theta))
        assert state.x > 3.2  # every bump was crossed
        assert pitch_seen > 1e-4

    def test_env_imu_reads_model_z_ddot_plus_gravity(self, dense_track):
        env = BumpEnv(episode=EpisodeConfig(fixed_track=dense_track,
                                            max_steps=400))
        env.reset(seed=0)
        rng = np.random.default_rng(4)
        done = False
        while not done:
            obs, _, done, info = env.step(float(rng.uniform(0.0, 2.0)))
            assert bits([info["z_ddot_model"] + GRAVITY_NOMINAL]) == \
                bits([obs.z_ddot_meas])
