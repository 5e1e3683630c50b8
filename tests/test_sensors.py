import numpy as np
import pytest

from bumpsim.sensors import CameraSpec, Observation, observe, preview
from bumpsim.terrain import FLAT, Bump, TerrainProfile
from bumpsim.vehicle import GRAVITY_NOMINAL, VehicleParams, VehicleState, derivatives


@pytest.fixture
def params():
    return VehicleParams()


@pytest.fixture
def cam():
    return CameraSpec()


def bump_at(center, height=0.008, sigma=0.05, length=20.0):
    return TerrainProfile(bumps=(Bump(height, center, sigma),), track_length=length)


def state_with_front_axle_at(x1, params):
    # front axle sits at x + L1 at theta = 0
    return VehicleState(x=x1 - params.L1)


class TestPreview:
    def test_no_bump_ahead_gives_zero(self, cam, params):
        assert preview(VehicleState(), FLAT, cam, params) == 0.0
        behind = bump_at(0.0)
        assert preview(state_with_front_axle_at(1.0, params), behind, cam, params) == 0.0

    def test_beyond_lookahead_gives_zero(self, cam, params):
        terrain = bump_at(10.0)
        state = state_with_front_axle_at(10.0 - cam.lookahead_max - 0.01, params)
        assert preview(state, terrain, cam, params) == 0.0

    def test_full_visibility_at_near_limit(self, cam, params):
        terrain = bump_at(5.0)
        state = state_with_front_axle_at(5.0 - cam.lookahead_min, params)
        assert preview(state, terrain, cam, params) == pytest.approx(0.3)

    def test_inverse_distance_law(self, cam, params):
        terrain = bump_at(5.0)
        at_04 = preview(state_with_front_axle_at(4.6, params), terrain, cam, params)
        at_02 = preview(state_with_front_axle_at(4.8, params), terrain, cam, params)
        assert at_04 == pytest.approx(0.15)
        assert at_02 == pytest.approx(0.3)
        assert at_02 == pytest.approx(2 * at_04)

    def test_nondecreasing_on_approach(self, cam, params):
        terrain = bump_at(8.0)
        distances = np.linspace(cam.lookahead_max, 0.01, 200)
        values = [
            preview(state_with_front_axle_at(8.0 - d, params), terrain, cam, params)
            for d in distances
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a
        # strictly increasing while farther than the near limit
        far = [v for d, v in zip(distances, values) if d > cam.lookahead_min]
        for a, b in zip(far, far[1:]):
            assert b > a

    def test_clamped_to_unit_interval(self, params):
        # many overlapping bumps with a huge gain still clamp at 1
        cam = CameraSpec(gain=5.0)
        terrain = TerrainProfile(
            bumps=tuple(Bump(0.008, 5.0 + 0.1 * i, 0.05) for i in range(5)),
            track_length=20.0,
        )
        p = preview(state_with_front_axle_at(4.9, params), terrain, cam, params)
        assert p == 1.0

    def test_smaller_bump_contributes_proportionally(self, cam, params):
        terrain = TerrainProfile(
            bumps=(Bump(0.004, 5.0, 0.05), Bump(0.008, 15.0, 0.05)),
            track_length=20.0,
        )
        state = state_with_front_axle_at(5.0 - cam.lookahead_min, params)
        assert preview(state, terrain, cam, params) == pytest.approx(0.15)


class TestObserve:
    def test_equilibrium_flat_noiseless(self, cam, params):
        z_ddot = derivatives(VehicleState(), 0.0, params, FLAT)[3]
        obs = observe(VehicleState(), z_ddot, FLAT, cam, params)
        assert obs == Observation(x_dot=0.0, z_ddot_meas=9.8, p=0.0)

    def test_noiseless_is_exact_passthrough(self, cam, params):
        terrain = bump_at(5.0)
        state = VehicleState(x=4.0, x_dot=1.0, z=0.003)
        z_ddot = derivatives(state, 1.0, params, terrain)[3]
        obs = observe(state, z_ddot, terrain, cam, params)
        assert obs.x_dot == state.x_dot
        assert obs.z_ddot_meas == z_ddot + GRAVITY_NOMINAL
        assert obs.p == preview(state, terrain, cam, params)


class TestCameraSpec:
    def test_rejects_inverted_lookahead(self):
        with pytest.raises(ValueError):
            CameraSpec(lookahead_max=0.1, lookahead_min=0.2)

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            CameraSpec(gain=0.0)
