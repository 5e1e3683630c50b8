import math

import numpy as np
import pytest

from bumpsim.terrain import (
    FLAT,
    Bump,
    InfeasibleSpec,
    TerrainProfile,
    TrackSpec,
    random_track,
)


@pytest.fixture
def single_bump():
    return TerrainProfile(
        bumps=(Bump(height=0.008, center=5.0, spread=0.05),), track_length=10.0
    )


class TestHeight:
    def test_peak_at_center_is_exact(self, single_bump):
        assert single_bump.height(5.0) == 0.008

    def test_value_at_three_sigma(self, single_bump):
        # H * exp(-(3 sigma)^2 / (2 sigma^2)) = H * e^-4.5
        assert single_bump.height(5.0 + 0.15) == pytest.approx(
            0.008 * math.exp(-4.5), rel=1e-12
        )

    def test_flat_terrain_is_zero_everywhere(self):
        for x in np.linspace(-5, 15, 50):
            assert FLAT.height(float(x)) == 0.0

    def test_height_bounded_by_total_bump_height(self):
        profile = random_track(7)
        cap = sum(b.height for b in profile.bumps)
        for x in np.linspace(0, 10, 500):
            h = profile.height(float(x))
            assert 0.0 <= h <= cap

    def test_superposition_of_two_bumps(self):
        two = TerrainProfile(
            bumps=(
                Bump(height=0.008, center=3.0, spread=0.05),
                Bump(height=0.008, center=3.0, spread=0.05),
            ),
            track_length=10.0,
        )
        assert two.height(3.0) == pytest.approx(0.016)


class TestSlope:
    def test_zero_at_bump_center(self, single_bump):
        assert single_bump.slope(5.0) == 0.0

    def test_value_at_one_sigma(self, single_bump):
        # -(H/sigma) * e^-0.5 at x = mu + sigma
        expected = -(0.008 / 0.05) * math.exp(-0.5)
        assert single_bump.slope(5.05) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-0.097045, abs=1e-6)

    def test_matches_finite_difference_at_random_points(self):
        profile = random_track(3)
        rng = np.random.default_rng(11)
        h = 1e-6
        for x in rng.uniform(0.0, 10.0, size=100):
            fd = (profile.height(x + h) - profile.height(x - h)) / (2 * h)
            assert profile.slope(x) == pytest.approx(fd, abs=1e-6)


class TestRandomTrack:
    def test_same_seed_gives_identical_profile(self):
        assert random_track(123) == random_track(123)

    def test_zero_bumps_gives_flat_profile(self):
        profile = random_track(0, TrackSpec(n_bumps=0))
        assert profile.bumps == ()

    def test_invariants_over_many_seeds(self):
        spec = TrackSpec()
        for seed in range(1000):
            profile = random_track(seed, spec)
            centers = [b.center for b in profile.bumps]
            assert len(centers) == spec.n_bumps
            assert centers == sorted(centers)
            for a, b in zip(centers, centers[1:]):
                assert b - a >= spec.min_spacing
            for bump in profile.bumps:
                assert spec.placement_range[0] <= bump.center <= spec.placement_range[1]
                assert spec.sigma_range[0] <= bump.spread <= spec.sigma_range[1]
                assert bump.height == spec.bump_height

    def test_infeasible_spacing_raises(self):
        with pytest.raises(InfeasibleSpec):
            random_track(0, TrackSpec(n_bumps=10, min_spacing=1.0,
                                      placement_range=(2.0, 9.0)))

    def test_distinct_seeds_give_distinct_tracks(self):
        profiles = {random_track(s).bumps for s in range(100)}
        assert len(profiles) == 100


class TestValidation:
    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError):
            Bump(height=0.0, center=1.0, spread=0.1)

    def test_nonpositive_spread_rejected(self):
        with pytest.raises(ValueError):
            Bump(height=0.01, center=1.0, spread=-0.1)

    def test_center_outside_track_rejected(self):
        with pytest.raises(ValueError):
            TerrainProfile(bumps=(Bump(0.008, 12.0, 0.05),), track_length=10.0)
