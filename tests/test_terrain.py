import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpsim import terrain
from bumpsim.terrain import (
    FLAT,
    MAX_BUMPS,
    Bump,
    InfeasibleSpec,
    TerrainProfile,
    TrackRng,
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

    def test_bump_count_is_capped(self):
        TrackSpec(n_bumps=MAX_BUMPS, min_spacing=0.0)
        with pytest.raises(ValueError, match="terrain.n_bumps"):
            TrackSpec(n_bumps=MAX_BUMPS + 1, min_spacing=0.0)

    # tests/test_cli.py runs the out-of-range documents; NaN only reaches a
    # directly built spec, since the config rejects it.
    @pytest.mark.parametrize("kwargs, key", [
        ({"placement_range": (2.0, 11.0)}, "placement_range"),
        ({"placement_range": (2.0, math.nan)}, "placement_range"),
        ({"min_spacing": math.nan}, "min_spacing"),
        ({"sigma_range": (0.0, 0.03)}, "sigma_range"),
        ({"sigma_range": (math.nan, 0.03)}, "sigma_range"),
    ])
    def test_out_of_bounds_spec_names_its_key(self, kwargs, key):
        with pytest.raises(ValueError, match=f"terrain.{key}"):
            TrackSpec(**kwargs)

    def test_a_flat_spec_draws_nothing_to_bound(self):
        TrackSpec(track_length=1.0, n_bumps=0, min_spacing=-1.0,
                  sigma_range=(0.08, 0.03))

    def test_bounds_are_inclusive(self):
        spec = TrackSpec(n_bumps=1, placement_range=(10.0, 10.0),
                         sigma_range=(0.05, 0.05), min_spacing=0.0)
        assert random_track(0, spec).bumps[0].center == 10.0

    def test_infeasible_spacing_raises(self):
        with pytest.raises(InfeasibleSpec):
            random_track(0, TrackSpec(n_bumps=10, min_spacing=1.0,
                                      placement_range=(2.0, 9.0)))

    def test_distinct_seeds_give_distinct_tracks(self):
        profiles = {random_track(s).bumps for s in range(100)}
        assert len(profiles) == 100


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# numpy's default_rng is the reference for the track stream.
class TestTrackRng:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1),
           calls=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
                                    st.integers(1, 12)),
                          min_size=2, max_size=2))
    def test_uniform_matches_numpy(self, seed, calls):
        ours, numpy_rng = TrackRng(seed), np.random.default_rng(seed)
        for a, b, n in calls:
            low, high = min(a, b), max(a, b)
            assert [x.hex() for x in ours.uniform(low, high, size=n)] == \
                [x.hex() for x in numpy_rng.uniform(low, high, size=n).tolist()]

    @pytest.mark.parametrize("low, high", [
        (0.0, math.inf), (-1e308, 1e308), (0.0, math.nan), (1.0, 0.0), (0.0, -0.0),
    ])
    def test_bad_range_raises_as_numpy_does(self, low, high):
        assert raised(lambda: TrackRng(0).uniform(low, high, size=1)) == \
            raised(lambda: np.random.default_rng(0).uniform(low, high, size=1))

    def test_negative_seed_raises_as_numpy_does(self):
        assert raised(lambda: TrackRng(-1)) == \
            raised(lambda: np.random.default_rng(-1)) == \
            (ValueError, "expected non-negative integer")

    def test_unseeded_seeds_from_128_os_bits(self, monkeypatch):
        monkeypatch.setattr(terrain.os, "urandom", lambda n: bytes(range(1, n + 1)))
        seed = int.from_bytes(bytes(range(1, 17)), "little")
        assert TrackRng().uniform(0.0, 1.0, size=4) == \
            np.random.default_rng(seed).uniform(0.0, 1.0, size=4).tolist()

    # Integer bounds in a Python-built spec must round as numpy's arrays do.
    @pytest.mark.parametrize("spec", [
        TrackSpec(),
        TrackSpec(track_length=20.0, n_bumps=12, placement_range=(2.0, 19.0)),
        TrackSpec(track_length=20, n_bumps=12, placement_range=(2, 19), min_spacing=1),
    ], ids=["default", "dense", "integers"])
    def test_int_seed_draws_numpys_track(self, spec):
        for seed in [*range(100), 2**32 + 1, 2**64 + 5, 2**200]:
            assert random_track(seed, spec) == \
                random_track(np.random.default_rng(seed), spec)


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
