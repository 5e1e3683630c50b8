import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bumpsim.env import (
    CONDITIONAL,
    FUNCTION_WEIGHTED,
    STATIC,
    BumpEnv,
    EnvNotReset,
    EpisodeConfig,
    NonFiniteAction,
    RewardSpec,
    reward,
)
from bumpsim.harness import single_bump_track
from bumpsim.sensors import Observation
from bumpsim.terrain import TrackSpec


def obs(z_ddot=9.8, x_dot=1.0, p=0.0):
    return Observation(x_dot=x_dot, z_ddot_meas=z_ddot, p=p)


class TestReward:
    @pytest.mark.parametrize("variant", [STATIC, CONDITIONAL, FUNCTION_WEIGHTED])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3, 1.0])
    def test_zero_at_nominal(self, variant, p):
        spec = RewardSpec(variant=variant)
        assert reward(obs(p=p), spec) == 0.0

    def test_static_acceleration_deviation(self):
        assert reward(obs(z_ddot=10.8), RewardSpec(variant=STATIC)) == -1.0

    def test_static_velocity_deviation(self):
        got = reward(obs(x_dot=1.2), RewardSpec(variant=STATIC))
        assert got == pytest.approx(-3.0)

    def test_conditional_heavy_above_threshold(self):
        spec = RewardSpec(variant=CONDITIONAL)
        assert reward(obs(z_ddot=10.8, p=0.1), spec) == -100.0
        assert reward(obs(z_ddot=10.8, p=0.01), spec) == -1.0

    def test_function_weighted_scales_with_preview(self):
        spec = RewardSpec(variant=FUNCTION_WEIGHTED)
        assert reward(obs(z_ddot=10.8, p=0.5), spec) == -50.0

    def test_function_weighted_ignores_acceleration_at_zero_preview(self):
        spec = RewardSpec(variant=FUNCTION_WEIGHTED)
        got = reward(obs(z_ddot=15.0, x_dot=0.8, p=0.0), spec)
        assert got == pytest.approx(-75.0 * 0.2**2)

    def test_variants_agree_where_weight_is_one(self):
        # w(p) = 1 at p = 0.01 for slope 100; conditional below threshold
        o = obs(z_ddot=10.3, x_dot=0.9, p=0.01)
        static = reward(o, RewardSpec(variant=STATIC))
        assert reward(o, RewardSpec(variant=FUNCTION_WEIGHTED)) == pytest.approx(static)
        assert reward(o, RewardSpec(variant=CONDITIONAL)) == pytest.approx(static)

    @given(
        z=st.floats(-50, 50, allow_nan=False),
        v=st.floats(0, 2, allow_nan=False),
        p=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_rewards_never_positive(self, z, v, p):
        o = obs(z_ddot=9.8 + z, x_dot=v, p=p)
        for variant in (STATIC, CONDITIONAL, FUNCTION_WEIGHTED):
            assert reward(o, RewardSpec(variant=variant)) <= 0.0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            RewardSpec(variant="bogus")


class TestReset:
    def test_same_seed_gives_identical_track_and_observation(self):
        env1, env2 = BumpEnv(), BumpEnv()
        o1, o2 = env1.reset(seed=7), env2.reset(seed=7)
        assert o1 == o2
        assert env1.terrain == env2.terrain

    def test_flat_config_first_observation(self):
        env = BumpEnv(episode=EpisodeConfig(track_spec=TrackSpec(n_bumps=0),
                                            initial_x_dot=0.5))
        assert env.reset(seed=0) == Observation(x_dot=0.5, z_ddot_meas=9.8, p=0.0)

    def test_randomized_tracks_are_distinct_and_spaced(self):
        env = BumpEnv()
        seen = set()
        for seed in range(100):
            env.reset(seed=seed)
            centers = tuple(b.center for b in env.terrain.bumps)
            seen.add(centers)
            for a, b in zip(centers, centers[1:]):
                assert b - a >= env.episode.track_spec.min_spacing
        assert len(seen) == 100


class TestStep:
    def test_step_before_reset_raises(self):
        with pytest.raises(EnvNotReset):
            BumpEnv().step(1.0)

    def test_nonfinite_action_raises(self):
        env = BumpEnv()
        env.reset(seed=0)
        with pytest.raises(NonFiniteAction):
            env.step(float("nan"))

    def test_action_clamped_to_velocity_bounds(self):
        env = BumpEnv(episode=EpisodeConfig(track_spec=TrackSpec(n_bumps=0)))
        env.reset(seed=0)
        _, _, _, info = env.step(99.0)
        assert info["u_x"] == env.params.u_max
        _, _, _, info = env.step(-5.0)
        assert info["u_x"] == 0.0

    def test_flat_rollout_at_desired_velocity_has_zero_reward(self):
        env = BumpEnv(episode=EpisodeConfig(track_spec=TrackSpec(n_bumps=0),
                                            initial_x_dot=1.0,
                                            max_steps=100_000))
        env.reset(seed=0)
        done = False
        steps = 0
        while not done:
            _, r, done, info = env.step(1.0)
            steps += 1
            assert r == 0.0
        # track length 10 m at 1 m/s and 120 Hz
        assert abs(steps - 1200) <= 1

    def test_zero_command_from_rest_times_out(self):
        env = BumpEnv(episode=EpisodeConfig(track_spec=TrackSpec(n_bumps=0),
                                            max_steps=50))
        env.reset(seed=0)
        done = False
        steps = 0
        while not done:
            _, _, done, info = env.step(0.0)
            steps += 1
        assert steps == 50
        assert info["x"] == 0.0

    def test_reward_dip_coincides_with_acceleration_peak(self):
        env = BumpEnv(
            episode=EpisodeConfig(fixed_track=single_bump_track(),
                                  initial_x_dot=1.0),
        )
        env.reset(seed=0)
        rewards, acc_devs = [], []
        done = False
        while not done:
            o, r, done, _ = env.step(1.0)
            rewards.append(r)
            acc_devs.append(abs(o.z_ddot_meas - 9.8))
        worst_reward_step = int(np.argmin(rewards))
        peak_acc_step = int(np.argmax(acc_devs))
        assert abs(worst_reward_step - peak_acc_step) <= 5

    def test_episode_is_deterministic_given_seed_and_actions(self):
        actions = np.random.default_rng(3).uniform(0, 2, size=200)

        def run():
            env = BumpEnv()
            env.reset(seed=11)
            out = []
            for a in actions:
                o, r, done, info = env.step(float(a))
                out.append((o, r, done, tuple(sorted(info.items()))))
                if done:
                    break
            return out

        assert run() == run()

    def test_done_when_track_end_reached(self):
        env = BumpEnv(episode=EpisodeConfig(track_spec=TrackSpec(n_bumps=0),
                                            initial_x_dot=2.0,
                                            max_steps=100_000))
        env.reset(seed=0)
        done = False
        while not done:
            _, _, done, info = env.step(2.0)
        assert info["x"] >= env.terrain.track_length


class TestEpisodeConfigValidation:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            EpisodeConfig(dt=0.0)

    def test_rejects_nonpositive_max_steps(self):
        with pytest.raises(ValueError):
            EpisodeConfig(max_steps=0)
