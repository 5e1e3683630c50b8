"""Training loop, metrics, baselines, and experiment recipe tests."""

import math

import numpy as np
import pytest

from bumpsim.ddpg import AgentConfig, DdpgAgent
from bumpsim.env import BumpEnv, EpisodeConfig, RewardSpec
from bumpsim.harness import (
    EPISODE_CSV_HEADER,
    Metrics,
    TrainConfig,
    aggregate_metrics,
    compare_rewards,
    constant_policy,
    count_acceleration_events,
    episode_seed_sequence,
    evaluate,
    metrics_from_trace,
    rollout,
    single_bump_track,
    sweep_velocities,
    train,
    write_csv,
)
from bumpsim.terrain import FLAT, TrackSpec, random_track

FAST_AGENT = AgentConfig(
    batch_size=16, buffer_capacity=2000, warmup_steps=20, hidden_sizes=(8, 8),
)


def tiny_train_config(tmp_path=None, **kw):
    defaults = dict(
        episodes=3,
        seed=0,
        episode=EpisodeConfig(max_steps=50),
        agent=FAST_AGENT,
        out_dir=str(tmp_path) if tmp_path is not None else None,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMetrics:
    def test_known_trace(self):
        m = metrics_from_trace(
            acc_meas=[9.8, 10.8, 8.8], x_dot=[1.0, 1.0, 0.0],
            rewards=[-1.0, -2.0, 0.5], x_dot_d=1.0,
        )
        assert m.peak_abs_acc_dev == pytest.approx(1.0)
        assert m.rmse_acc_dev == pytest.approx(math.sqrt(2.0 / 3.0))
        assert m.rmse_vel_tracking == pytest.approx(math.sqrt(1.0 / 3.0))
        assert m.mean_velocity == pytest.approx(2.0 / 3.0)
        assert m.episode_return == pytest.approx(-2.5)

    def test_aggregate_takes_worst_peak_and_means(self):
        a = Metrics(2.0, 0.5, 0.1, 0.9, -10.0)
        b = Metrics(1.0, 0.3, 0.3, 0.7, -30.0)
        agg = aggregate_metrics([a, b])
        assert agg.peak_abs_acc_dev == 2.0
        assert agg.rmse_acc_dev == pytest.approx(0.4)
        assert agg.mean_velocity == pytest.approx(0.8)
        assert agg.episode_return == pytest.approx(-20.0)

    def test_metrics_recompute_from_recorded_rows(self):
        env = BumpEnv(episode=EpisodeConfig(max_steps=400))
        m, rows = rollout(env, constant_policy(1.0), seed=7, record=True)
        acc = [r[6] for r in rows]
        vel = [r[2] for r in rows]
        rew = [r[8] for r in rows]
        m2 = metrics_from_trace(acc, vel, rew, env.reward_spec.x_dot_d)
        for f in Metrics.__dataclass_fields__:
            assert getattr(m, f) == pytest.approx(getattr(m2, f), rel=1e-12)


class TestCsv:
    def test_floats_round_trip_exactly(self, tmp_path):
        path = str(tmp_path / "t.csv")
        vals = [0.1, 1 / 3, 2.0**-40, -9.81234567890123]
        write_csv(path, ["a", "b", "c", "d"], [vals])
        import csv as csvmod

        with open(path) as f:
            r = list(csvmod.reader(f))
        assert r[0] == ["a", "b", "c", "d"]
        assert [float(s) for s in r[1]] == vals


class TestSeeds:
    def test_episode_seed_sequence_deterministic(self):
        a = episode_seed_sequence(42, 10)
        b = episode_seed_sequence(42, 10)
        assert a == b
        assert len(a) == 10
        assert episode_seed_sequence(43, 10) != a

    def test_prefix_property(self):
        assert episode_seed_sequence(5, 10)[:4] == episode_seed_sequence(5, 4)


class TestRolloutBaselines:
    def test_flat_terrain_rides_smooth(self):
        env = BumpEnv(episode=EpisodeConfig(fixed_track=FLAT, max_steps=600))
        m, _ = rollout(env, constant_policy(1.0), seed=0)
        assert m.peak_abs_acc_dev < 1e-9
        assert m.mean_velocity > 0.8

    def test_three_bump_track_gives_three_events(self):
        track = random_track(42, TrackSpec())
        env = BumpEnv(
            episode=EpisodeConfig(fixed_track=track, max_steps=3600,
                                  initial_x_dot=1.0),
        )
        obs = env.reset(seed=0)
        acc = []
        done = False
        while not done:
            obs, _, done, _ = env.step(1.0)
            acc.append(obs.z_ddot_meas)
        for threshold in (1e-4, 1e-3, 5e-3):
            assert count_acceleration_events(acc, threshold) == 3

    def test_event_counting_on_synthetic_traces(self):
        g = 9.8
        assert count_acceleration_events([g, g, g], 0.1) == 0
        assert count_acceleration_events([g, g + 1, g], 0.1) == 1
        assert count_acceleration_events([g + 1, g, g + 1, g + 1], 0.1) == 2
        assert count_acceleration_events([g - 1, g - 1], 0.1) == 1
        assert count_acceleration_events([], 0.1) == 0


class TestSweep:
    def test_peaks_monotone_in_velocity(self):
        rows = sweep_velocities([0.4, 0.2, 0.8], max_steps=3600)
        vels = [v for v, _ in rows]
        assert vels == sorted(vels)
        peaks = [m.peak_abs_acc_dev for _, m in rows]
        assert peaks == sorted(peaks)

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(ValueError):
            sweep_velocities([0.5, 0.0])

    def test_writes_csv(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        sweep_velocities([0.5], max_steps=2400, out_path=path)
        with open(path) as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("velocity,")
        assert len(lines) == 2


class TestTrain:
    def test_runs_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        r1 = train(tiny_train_config(d1, seed=3))
        r2 = train(tiny_train_config(d2, seed=3))
        csv1 = open(r1.metrics_csv_path, "rb").read()
        csv2 = open(r2.metrics_csv_path, "rb").read()
        assert csv1 == csv2
        assert r1.episode_seeds == r2.episode_seeds

    def test_different_seeds_differ(self, tmp_path):
        r1 = train(tiny_train_config(tmp_path / "a", seed=1))
        r2 = train(tiny_train_config(tmp_path / "b", seed=2))
        assert open(r1.metrics_csv_path, "rb").read() != \
            open(r2.metrics_csv_path, "rb").read()

    def test_no_updates_before_warmup(self):
        cfg = tiny_train_config(
            episodes=1,
            agent=AgentConfig(warmup_steps=10**6, hidden_sizes=(8, 8)),
        )
        result = train(cfg)
        fresh = DdpgAgent(cfg.agent, seed=cfg.seed)
        for got, want in zip(result.agent.actor.weights, fresh.actor.weights):
            assert np.array_equal(got, want)

    def test_updates_after_warmup_change_params(self):
        cfg = tiny_train_config(episodes=2)
        result = train(cfg)
        fresh = DdpgAgent(cfg.agent, seed=cfg.seed)
        assert any(
            not np.array_equal(got, want)
            for got, want in zip(result.agent.actor.weights,
                                 fresh.actor.weights)
        )

    def test_checkpoint_and_csv_written(self, tmp_path):
        r = train(tiny_train_config(tmp_path))
        assert r.checkpoint_path and r.metrics_csv_path
        reloaded = DdpgAgent.load(r.checkpoint_path)
        for got, want in zip(reloaded.actor.weights, r.agent.actor.weights):
            assert np.array_equal(got, want)
        with open(r.metrics_csv_path) as f:
            lines = f.read().splitlines()
        assert lines[0] == ",".join(EPISODE_CSV_HEADER)
        assert len(lines) == 1 + 3

    def test_rejects_nonpositive_episodes(self):
        with pytest.raises(ValueError):
            TrainConfig(episodes=0)

    def test_rejects_warmup_shorter_than_batch(self):
        # warmup_steps + 1 transitions are stored before the first update.
        TrainConfig(agent=AgentConfig(batch_size=16, warmup_steps=15))
        with pytest.raises(ValueError, match="warmup_steps"):
            TrainConfig(agent=AgentConfig(batch_size=16, warmup_steps=14))


class TestEvaluate:
    def test_does_not_mutate_agent(self):
        agent = DdpgAgent(FAST_AGENT, seed=0)
        before = [w.copy() for w in agent.actor.weights]
        env = BumpEnv(episode=EpisodeConfig(max_steps=60))
        evaluate(agent.act, env, episodes=2)
        for b, a in zip(before, agent.actor.weights):
            assert np.array_equal(b, a)

    def test_aggregates_requested_episode_count(self, tmp_path):
        env = BumpEnv(episode=EpisodeConfig(max_steps=60))
        agg, per = evaluate(constant_policy(0.5), env, episodes=3,
                            out_dir=str(tmp_path))
        assert len(per) == 3
        assert agg.peak_abs_acc_dev == max(m.peak_abs_acc_dev for m in per)
        assert len(list(tmp_path.glob("eval_episode_*.csv"))) == 3


class TestCompareRewards:
    def test_shapes_audit_and_outputs(self, tmp_path):
        base = tiny_train_config(episodes=2, seed=0)
        out = compare_rewards(base, seeds=[0, 1],
                              holdout_track=single_bump_track(),
                              out_dir=str(tmp_path))
        assert len(out["rows"]) == 3 * 2
        assert len(out["aggregates"]) == 3
        for seed in (0, 1):
            audits = [v for (variant, s), v in out["seed_audit"].items()
                      if s == seed]
            assert all(a == audits[0] for a in audits)
        assert (tmp_path / "comparison.csv").exists()
        text = (tmp_path / "comparison.txt").read_text()
        assert "lowest mean peak_abs_acc_dev:" in text
