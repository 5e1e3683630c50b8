"""Training loop, metrics, baselines, and experiment recipe tests."""

import csv
import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bumpsim.ddpg import AgentConfig, DdpgAgent, replay_columns
from bumpsim.env import BumpEnv, EpisodeConfig, RewardSpec
from bumpsim.harness import (
    EPISODE_CSV_HEADER,
    TIMESERIES_CSV_HEADER,
    Metrics,
    TrainConfig,
    aggregate_metrics,
    compare_rewards,
    constant_policy,
    count_acceleration_events,
    episode_seed_sequence,
    evaluate,
    metrics_from_trace,
    run_episode,
    single_bump_track,
    sweep_velocities,
    train,
    write_csv,
)
from bumpsim.terrain import FLAT, TerrainProfile, TrackSpec, random_track
from bumpsim.vehicle import VehicleParams

FAST_AGENT = AgentConfig(
    batch_size=16, buffer_capacity=2000, warmup_steps=20, hidden_sizes=(8, 8),
)


# The perfbench eval track: 12 bumps in 17 m.
DENSE_TRACK = TrackSpec(track_length=20.0, n_bumps=12, placement_range=(2.0, 19.0))


def traced_peak(fn, *args, **kwargs) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_metrics_recompute_from_recorded_rows(self, tmp_path):
        env = BumpEnv(episode=EpisodeConfig(max_steps=400))
        _, (m,) = evaluate(constant_policy(1.0), env, base_seed=7,
                           out_dir=str(tmp_path))
        lines = (tmp_path / "eval_episode_0.csv").read_text().splitlines()[1:]
        rows = [float(v) for line in lines for v in line.split(",")]
        acc, vel, rew = rows[6::9], rows[2::9], rows[8::9]
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

    def test_extreme_floats_round_trip_bit_for_bit(self, tmp_path):
        path = tmp_path / "t.csv"
        vals = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, math.inf]
        write_csv(str(path), ["a", "b", "c", "d", "e"], [vals, [1, "x", True, 0.5, -2.5]])
        lines = path.read_text().splitlines()
        assert lines[1] == ",".join(map(repr, vals))  # the shortest round-trip forms
        assert lines[2] == "1,x,True,0.5,-2.5"
        got = [float(s) for s in lines[1].split(",")]
        assert [v.hex() for v in got] == [v.hex() for v in vals]


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
        env = BumpEnv(episode=EpisodeConfig(track=FLAT, max_steps=600))
        m, _ = run_episode(env, constant_policy(1.0), 0)
        assert m.peak_abs_acc_dev < 1e-9
        assert m.mean_velocity > 0.8

    def test_three_bump_track_gives_three_events(self):
        track = random_track(42, TrackSpec())
        env = BumpEnv(
            episode=EpisodeConfig(track=track, max_steps=3600,
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

    def test_rejects_velocity_above_u_max(self):
        # The car would run 2.5 at u_max = 2.0, under 2.5's label.
        with pytest.raises(ValueError, match="u_max"):
            sweep_velocities([0.5, 2.5])

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
        csv1 = (d1 / "train_metrics.csv").read_bytes()
        csv2 = (d2 / "train_metrics.csv").read_bytes()
        assert csv1 == csv2
        assert r1.episode_seeds == r2.episode_seeds

    def test_different_seeds_differ(self, tmp_path):
        train(tiny_train_config(tmp_path / "a", seed=1))
        train(tiny_train_config(tmp_path / "b", seed=2))
        assert (tmp_path / "a" / "train_metrics.csv").read_bytes() != \
            (tmp_path / "b" / "train_metrics.csv").read_bytes()

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
        reloaded = DdpgAgent.load(str(tmp_path / "checkpoint.json"))
        for got, want in zip(reloaded.actor.weights, r.agent.actor.weights):
            assert np.array_equal(got, want)
        with open(tmp_path / "train_metrics.csv") as f:
            lines = f.read().splitlines()
        assert lines[0] == ",".join(EPISODE_CSV_HEADER)
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("episodes, interval, saved_after",
                             [(2, 1, [1, 2]), (3, 2, [2, 3])],
                             ids=["2_episodes_every_1", "3_episodes_every_2"])
    def test_checkpoint_written_once_per_due_episode(
            self, tmp_path, monkeypatch, episodes, interval, saved_after):
        # The last episode, when a multiple of the interval, used to save twice.
        saves = []
        save = DdpgAgent.save

        def counting_save(agent, path):
            saves.append(agent.episode_count)
            save(agent, path)

        monkeypatch.setattr(DdpgAgent, "save", counting_save)
        train(tiny_train_config(tmp_path, episodes=episodes,
                                checkpoint_interval=interval))
        assert saves == saved_after

    def test_stores_done_exactly_where_the_car_leaves_the_track(self):
        # A 0.2 m track that even a car braking from 1 m/s (tau = 0.3 s)
        # leaves in 40 steps, well before max_steps.
        passed = []

        class TrackEndEnv(BumpEnv):
            def step(self, action):
                out = super().step(action)
                passed.append(out[3]["x"] >= self.terrain.track_length)
                return out

        episode = EpisodeConfig(max_steps=200, initial_x_dot=1.0,
                                track=TerrainProfile(track_length=0.2))
        cfg = tiny_train_config(episodes=2, episode=episode, agent=AgentConfig(
            warmup_steps=10**6, hidden_sizes=(8, 8)))
        result = train(cfg, env=TrackEndEnv(episode=episode))
        buffer = result.agent.buffer
        assert buffer.size == len(passed) < 2 * episode.max_steps
        done = replay_columns(buffer.rows[:buffer.size])[4]
        assert done.tolist() == [1.0 if p else 0.0 for p in passed]
        assert sum(passed) == 2 and passed[-1]

    def test_rejects_nonpositive_episodes(self):
        with pytest.raises(ValueError):
            TrainConfig(episodes=0)

    def test_rejects_warmup_shorter_than_batch(self):
        # warmup_steps + 1 transitions are stored before the first update.
        TrainConfig(agent=AgentConfig(batch_size=16, warmup_steps=15))
        with pytest.raises(ValueError, match="warmup_steps"):
            TrainConfig(agent=AgentConfig(batch_size=16, warmup_steps=14))

    def test_rejects_agent_u_max_other_than_the_cars(self):
        # The agent would scale x_dot by 2.0 and never command above it.
        match = r"agent.u_max \(2.0\) must equal vehicle.u_max \(3.0\)"
        with pytest.raises(ValueError, match=match):
            TrainConfig(params=VehicleParams(u_max=3.0))
        TrainConfig(params=VehicleParams(u_max=3.0), agent=AgentConfig(u_max=3.0))


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

    @pytest.mark.parametrize("u_x", [1.2, 2.5])  # 2.5 > u_max: every step clamped
    def test_csv_bytes_equal_the_list_of_rows_form(self, tmp_path, u_x):
        env = BumpEnv(episode=EpisodeConfig(track=DENSE_TRACK, max_steps=1200))
        policy = constant_policy(u_x)
        evaluate(policy, env, episodes=2, base_seed=3, out_dir=str(tmp_path))
        for i in range(2):
            rows = []
            run_episode(env, policy, 3 + i, lambda obs, a, r, nxt, done, info:
                        rows.append([info["t"], info["x"], info["x_dot"],
                                     info["u_x"], info["z"], info["theta"],
                                     nxt.z_ddot_meas, nxt.p, r]))
            text = io.StringIO()
            w = csv.writer(text)
            w.writerow(TIMESERIES_CSV_HEADER)
            w.writerows(rows)
            got = (tmp_path / f"eval_episode_{i}.csv").read_bytes()
            assert got == text.getvalue().encode()

    def test_holds_one_episode_at_a_time(self, tmp_path):
        env = BumpEnv(episode=EpisodeConfig(track=FLAT, max_steps=1000))

        def run(episodes):
            evaluate(constant_policy(0.5), env, episodes=episodes,
                     out_dir=str(tmp_path))

        run(1)  # warm-up
        one = traced_peak(run, 1)
        assert len((tmp_path / "eval_episode_0.csv").read_text().splitlines()) == 1001
        assert traced_peak(run, 2) <= 1.1 * one


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

    def test_releases_each_run_before_training_the_next(self):
        # A replay buffer that outweighs the rest of a run.
        base = tiny_train_config(episodes=2, agent=replace(
            FAST_AGENT, buffer_capacity=20_000, hidden_sizes=(16, 16)))
        compare_rewards(base, seeds=[0])  # warm-up
        one = traced_peak(train, base)
        assert traced_peak(compare_rewards, base, seeds=[0]) <= 1.25 * one
