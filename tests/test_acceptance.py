"""End-to-end acceptance suite: twelve go/no-go checks for the package.

Each test prints one summary line (visible with -rA or on failure) and
asserts the stated tolerance. Criteria 9 and 10 train real agents and
dominate the runtime; everything else finishes in seconds.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bumpsim.cli import main as cli_main
from bumpsim.ddpg import AgentConfig, DdpgAgent, Mlp, replay_columns
from bumpsim.env import (
    CONDITIONAL,
    FUNCTION_WEIGHTED,
    STATIC,
    BumpEnv,
    EpisodeConfig,
    RewardSpec,
    reward,
)
from bumpsim.harness import (
    TrainConfig,
    compare_rewards,
    constant_policy,
    count_acceleration_events,
    run_episode,
    single_bump_track,
    sweep_velocities,
    train,
)
from bumpsim.protocol import EnvServer, RemoteEnv
from bumpsim.sensors import Observation
from bumpsim.terrain import FLAT, Bump, TerrainProfile, TrackSpec, random_track
from bumpsim.vehicle import (
    GRAVITY_NOMINAL,
    VehicleParams,
    VehicleState,
    mechanical_energy,
    step_rk4,
)

DT = 1.0 / 120.0


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def flat_state(x_dot=0.0):
    return VehicleState(x=0.0, x_dot=x_dot, z=0.0, z_dot=0.0,
                        theta=0.0, theta_dot=0.0)


def test_criterion_01_velocity_lag_step_response_and_rk4_order():
    t0 = time.perf_counter()
    params = VehicleParams()
    tau, u = params.tau, 1.0

    state = flat_state()
    worst = 0.0
    checkpoints = {round(k * tau / DT) for k in (1, 2, 3)}
    for n in range(1, max(checkpoints) + 1):
        state, _ = step_rk4(state, u, params, FLAT, DT)
        if n in checkpoints:
            want = u * (1.0 - math.exp(-n * DT / tau))
            worst = max(worst, abs(state.x_dot - want))

    # Convergence order: halve dt repeatedly on the same horizon (suspension
    # stays at its fixed point, so only the velocity lag accumulates error).
    horizon = 3.0 * tau
    errs = []
    for dt in (0.09, 0.045, 0.0225):
        s = flat_state()
        for _ in range(round(horizon / dt)):
            s, _ = step_rk4(s, u, params, FLAT, dt, substeps=1)
        errs.append(abs(s.x_dot - u * (1.0 - math.exp(-horizon / tau))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-4 and all(3.7 <= o <= 4.3 for o in orders) and elapsed < 1.0
    report(1, ok, f"step-response err {worst:.2e}, observed order "
                  f"{orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.2f}s")


def test_criterion_02_equilibrium_and_energy_dissipation():
    t0 = time.perf_counter()
    params = VehicleParams()

    state = flat_state()
    eq = state
    fixed = True
    for _ in range(10_000):
        state, _ = step_rk4(state, 0.0, params, FLAT, DT)
        if state != eq:
            fixed = False
            break

    rng = np.random.default_rng(7)
    worst_rise = -math.inf
    for _ in range(100):
        s = VehicleState(
            x=0.0, x_dot=0.0,
            z=float(rng.uniform(-0.01, 0.01)),
            z_dot=float(rng.uniform(-0.05, 0.05)),
            theta=float(rng.uniform(-0.05, 0.05)),
            theta_dot=float(rng.uniform(-0.2, 0.2)),
        )
        e = mechanical_energy(s, params)
        for _ in range(100):
            s, _ = step_rk4(s, 0.0, params, FLAT, DT)
            e_next = mechanical_energy(s, params)
            worst_rise = max(worst_rise, e_next - e)
            e = e_next
    elapsed = time.perf_counter() - t0

    ok = fixed and worst_rise <= 1e-9 and elapsed < 5.0
    report(2, ok, f"fixed point {'held' if fixed else 'drifted'}, worst "
                  f"per-step energy rise {worst_rise:.2e}, {elapsed:.2f}s")


def test_criterion_03_terrain_slope_and_peak_height():
    track = random_track(99, TrackSpec())
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, track.track_length, size=100)
    h = 1e-6
    worst = max(
        abs(track.slope(x) - (track.height(x + h) - track.height(x - h)) / (2 * h))
        for x in xs
    )
    bump = single_bump_track()
    peak_exact = bump.height(bump.bumps[0].center) == 0.008
    ok = worst < 1e-6 and peak_exact
    report(3, ok, f"slope vs FD worst {worst:.2e}, peak at center "
                  f"{'exactly 0.008' if peak_exact else 'wrong'}")


def test_criterion_04_reward_worked_examples_and_sign():
    g = GRAVITY_NOMINAL
    cases_ok = all([
        reward(Observation(1.0, g, 0.0), RewardSpec(variant=STATIC)) == 0.0,
        reward(Observation(1.0, g + 1.0, 0.0), RewardSpec(variant=STATIC)) == -1.0,
        reward(Observation(1.2, g, 0.0), RewardSpec(variant=STATIC))
        == pytest.approx(-3.0),
        reward(Observation(1.0, g + 1.0, 0.1), RewardSpec(variant=CONDITIONAL))
        == -100.0,
        reward(Observation(1.0, g + 1.0, 0.5),
               RewardSpec(variant=FUNCTION_WEIGHTED)) == -50.0,
    ])
    rng = np.random.default_rng(4)
    spec = RewardSpec(variant=STATIC)
    worst = max(
        reward(Observation(float(v), float(a), float(p)), spec)
        for v, a, p in zip(
            rng.uniform(-2.0, 4.0, 100_000),
            rng.uniform(0.0, 20.0, 100_000),
            rng.uniform(0.0, 1.0, 100_000),
        )
    )
    ok = cases_ok and worst <= 0.0
    report(4, ok, f"worked examples {'pass' if cases_ok else 'fail'}, "
                  f"max static reward over 1e5 draws {worst:.2e}")


def _fd_check(net: Mlp, x: np.ndarray, rng) -> float:
    """Max relative error of backprop grads vs central finite differences."""
    grad_out = rng.standard_normal((x.shape[0], net.weights[-1].shape[1]))

    def loss():
        return float(np.sum(net.forward(x) * grad_out))

    _, cache = net.forward_cached(x)
    grad, _ = net.backward(cache, grad_out)
    worst = 0.0
    eps = 1e-6
    for p, g in zip(net.parameters(), net.split(grad)):
        flat, gflat = p.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss()
            flat[i] = keep - eps
            lo = loss()
            flat[i] = keep
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def test_criterion_05_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for net_seed in range(5):
        net_rng = np.random.default_rng(1000 + net_seed)
        actor = Mlp((3, 16, 16, 1), rng=net_rng)
        critic = Mlp((4, 16, 16, 1), rng=net_rng)
        worst = max(worst, _fd_check(actor, rng.standard_normal((4, 3)), rng))
        worst = max(worst, _fd_check(critic, rng.standard_normal((4, 4)), rng))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(5, ok, f"worst relative gradient error {worst:.2e} over 5 actor "
                  f"and 5 critic nets, {elapsed:.1f}s")


def test_criterion_06_ddpg_mechanics():
    agent = DdpgAgent(AgentConfig(hidden_sizes=(8, 8), warmup_steps=0,
                                  batch_size=4, buffer_capacity=8), seed=0)

    # Soft update is the exact affine blend t*(1 - tau) + tau*p.
    tau = agent.config.tau_soft
    before = [w.copy() for w in agent.target_actor.weights]
    agent.actor.weights[0] += 0.5
    agent.soft_update()
    blend_ok = all(
        np.array_equal(t, b * (1.0 - tau) + tau * p)
        for t, b, p in zip(agent.target_actor.weights, before,
                           agent.actor.weights)
    )

    # Terminal transitions bootstrap to y = r exactly.
    obs = Observation(1.0, GRAVITY_NOMINAL, 0.0)
    for _ in range(8):
        agent.store(obs, 1.0, -2.0, obs, True)
    _, _, rewards, _, dones = replay_columns(
        agent.buffer.sample(4, np.random.default_rng(0)))
    y = rewards + agent.config.gamma * (1.0 - dones) * 123.0
    terminal_ok = np.array_equal(y, rewards) and np.all(dones == 1.0)

    # FIFO overwrite and uniform coverage of the ring buffer.
    from bumpsim.ddpg import ReplayBuffer

    buf = ReplayBuffer(4)
    for r in range(6):
        buf.push(np.zeros(3), 0.0, float(r), np.zeros(3), False)
    kept = sorted(replay_columns(buf.rows[: buf.size])[2].tolist())
    fifo_ok = kept == [2.0, 3.0, 4.0, 5.0]
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(200):
        seen.update(replay_columns(buf.sample(4, rng))[2].tolist())
    uniform_ok = seen == {2.0, 3.0, 4.0, 5.0}

    ok = blend_ok and terminal_ok and fifo_ok and uniform_ok
    report(6, ok, f"soft-update exact {blend_ok}, terminal target {terminal_ok}, "
                  f"FIFO {fifo_ok}, uniform coverage {uniform_ok}")


def test_criterion_07_three_bump_baseline_event_count():
    track = random_track(42, TrackSpec())
    env = BumpEnv(episode=EpisodeConfig(track=track, max_steps=3600,
                                        initial_x_dot=1.0))
    obs = env.reset(seed=0)
    acc = []
    done = False
    while not done:
        obs, _, done, _ = env.step(1.0)
        acc.append(obs.z_ddot_meas)

    flat_env = BumpEnv(episode=EpisodeConfig(track=FLAT, max_steps=1200,
                                             initial_x_dot=1.0))
    fobs = flat_env.reset(seed=0)
    floor = 0.0
    done = False
    while not done:
        fobs, _, done, _ = flat_env.step(1.0)
        floor = max(floor, abs(fobs.z_ddot_meas - GRAVITY_NOMINAL))

    # The noiseless flat floor is ~0, so 5x the floor is guarded from below
    # and the count is also checked across a band of absolute thresholds.
    thresholds = sorted({max(5.0 * floor, 1e-4), 1e-3, 5e-3})
    counts = [count_acceleration_events(acc, th) for th in thresholds]
    ok = all(c == 3 for c in counts)
    report(7, ok, f"flat floor {floor:.2e}, events at thresholds "
                  f"{thresholds} = {counts} (want 3 each)")


def test_criterion_08_peak_acceleration_monotone_in_velocity():
    t0 = time.perf_counter()
    velocities = [round(0.1 * k, 1) for k in range(1, 11)]
    rows = sweep_velocities(velocities, max_steps=7200)
    peaks = [m.peak_abs_acc_dev for _, m in rows]
    violations = sum(b < a for a, b in zip(peaks, peaks[1:]))
    frac = violations / (len(peaks) - 1)
    elapsed = time.perf_counter() - t0
    # Hardware-specific observations (recorded, not asserted): low-speed
    # plateau and an absolute peak-drop cap do not apply to this model.
    ok = frac <= 0.02 and elapsed < 30.0
    report(8, ok, f"peaks {['%.3f' % p for p in peaks]}, adjacent violations "
                  f"{violations}/{len(peaks) - 1}, {elapsed:.1f}s")


# Held-out evaluation track: five tall, sharp bumps spaced ~1.1 m apart so the
# preview signal stays active through every crossing; on this terrain slowing
# near bumps is strongly reward-favoured over holding constant speed.
HOLDOUT = TerrainProfile(
    bumps=tuple(Bump(height=0.016, center=c, spread=0.03)
                for c in (3.0, 4.1, 5.2, 6.4, 7.5)),
    track_length=10.0,
)

# Training tracks for the learning-efficacy check are drawn from the same
# regime (randomized centers and spreads; the held-out layout never appears).
LEARNING_TRACK_SPEC = TrackSpec(
    n_bumps=5, bump_height=0.016, sigma_range=(0.03, 0.04))


def _holdout_env():
    return BumpEnv(episode=EpisodeConfig(track=HOLDOUT, max_steps=3600))


@pytest.mark.slow
def test_criterion_09_learned_policy_beats_constant_baseline():
    t0 = time.perf_counter()
    base_m, _ = run_episode(_holdout_env(), constant_policy(1.0), 0)

    passes = 0
    details = []
    for seed in (0, 1, 2):
        result = train(TrainConfig(
            episodes=100, seed=seed,
            episode=EpisodeConfig(max_steps=2400,
                                  track=LEARNING_TRACK_SPEC),
            agent=AgentConfig(reward_scale=0.002),
        ))
        m, _ = run_episode(_holdout_env(), result.agent.act, 0)
        ratio = m.peak_abs_acc_dev / base_m.peak_abs_acc_dev
        good = ratio <= 0.80 and m.mean_velocity >= 0.5
        passes += good
        details.append(f"seed {seed}: ratio {ratio:.3f} vel "
                       f"{m.mean_velocity:.2f} {'ok' if good else 'no'}")
    elapsed = time.perf_counter() - t0
    ok = passes >= 2
    report(9, ok, f"{passes}/3 seeds pass ({'; '.join(details)}), "
                  f"baseline peak {base_m.peak_abs_acc_dev:.3f}, "
                  f"{elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_10_reward_comparison_completes(tmp_path):
    base = TrainConfig(
        episodes=10, seed=0,
        episode=EpisodeConfig(max_steps=1200),
    )
    out = compare_rewards(base, seeds=[0, 1, 2], holdout_track=HOLDOUT,
                          out_dir=str(tmp_path))
    assert len(out["rows"]) == 9
    for seed in (0, 1, 2):
        audits = [v for (variant, s), v in out["seed_audit"].items() if s == seed]
        assert all(a == audits[0] for a in audits)
    means = {v: m.peak_abs_acc_dev for v, _, m in out["aggregates"]}
    best = min(means, key=means.get)
    # Recorded, not asserted: which variant attains the lowest mean peak.
    report(10, True, f"9 runs complete, seed audits identical, lowest mean "
                     f"peak: {best} ({ {k: round(v, 3) for k, v in means.items()} })")


def test_criterion_11_loopback_training_matches_in_process():
    cfg = TrainConfig(
        episodes=2, seed=0,
        episode=EpisodeConfig(max_steps=150),
        agent=AgentConfig(batch_size=16, warmup_steps=20, hidden_sizes=(8, 8)),
    )

    def factory():
        return BumpEnv(params=cfg.params, camera=cfg.camera,
                       reward_spec=cfg.reward_spec, episode=cfg.episode)

    local = train(cfg)
    server = EnvServer(factory, port=0).start()
    try:
        remote_env = RemoteEnv(server.address)
        remote = train(cfg, env=remote_env)
        remote_env.close()  # the server serves one session at a time
        rate_env = RemoteEnv(server.address)
        rate_env.reset(seed=0)
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            _, _, done, _ = rate_env.step(0.5)
            if done:
                rate_env.reset(seed=0)
        rate = n / (time.perf_counter() - t0)
        rate_env.close()
    finally:
        server.shutdown()

    weights_ok = all(
        np.array_equal(a, b)
        for a, b in zip(local.agent.actor.weights, remote.agent.actor.weights)
    ) and all(
        np.array_equal(a, b)
        for a, b in zip(local.agent.critic.weights, remote.agent.critic.weights)
    )
    metrics_ok = local.episode_metrics == remote.episode_metrics
    ok = weights_ok and metrics_ok and rate >= 120.0
    report(11, ok, f"weights identical {weights_ok}, metrics identical "
                   f"{metrics_ok}, loopback rate {rate:.0f} Hz")


def test_criterion_12_cli_training_is_byte_deterministic(tmp_path):
    doc = {
        "agent": {"batch_size": 16, "buffer_capacity": 2000,
                  "warmup_steps": 50, "hidden_sizes": [16, 16]},
        "episode": {"max_steps": 200},
        "train": {"episodes": 3, "seed": 0, "checkpoint_interval": 1},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(config_path),
                         "--seed", "11", "--out", str(out)]) == 0
        blobs.append((out / "train_metrics.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(12, ok, f"metrics CSVs {'byte-identical' if ok else 'differ'} "
                   f"({len(blobs[0])} bytes)")
