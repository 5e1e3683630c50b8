"""Training loop, evaluation rollouts, and the three experiment recipes.

Recipes: reward-variant comparison, open-loop constant-velocity baseline, and
the constant-velocity sweep over a single bump. Every run is seeded and
single-threaded so repeated runs produce byte-identical CSV output.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .ddpg import AgentConfig, DdpgAgent
from .env import BumpEnv, EpisodeConfig, RewardSpec
from .sensors import CameraSpec
from .terrain import DEFAULT_BUMP_HEIGHT, Bump, TerrainProfile
from .vehicle import GRAVITY_NOMINAL, VehicleParams

EPISODE_CSV_HEADER = [
    "episode", "steps", "episode_return", "peak_abs_acc_dev",
    "rmse_acc_dev", "rmse_vel_tracking", "mean_velocity", "noise_variance",
]
TIMESERIES_CSV_HEADER = [
    "t", "x", "x_dot", "u_x", "z", "theta", "z_ddot_meas", "p", "reward",
]


@dataclass(frozen=True)
class Metrics:
    """Ride-quality and tracking summary over one or more episodes."""

    peak_abs_acc_dev: float
    rmse_acc_dev: float
    rmse_vel_tracking: float
    mean_velocity: float
    episode_return: float


METRICS_CSV_HEADER = [f.name for f in fields(Metrics)]


# train() draws every episode's reset seed up front, one array of this many.
MAX_EPISODES = 1_000_000


@dataclass(frozen=True)
class TrainConfig:
    """Everything needed to reproduce a training run."""

    episodes: int = 500
    seed: int = 0
    params: VehicleParams = field(default_factory=VehicleParams)
    camera: CameraSpec = field(default_factory=CameraSpec)
    reward_spec: RewardSpec = field(default_factory=RewardSpec)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    out_dir: str | None = None
    checkpoint_interval: int = 100  # episodes between periodic checkpoints

    def __post_init__(self):
        if not (1 <= self.episodes <= MAX_EPISODES):
            raise ValueError(
                f"train.episodes must lie in [1, {MAX_EPISODES}], got {self.episodes}")
        if not (self.checkpoint_interval >= 1):
            raise ValueError("train.checkpoint_interval must be >= 1, got "
                             f"{self.checkpoint_interval}")
        # train() starts updating after warmup_steps + 1 stored transitions.
        if self.agent.warmup_steps + 1 < self.agent.batch_size:
            raise ValueError(
                f"agent.warmup_steps + 1 ({self.agent.warmup_steps + 1}) must be "
                f">= agent.batch_size ({self.agent.batch_size})"
            )


@dataclass
class TrainResult:
    episode_metrics: list
    episode_seeds: list
    agent: DdpgAgent
    checkpoint_path: str | None = None
    metrics_csv_path: str | None = None


def write_csv(path: str, header, rows):
    """csv.writer formats a float with str(), which for a Python float is the
    shortest decimal form that reparses to the exact value."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def metrics_from_trace(acc_meas, x_dot, rewards, x_dot_d: float) -> Metrics:
    acc_dev = np.asarray(acc_meas) - GRAVITY_NOMINAL
    vel_dev = np.asarray(x_dot) - x_dot_d
    return Metrics(
        peak_abs_acc_dev=float(np.max(np.abs(acc_dev))),
        rmse_acc_dev=float(np.sqrt(np.mean(acc_dev**2))),
        rmse_vel_tracking=float(np.sqrt(np.mean(vel_dev**2))),
        mean_velocity=float(np.mean(x_dot)),
        episode_return=float(np.sum(rewards)),
    )


def _mean_metrics(ms) -> Metrics:
    """Field-wise mean."""
    return Metrics(*(float(np.mean(column)) for column in zip(*map(astuple, ms))))


def aggregate_metrics(per_episode) -> Metrics:
    """Worst-case peak, mean of everything else."""
    peak = max(m.peak_abs_acc_dev for m in per_episode)
    return replace(_mean_metrics(per_episode), peak_abs_acc_dev=peak)


def constant_policy(u_x: float):
    """Open-loop baseline: the same commanded velocity every step."""
    return lambda obs: u_x


def episode_seed_sequence(seed: int, episodes: int):
    """Deterministic per-episode reset seeds derived from the run seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    return [int(s) for s in rng.integers(0, 2**31, size=episodes)]


def run_episode(env, policy, seed, on_step=None):
    """Run one episode of policy from env.reset(seed); returns (Metrics, steps).

    on_step(obs, action, reward, next_obs, done, info), when given, is called
    after every step.
    """
    obs = env.reset(seed=seed)
    acc, vel, rews = [], [], []
    done = False
    while not done:
        action = policy(obs)
        next_obs, r, done, info = env.step(action)
        if on_step is not None:
            on_step(obs, action, r, next_obs, done, info)
        obs = next_obs
        acc.append(obs.z_ddot_meas)
        vel.append(info["x_dot"])
        rews.append(r)
    return metrics_from_trace(acc, vel, rews, env.reward_spec.x_dot_d), len(rews)


def rollout(env, policy, seed=None, record=False):
    """Run one greedy episode; returns (Metrics, timeseries rows or None)."""
    rows = [] if record else None

    def record_row(obs, action, r, next_obs, done, info):
        rows.append([
            info["t"], info["x"], info["x_dot"], info["u_x"], info["z"],
            info["theta"], next_obs.z_ddot_meas, next_obs.p, r,
        ])

    m, _ = run_episode(env, policy, seed, record_row if record else None)
    return m, rows


def train(config: TrainConfig, env=None) -> TrainResult:
    """Seeded DDPG training loop over the configured environment.

    An explicit env (e.g. a remote-protocol client) may be passed in; it must
    honor the BumpEnv reset/step contract.
    """
    if env is None:
        env = BumpEnv(
            params=config.params, camera=config.camera,
            reward_spec=config.reward_spec, episode=config.episode,
        )
    agent = DdpgAgent(config.agent, seed=config.seed)
    ep_seeds = episode_seed_sequence(config.seed, config.episodes)
    out = config.out_dir
    if out is not None:
        os.makedirs(out, exist_ok=True)
    checkpoint_path = os.path.join(out, "checkpoint.json") if out else None

    total_steps = 0

    def learn(obs, action, r, next_obs, done, info):
        nonlocal total_steps
        agent.store(obs, action, r, next_obs, done)
        total_steps += 1
        if total_steps > config.agent.warmup_steps:
            agent.update()
            agent.soft_update()

    episode_metrics = []
    csv_rows = []
    for ep, ep_seed in enumerate(ep_seeds):
        agent.noise.reset()
        m, steps = run_episode(env, agent.explore, ep_seed, learn)
        agent.episode_count += 1
        episode_metrics.append(m)
        csv_rows.append([
            ep, steps, m.episode_return, m.peak_abs_acc_dev, m.rmse_acc_dev,
            m.rmse_vel_tracking, m.mean_velocity, agent.noise.variance,
        ])
        if checkpoint_path and (ep + 1) % config.checkpoint_interval == 0:
            agent.save(checkpoint_path)

    metrics_csv_path = None
    if out is not None:
        agent.save(checkpoint_path)
        metrics_csv_path = os.path.join(out, "train_metrics.csv")
        write_csv(metrics_csv_path, EPISODE_CSV_HEADER, csv_rows)
    return TrainResult(
        episode_metrics=episode_metrics,
        episode_seeds=ep_seeds,
        agent=agent,
        checkpoint_path=checkpoint_path,
        metrics_csv_path=metrics_csv_path,
    )


def evaluate(policy, env, episodes: int = 1, base_seed: int = 12345,
             out_dir: str | None = None, tag: str = "eval"):
    """Noise-free greedy rollouts; returns (aggregate Metrics, per-episode list)."""
    per_episode = []
    for i in range(episodes):
        record = out_dir is not None
        m, rows = rollout(env, policy, seed=base_seed + i, record=record)
        per_episode.append(m)
        if record:
            os.makedirs(out_dir, exist_ok=True)
            write_csv(
                os.path.join(out_dir, f"{tag}_episode_{i}.csv"),
                TIMESERIES_CSV_HEADER, rows,
            )
    return aggregate_metrics(per_episode), per_episode


def count_acceleration_events(acc_meas, threshold: float) -> int:
    """Count maximal contiguous runs with |z_ddot - 9.8| above threshold."""
    above = np.abs(np.asarray(acc_meas) - GRAVITY_NOMINAL) > threshold
    return int(np.sum(above[1:] & ~above[:-1]) + (1 if above.size and above[0] else 0))


def single_bump_track() -> TerrainProfile:
    return TerrainProfile(
        bumps=(Bump(height=DEFAULT_BUMP_HEIGHT, center=5.0, spread=0.05),),
        track_length=10.0,
    )


def sweep_velocities(velocities, params: VehicleParams = VehicleParams(),
                     camera: CameraSpec = CameraSpec(),
                     reward_spec: RewardSpec = RewardSpec(),
                     track: TerrainProfile | None = None,
                     max_steps: int = 7200,
                     out_path: str | None = None):
    """Constant-command evaluation per velocity over a single-bump track.

    Returns rows of (velocity, Metrics) sorted by velocity.
    """
    if any(v <= 0.0 for v in velocities):
        raise ValueError("sweep velocities must be positive")
    if track is None:
        track = single_bump_track()
    rows = []
    for v in sorted(velocities):
        env = BumpEnv(
            params=params, camera=camera, reward_spec=reward_spec,
            episode=EpisodeConfig(fixed_track=track, max_steps=max_steps,
                                  initial_x_dot=v),
        )
        m, _ = rollout(env, constant_policy(v), seed=0)
        rows.append((v, m))
    if out_path is not None:
        write_csv(out_path, ["velocity", *METRICS_CSV_HEADER],
                  [[v, *astuple(m)] for v, m in rows])
    return rows


COMPARISON_CSV_HEADER = ["variant", "seed", *METRICS_CSV_HEADER]


def compare_rewards(base: TrainConfig, seeds,
                    holdout_track: TerrainProfile | None = None,
                    out_dir: str | None = None):
    """Train each reward variant per seed with identical budgets and env seeds.

    Returns a dict with per-run rows, aggregate rows, and the seed audit
    (episode-seed sequence per run; identical across variants by construction
    and asserted here).
    """
    from .env import REWARD_VARIANTS

    if holdout_track is None:
        holdout_track = single_bump_track()
    rows = []
    seed_audit = {}
    for variant in REWARD_VARIANTS:
        for seed in seeds:
            cfg = replace(
                base, seed=seed,
                reward_spec=replace(base.reward_spec, variant=variant),
                out_dir=(os.path.join(out_dir, f"{variant}_seed{seed}")
                         if out_dir else None),
            )
            result = train(cfg)
            seed_audit[(variant, seed)] = result.episode_seeds
            eval_env = BumpEnv(
                params=cfg.params, camera=cfg.camera,
                reward_spec=cfg.reward_spec,
                episode=replace(cfg.episode, fixed_track=holdout_track),
            )
            m, _ = evaluate(result.agent.act, eval_env)
            rows.append((variant, seed, m))
    for seed in seeds:
        audits = {v: seed_audit[(v, seed)] for v in REWARD_VARIANTS}
        first = next(iter(audits.values()))
        assert all(a == first for a in audits.values()), \
            "episode seed sequences diverged across variants"

    aggregates = [
        (variant, "mean", _mean_metrics(m for v, _, m in rows if v == variant))
        for variant in REWARD_VARIANTS
    ]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "comparison.csv"), COMPARISON_CSV_HEADER,
                  [[v, s, *astuple(m)] for v, s, m in rows + aggregates])
        with open(os.path.join(out_dir, "comparison.txt"), "w") as f:
            f.write(format_comparison_table(rows, aggregates))
    return {"rows": rows, "aggregates": aggregates, "seed_audit": seed_audit}


def format_comparison_table(rows, aggregates) -> str:
    lines = [
        f"{'variant':<18} {'seed':>6} {'peak':>10} {'rmse_acc':>10} "
        f"{'rmse_vel':>10} {'mean_vel':>10} {'return':>12}"
    ]
    for v, s, m in list(rows) + list(aggregates):
        lines.append(
            f"{v:<18} {s!s:>6} {m.peak_abs_acc_dev:>10.4f} "
            f"{m.rmse_acc_dev:>10.4f} {m.rmse_vel_tracking:>10.4f} "
            f"{m.mean_velocity:>10.4f} {m.episode_return:>12.2f}"
        )
    best = min(aggregates, key=lambda r: r[2].peak_abs_acc_dev)
    lines.append(f"lowest mean peak_abs_acc_dev: {best[0]}")
    return "\n".join(lines) + "\n"
