"""Command-line entry point: train / eval / sweep / compare / serve."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple

from . import config as cfg
from .ddpg import CheckpointError, DdpgAgent
from .env import BumpEnv
from .harness import (
    METRICS_CSV_HEADER,
    compare_rewards,
    constant_policy,
    evaluate,
    single_bump_track,
    sweep_velocities,
    train,
    write_csv,
)
from .protocol import serve


def _load_resolved(path: str) -> dict:
    if not os.path.exists(path):
        raise cfg.ConfigError(f"config file not found: {path}")
    return cfg.load(path)


def _echo_config(resolved: dict, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    cfg.echo(resolved, os.path.join(out_dir, "resolved_config.json"))


def _env(resolved: dict) -> BumpEnv:
    return BumpEnv(
        params=cfg.vehicle_params(resolved),
        camera=cfg.camera_spec(resolved),
        reward_spec=cfg.reward_spec(resolved),
        episode=cfg.episode_config(resolved),
    )


def cmd_train(args) -> int:
    resolved = _load_resolved(args.config)
    resolved["train"]["seed"] = args.seed
    if args.episodes is not None:
        resolved["train"]["episodes"] = args.episodes
    config = cfg.train_config(resolved, args.out)
    _echo_config(resolved, args.out)
    train(config)
    return 0


def cmd_eval(args) -> int:
    if (args.checkpoint is None) == (args.constant_velocity is None):
        print("eval: give exactly one of --checkpoint or --constant-velocity",
              file=sys.stderr)
        return 1
    resolved = _load_resolved(args.config)
    env = _env(resolved)
    if args.checkpoint is not None:
        policy = DdpgAgent.load(args.checkpoint).act
        tag = "policy"
    else:
        policy = constant_policy(args.constant_velocity)
        tag = "open_loop"
    _echo_config(resolved, args.out)
    metrics, _ = evaluate(policy, env, episodes=args.episodes,
                          out_dir=args.out, tag=tag)
    write_csv(os.path.join(args.out, "eval_metrics.csv"), METRICS_CSV_HEADER,
              [astuple(metrics)])
    return 0


def cmd_sweep(args) -> int:
    if args.step <= 0.0:
        print("sweep: --step must be positive", file=sys.stderr)
        return 1
    if args.max < args.min:
        print("sweep: --max must be >= --min", file=sys.stderr)
        return 1
    resolved = _load_resolved(args.config)
    n = int(round((args.max - args.min) / args.step)) + 1
    velocities = [args.min + i * args.step for i in range(n)]
    env = _env(resolved)
    track = env.episode.fixed_track or single_bump_track()
    _echo_config(resolved, args.out)
    sweep_velocities(
        velocities, params=env.params, camera=env.camera,
        reward_spec=env.reward_spec, track=track,
        out_path=os.path.join(args.out, "sweep.csv"),
    )
    return 0


def cmd_compare(args) -> int:
    resolved = _load_resolved(args.config)
    seeds = [int(s) for s in args.seeds.split(",")]
    base = cfg.train_config(resolved, None)
    _echo_config(resolved, args.out)
    compare_rewards(base, seeds, out_dir=args.out)
    return 0


def cmd_serve(args) -> int:
    resolved = _load_resolved(args.config)
    host, _, port = args.addr.partition(":")
    serve(lambda: _env(resolved), host=host or "127.0.0.1",
          port=int(port or 5890))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bumpsim",
        description="Half-car bump-traversal simulator and velocity-policy "
                    "training toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a velocity policy")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument("--episodes", type=int, default=None,
                   help="override config episode count")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or constant speed")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None, help="agent checkpoint path")
    p.add_argument("--constant-velocity", type=float, default=None,
                   help="open-loop baseline command, m/s")
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="constant-velocity sweep over one bump")
    p.add_argument("--config", required=True)
    p.add_argument("--min", type=float, default=0.1)
    p.add_argument("--max", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="train and compare the reward variants")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("serve", help="expose the environment over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--addr", default="127.0.0.1:5890", help="host:port")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cfg.ConfigError, CheckpointError, OSError, ValueError) as e:
        print(f"bumpsim {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
