"""Command-line entry point: train / eval / sweep / compare / serve.

The learner and the experiment harness import numpy, so only the commands
that use them import them: `serve` runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import threading
from dataclasses import astuple, replace

from . import config as cfg
from .env import BumpEnv
from .protocol import EnvServer
from .vehicle import DynamicsError


# The paper's sweep has 10 speeds; the whole list is built before the first.
MAX_SWEEP_SPEEDS = 10_000


def _env(resolved: dict) -> BumpEnv:
    return BumpEnv(
        params=cfg.vehicle_params(resolved),
        camera=cfg.camera_spec(resolved),
        reward_spec=cfg.reward_spec(resolved),
        episode=cfg.episode_config(resolved),
    )


def cmd_train(args) -> int:
    from .ddpg import DdpgAgent
    from .harness import train
    resolved = cfg.load(args.config)
    if args.seed is not None:
        resolved["train"]["seed"] = args.seed
    if args.episodes is not None:
        resolved["train"]["episodes"] = args.episodes
    config = cfg.train_config(resolved, args.out)
    # Built once, before --out exists, so a MemoryError leaves no directory.
    agent = DdpgAgent(config.agent, seed=config.seed)
    cfg.echo(resolved, args.out)
    train(config, agent=agent)
    return 0


def cmd_eval(args) -> int:
    from .ddpg import DdpgAgent
    from .harness import METRICS_CSV_HEADER, constant_policy, evaluate, write_csv
    if (args.checkpoint is None) == (args.constant_velocity is None):
        raise ValueError(
            "give exactly one of --checkpoint or --constant-velocity")
    if (args.constant_velocity is not None
            and not math.isfinite(args.constant_velocity)):
        raise ValueError("--constant-velocity must be finite")
    if args.episodes < 1:
        raise ValueError("--episodes must be >= 1")
    resolved = cfg.load(args.config)
    env = _env(resolved)
    if args.checkpoint is not None:
        policy = DdpgAgent.load(args.checkpoint).act
        tag = "policy"
    else:
        policy = constant_policy(args.constant_velocity)
        tag = "open_loop"
    cfg.echo(resolved, args.out)
    metrics, _ = evaluate(policy, env, episodes=args.episodes,
                          out_dir=args.out, tag=tag)
    write_csv(os.path.join(args.out, "eval_metrics.csv"), METRICS_CSV_HEADER,
              [astuple(metrics)])
    return 0


def cmd_sweep(args) -> int:
    from .harness import sweep_velocities
    if not (0.0 < args.min <= args.max < math.inf and 0.0 < args.step < math.inf):
        raise ValueError("need 0 < --min <= --max and 0 < --step, all finite")
    # floor(intervals) + 1 speeds, with a slack for a ratio that rounds just
    # under a whole number: (0.7 - 0.1) / 0.2 is 2.9999999999999996.
    intervals = (args.max - args.min) / args.step + 1e-9
    if intervals >= MAX_SWEEP_SPEEDS:  # an overflow to inf, too
        raise ValueError(f"--min, --max and --step give over {MAX_SWEEP_SPEEDS} speeds")
    velocities = [args.min + i * args.step for i in range(math.floor(intervals) + 1)]
    resolved = cfg.load(args.config)
    params, camera = cfg.vehicle_params(resolved), cfg.camera_spec(resolved)
    reward_spec = cfg.reward_spec(resolved)
    track = cfg.fixed_track(resolved)
    cfg.echo(resolved, args.out)
    sweep_velocities(
        velocities, params=params, camera=camera,
        reward_spec=reward_spec, track=track,
        out_path=os.path.join(args.out, "sweep.csv"),
    )
    return 0


def cmd_compare(args) -> int:
    from .ddpg import DdpgAgent
    from .harness import compare_rewards
    resolved = cfg.load(args.config)
    seeds = [int(s) for s in args.seeds.split(",")]
    base = cfg.train_config(resolved, None)
    for seed in seeds:  # TrainConfig checks each seed before --out exists
        replace(base, seed=seed)
    DdpgAgent(base.agent)  # and so does a MemoryError
    cfg.echo(resolved, args.out)
    compare_rewards(base, seeds, out_dir=args.out)
    return 0


def cmd_serve(args) -> int:
    resolved = cfg.load(args.config)
    host, _, port = args.addr.partition(":")
    _env(resolved)  # a bad config fails here, not at the first client
    # SIGINT and SIGTERM both end serve_forever with a KeyboardInterrupt and
    # exit 0, even when SIGINT came in ignored, as a non-interactive shell's
    # background job gets it. Only the main thread may set a handler.
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = ([signal.signal(s, signal.default_int_handler) for s in stops]
                if threading.current_thread() is threading.main_thread() else [])
    try:
        EnvServer(lambda: _env(resolved), host=host or "127.0.0.1",
                  port=int(port or 5890)).serve_forever()
    finally:
        for s, handler in zip(stops, previous):
            signal.signal(s, handler)
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
    p.add_argument("--seed", type=int, default=None,
                   help="override config run seed")
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
    try:  # a ConfigError or CheckpointError is a ValueError
        return args.func(args)
    except (DynamicsError, OSError, ValueError, MemoryError) as e:
        print(f"bumpsim {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
