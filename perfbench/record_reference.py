"""Record the reference outputs the sweep and eval workloads are checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known good. Writes
perfbench/reference/sweep.json (one row per sweep velocity) and
perfbench/reference/eval.json (per-episode metrics for a pool of reset seeds;
each eval unit draws consecutive seeds from this pool).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict

from run import git_commit
from worker import REFERENCE_DIR, Eval, Sweep, _env_kwargs

EVAL_POOL_BASE = 10_000
EVAL_POOL_SIZE = 64
EVAL_AGENT_SEED = 0


def main() -> int:
    from bumpsim import config
    from bumpsim.ddpg import DdpgAgent
    from bumpsim.env import BumpEnv
    from bumpsim.harness import evaluate, single_bump_track, sweep_velocities

    commit = git_commit(os.getcwd())
    os.makedirs(REFERENCE_DIR, exist_ok=True)

    resolved = config.resolve(Sweep.doc)
    rows = sweep_velocities(Sweep.VELOCITIES, max_steps=Sweep.MAX_STEPS,
                            track=config.fixed_track(resolved) or single_bump_track(),
                            **_env_kwargs(resolved))
    write(os.path.join(REFERENCE_DIR, "sweep.json"), {
        "commit": commit,
        "rows": [{"velocity": v, **asdict(m)} for v, m in rows],
    })

    resolved = config.resolve(Eval.doc)
    env = BumpEnv(episode=config.episode_config(resolved), **_env_kwargs(resolved))
    agent = DdpgAgent(config.agent_config(resolved), seed=EVAL_AGENT_SEED)
    _, per_episode = evaluate(agent.act, env, episodes=EVAL_POOL_SIZE,
                              base_seed=EVAL_POOL_BASE)
    write(os.path.join(REFERENCE_DIR, "eval.json"), {
        "commit": commit,
        "base_seed": EVAL_POOL_BASE,
        "agent_seed": EVAL_AGENT_SEED,
        "episodes": [asdict(m) for m in per_episode],
    })
    return 0


def write(path: str, doc: dict):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
