"""Check that the fast test suite catches each of a fixed set of mutants.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # only these

A mutant is one (file, old, new) replacement in `src/bumpsim/`. For each one
this copies the tree (without `.git` and caches) to a temporary directory,
replaces the one occurrence of `old` with `new` there, and runs
`python -m pytest -m "not slow" -x -q` on the copy, without
`tests/test_mutants.py`. A mutant survives when that run passes, and is
caught when a test fails or errors; the first such test is printed. The
unmutated copy must pass first, so that only the mutant can fail a test.
Exits 1 naming every survivor, 0 when each was caught; any other pytest
outcome stops the run with pytest's output.

The update mutants break the DDPG learner's mathematics (Lillicrap et al.,
arXiv 1509.02971). The fold mutants reassociate the expressions whose signs
are folded into constants: each rounds differently, so the bit-exact
reference tests must catch it. The half-car mutants swap a front and a rear
quantity, which only a car with unequal arms, springs and dampers can show;
the stage mutant reads the road for RK4's second stage at the step's start,
which costs the integrator its fourth order over a bump.
The whole list took about 5 minutes on a 2-core host; the package does not
import this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DDPG = "src/bumpsim/ddpg.py"
HARNESS = "src/bumpsim/harness.py"
TERRAIN = "src/bumpsim/terrain.py"
VEHICLE = "src/bumpsim/vehicle.py"

# name: (file, old, new); each old occurs exactly once in its file.
MUTANTS = {
    "target_ignores_done": (
        DDPG, "y = rew + cfg.gamma * (1.0 - done) * nq", "y = rew + cfg.gamma * nq"),
    "target_uses_online_critic": (
        DDPG, "nq = self.target_critic.forward(", "nq = self.critic.forward("),
    "target_uses_online_actor": (
        DDPG, "ny = self.target_actor.forward(nobs)", "ny = self.actor.forward(nobs)"),
    "target_drops_gamma": (
        DDPG, "y = rew + cfg.gamma * (1.0 - done) * nq", "y = rew + (1.0 - done) * nq"),
    "actor_ascends_minus_q": (
        DDPG, "self.actor_opt.step(-self.actor.backward(",
        "self.actor_opt.step(self.actor.backward("),
    "actor_drops_squash_derivative": (
        DDPG, "grad_y = grad_a * 0.5 * (1.0 - np.tanh(ay) ** 2)", "grad_y = grad_a * 0.5"),
    "noise_pushes_away_from_zero": (
        DDPG, "self.mean_reversion * (0.0 - self.value)",
        "self.mean_reversion * (self.value - 0.0)"),
    "train_stores_non_terminal": (
        HARNESS, "agent.store(obs, action, r, next_obs, done)",
        "agent.store(obs, action, r, next_obs, False)"),
    "slope_reassociated": (
        TERRAIN, "g1_x += nh * d1 / s2 * e1", "g1_x += nh / s2 * d1 * e1"),
    "exponent_reassociated": (
        TERRAIN, "e1 = exp(d1 * d1 / n2s2)", "e1 = exp(d1 / n2s2 * d1)"),
    "heave_by_reciprocal": (
        VEHICLE, "(f1 + f2) / neg_m", "(f1 + f2) * (1.0 / neg_m)"),
    "pitch_arms_swapped": (
        VEHICLE, "c * (L1 * f1 - L2 * f2)", "c * (L2 * f1 - L1 * f2)"),
    "front_damper_uses_c2": (
        VEHICLE, "c1 * ((z_dot - l1c * theta_dot)", "c2 * ((z_dot - l1c * theta_dot)"),
    "rear_spring_uses_k1": (
        VEHICLE, "f2 = k2 * (", "f2 = k1 * ("),
    "rear_wheel_at_front_arm": (
        VEHICLE, "road2(x + l1c, x - l2c)", "road2(x + l1c, x - l1c)"),
    "stage2_road_at_step_start": (
        VEHICLE, "acc(x + hh * xd, xd1", "acc(x, xd1"),
}

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".perfbench_work")


def apply(tree: Path, file: str, old: str, new: str):
    """Replace the one occurrence of old in tree/file with new."""
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: expected one {old!r}, found {text.count(old)}")
    path.write_text(text.replace(old, new))


def killer(name: str | None) -> str | None:
    """The first fast test that fails on a copy of the tree with the named
    mutant (None: unmutated), or None when the fast suite passes there."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if name is not None:
            apply(tree, *MUTANTS[name])
        proc = subprocess.run(
            # tests/test_mutants.py fails on every mutant by design.
            [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
             "-p", "no:cacheprovider", "--ignore", "tests/test_mutants.py"],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src"),
                 "PYTHONDONTWRITEBYTECODE": "1"},
        )
        if proc.returncode not in (0, 1):  # 1: a test failed or errored
            raise SystemExit(f"{name}: pytest exited {proc.returncode}:\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        if proc.returncode == 0:
            return None
        return next((line.split()[1] for line in proc.stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))), "a test")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run (default: all): {', '.join(MUTANTS)}")
    args = parser.parse_args(argv)
    unknown = [n for n in args.names if n not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    test = killer(None)
    if test is not None:
        raise SystemExit(f"the unmutated tree fails {test}")
    survivors = []
    for name in args.names or MUTANTS:
        test = killer(name)
        print(f"{name}: {'SURVIVED' if test is None else 'caught by ' + test}",
              flush=True)
        if test is None:
            survivors.append(name)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
