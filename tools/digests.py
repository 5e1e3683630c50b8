"""Hash every output of a fixed set of bumpsim runs, and compare two trees.

    python tools/digests.py                 # print "name sha256" per output
    python tools/digests.py --against REV   # run REV's tree too (git archive);
                                            # exit 1 naming each file that differs
    python tools/digests.py --against REV --allow resolved_config.json

The set: `train` for seeds 0, 7 and the 2-word 4294967301 (3 episodes, with
updates, on 16x16 nets and batch 16), one `train` on the default 64x64 nets
and batch 64 (2 episodes, whose 1200 transitions wrap its 1000-row replay),
`eval` of the seed-0 and the 2-word seed's checkpoints, constant-velocity
`eval` on dense 12-bump tracks (once at a command above `u_max`, so every
step is clamped), on a flat track and on a fixed two-bump track, `sweep` on
the default track (once on a grid whose end rounds just past `--max`) and on
the fixed two-bump track, `compare --seeds 0,1`, and one loopback `serve`
session, whose response lines are the session's output. The session resets
at seeds 0 and 1, at the multi-word seeds 2**32 + 1 and 2**64 + 5, and once
without a seed, which continues the last seed's stream, then sends a bad
seed and a bad action. Since `--against` runs the working tree's jobs and
plays its session on both trees, it checks the track stream of one tree
against the other's through the real server, and the 2-word seed's jobs
check the networks' seeding through the CLI.

A REV that git cannot archive ends the run before any job, with exit 1.
An --allow NAME matches an output's full name or its file name. The digests
depend on the libm and numpy build, so compare two trees on one machine; the
package does not import this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRAIN = {
    "agent": {"batch_size": 16, "buffer_capacity": 2000, "warmup_steps": 100,
              "hidden_sizes": [16, 16]},
    "episode": {"max_steps": 600, "initial_x_dot": 1.0},  # over a bump or two
    "train": {"episodes": 3, "checkpoint_interval": 2},
}
DENSE = {"terrain": {"track_length": 20.0, "n_bumps": 12,
                     "placement_range": [2.0, 19.0]},
         "episode": {"max_steps": 1200}}
FLAT = {"terrain": {"fixed_bumps": []}, "episode": {"max_steps": 600}}
TWO_BUMPS = {"terrain": {"track_length": 5.0,
                         "fixed_bumps": [{"H": 0.01, "mu": 2.0, "sigma": 0.05},
                                         {"H": 0.006, "mu": 2.6, "sigma": 0.03}]}}
COMPARE = {**TRAIN, "train": {"episodes": 2, "checkpoint_interval": 1}}
# The learner's default shapes, as criterion 9 and the benchmark run them.
DEFAULT_NETS = {"agent": {"buffer_capacity": 1000, "warmup_steps": 100},
                "episode": TRAIN["episode"],
                "train": {"episodes": 2, "checkpoint_interval": 1}}

# (output name, config document, command and flags); each run writes --out
# <name>, in this order, from one working directory.
JOBS = [
    ("train_seed0", TRAIN, ["train", "--seed", "0"]),
    ("train_seed7", TRAIN, ["train", "--seed", "7"]),
    ("train_default_nets", DEFAULT_NETS, ["train", "--seed", "0"]),
    ("eval_checkpoint", TRAIN,
     ["eval", "--checkpoint", "train_seed0/checkpoint.json", "--episodes", "2"]),
    # 2**32 + 5: the networks' seed pool is zero-padded before its spawn key.
    ("train_seed_2words", TRAIN, ["train", "--seed", "4294967301"]),
    ("eval_checkpoint_2words", TRAIN,
     ["eval", "--checkpoint", "train_seed_2words/checkpoint.json"]),
    ("eval_dense", DENSE, ["eval", "--constant-velocity", "1.2", "--episodes", "3"]),
    ("eval_clamped", DENSE, ["eval", "--constant-velocity", "2.5", "--episodes", "2"]),
    ("eval_flat", FLAT, ["eval", "--constant-velocity", "0.7"]),
    ("eval_two_bumps", TWO_BUMPS, ["eval", "--constant-velocity", "1.0"]),
    ("sweep_default", {}, ["sweep"]),
    ("sweep_two_bumps", TWO_BUMPS,
     ["sweep", "--min", "0.5", "--max", "1.5", "--step", "0.5"]),
    # (0.7 - 0.1) / 0.2 rounds to just under 3, yet 0.7 is swept.
    ("sweep_rounded_end", {},
     ["sweep", "--min", "0.1", "--max", "0.7", "--step", "0.2"]),
    ("compare", COMPARE, ["compare", "--seeds", "0,1"]),
]
SERVE = ("serve", DENSE)
CONNECT_TIMEOUT_S = 30.0


def _session_requests(version):
    rng = random.Random(0)
    steps = [{"type": "step", "u_x": rng.uniform(0.0, 2.0)} for _ in range(150)]
    # Far enough (about 3.8 m) to cross the first bump of each dense track.
    over_a_bump = steps * 3
    return [
        {"type": "hello", "version": version},
        {"type": "reset", "seed": 0}, *steps,
        {"type": "reset", "seed": 1}, *steps,
        # Seeds of 2 and 3 32-bit words, then an unseeded reset that
        # continues the last seed's stream.
        {"type": "reset", "seed": 2**32 + 1}, *over_a_bump,
        {"type": "reset", "seed": 2**64 + 5}, *over_a_bump,
        {"type": "reset"}, *over_a_bump,
        {"type": "reset", "seed": -1},
        {"type": "step", "u_x": float("nan")},
        {"type": "close"},
    ]


def _serve_session(python_env, work: Path, config: str, out: Path):
    """Start `bumpsim serve`, play one session and write its response lines."""
    version = json.loads(subprocess.run(
        [sys.executable, "-c",
         "from bumpsim.protocol import PROTOCOL_VERSION; print(PROTOCOL_VERSION)"],
        env=python_env, capture_output=True, text=True, check=True).stdout)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    server = subprocess.Popen(
        [sys.executable, "-m", "bumpsim.cli", "serve", "--config", config,
         "--addr", f"127.0.0.1:{port}"], cwd=work, env=python_env)
    try:
        deadline = time.monotonic() + CONNECT_TIMEOUT_S
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
                break
            except ConnectionRefusedError:
                if server.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        with sock, sock.makefile("rb") as reader:
            lines = []
            for request in _session_requests(version):
                sock.sendall(json.dumps(request).encode() + b"\n")
                lines.append(reader.readline())
        out.mkdir()
        (out / "session.jsonl").write_bytes(b"".join(lines))
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def run_set(tree: Path, work: Path) -> dict:
    """Run every job on the package in tree/src from work; name -> sha256."""
    python_env = {**os.environ, "PYTHONPATH": str(tree / "src"),
                  "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
    configs = work / "configs"
    configs.mkdir(parents=True)
    for name, doc, *_ in JOBS + [SERVE]:
        (configs / f"{name}.json").write_text(json.dumps(doc))
    for name, _, (command, *flags) in JOBS:
        subprocess.run(
            [sys.executable, "-m", "bumpsim.cli", command,
             "--config", f"configs/{name}.json", *flags, "--out", name],
            cwd=work, env=python_env, check=True)
    _serve_session(python_env, work, f"configs/{SERVE[0]}.json", work / SERVE[0])
    digests = {}
    for name, *_ in JOBS + [SERVE]:
        for path in sorted((work / name).rglob("*")):
            if path.is_file():
                digests[path.relative_to(work).as_posix()] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def differing(base: dict, head: dict) -> list:
    """Names whose digest differs, or that only one side has, sorted."""
    return sorted(n for n in base.keys() | head.keys() if base.get(n) != head.get(n))


def disallowed(names, allow) -> list:
    """The names that neither an --allow entry nor its file name matches."""
    return [n for n in names if n not in allow and n.rsplit("/", 1)[-1] not in allow]


def _archive(rev: str, dest: Path):
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's tree and compare every output")
    parser.add_argument("--allow", nargs="+", default=[], metavar="NAME",
                        help="outputs that may differ from REV's")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        tmp = Path(tmp)
        if args.against is not None:
            try:
                _archive(args.against, tmp / "base")
            except subprocess.CalledProcessError as e:
                why = e.stderr.decode(errors="replace").strip().splitlines()
                print(f"cannot archive {args.against}: "
                      f"{why[-1] if why else e}", file=sys.stderr)
                return 1
        head = run_set(ROOT, tmp / "head")
        for name, digest in sorted(head.items()):
            print(name, digest)
        if args.against is None:
            return 0
        base = run_set(tmp / "base", tmp / "base_run")
    names = differing(base, head)
    for name in names:
        state = ("only in the working tree" if name not in base else
                 f"only in {args.against}" if name not in head else "differs")
        print(f"{state}: {name}", file=sys.stderr)
    bad = disallowed(names, args.allow)
    print(f"{len(head)} outputs; {len(names)} differ from {args.against}, "
          f"{len(bad)} of them not allowed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
