"""bumpsim benchmark: one workload, end-to-end or per-layer metrics, checked.

    python3 perfbench/run.py --workload {train,sweep,eval,remote} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds src/bumpsim. Every sample runs
in a fresh worker process (perfbench/worker.py), one at a time, so imports
and construction count as set-up. An untraced run starts SETUP_PROBES
workers that only set up, one that runs a single uninstrumented unit for
peak_rss_mb, then one that measures for about S seconds; setup_s is the
median over all of them. A traced run starts one worker that runs a fixed
amount of the workload once untraced and once traced.

Prints an environment record, one line per metric with its unit and sample
count, and as its last line a JSON object with the keys correct, attempted,
failed and metrics. Exits 2 without a result when it cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from stats import InsufficientSamples, percentile, valid_name

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def git_commit(root: str) -> str | None:
    """HEAD of root/.git, read directly (the checkout may not be a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "bumpsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The 64x64 matmuls gain nothing from BLAS threads on two cores and would
    # contend with the simulating process (and, for remote, with the server).
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    # Identical imports on every sample, and nothing written into src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def kill_group(proc: subprocess.Popen):
    """Kill the worker and, for remote, its server; wait for the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is its result."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv, "--spawn-ns", str(spawn_ns)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise BenchError("worker did not finish within the time limit") from None
    except BaseException:  # interrupted, or SIGTERM turned into SystemExit
        kill_group(proc)
        raise
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(results: list[dict]) -> dict:
    """End-to-end values with their sample counts.

    `results` are the set-up probes, then the plain worker, then the
    measuring worker.
    """
    plain, measured = results[-2], results[-1]
    for role, r in (("plain", plain), ("measuring", measured)):
        if "first_step_ns" not in r:
            raise BenchError(f"the {role} worker completed no unit: " + "; ".join(r["notes"]))
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    mins, raw_mins = measured["min_intervals_ns"], measured["raw_min_intervals_ns"]
    alls, raw_alls = measured["all_intervals_ns"], measured["raw_all_intervals_ns"]
    try:
        p50, raw_p50 = percentile(mins, 50), percentile(raw_mins, 50)
        p99, raw_p99 = percentile(alls, 99), percentile(raw_alls, 99)
    except InsufficientSamples as e:
        raise BenchError(str(e)) from None
    steps, reps = measured["steps"], measured["reps"]
    least = f"per step position, least of {reps} repetitions; unscaled"
    return {
        "setup_s": (statistics.median(setups), len(setups), "processes"),
        "steps_per_s": (steps / measured["timed_s"], steps,
                        f"steps {least} {steps / measured['raw_timed_s']:.6g}"),
        "step_p50_us": (p50 / 1e3, len(mins), f"intervals {least} {raw_p50 / 1e3:.6g}"),
        "step_p99_us": (p99 / 1e3, len(alls),
                        f"intervals of all {reps} repetitions; unscaled {raw_p99 / 1e3:.6g}"),
        "peak_rss_mb": (plain["peak_rss_mb"], 1, "process running one plain unit"),
    }


def check_digests(store_path: str, key: str, digests) -> tuple[int, int]:
    """Compare train_metrics.csv digests with earlier runs of the same inputs.

    The store lives in the checkout's scratch directory, keyed by source
    digest and seed, so every repetition and every later run of one session
    with the same seed must reproduce the first digest. Returns (attempted,
    failed).
    """
    try:
        with open(store_path) as f:
            store = json.load(f)
    except (OSError, ValueError):
        store = {}
    attempted = failed = 0
    for digest in digests:
        attempted += 1
        failed += store.setdefault(key, digest) != digest
    with open(store_path, "w") as f:
        json.dump(store, f, indent=0)
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bumpsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Unwind through spawn() on SIGTERM so the running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bumpsim", "__init__.py")):
        print(f"run.py: no src/bumpsim under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bad = [m["name"] for m in declared if not valid_name(m["name"])]
    if bad:
        print(f"run.py: invalid metric names in BENCHMARK.json: {bad}", file=sys.stderr)
        return 2

    env = worker_env(src)
    scratch = os.path.join(root, ".perfbench_work")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    deadline = started + TIME_LIMIT_S
    base = ["--root", root, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        modes = [["--trace"]]
    else:
        modes = [["--probe"]] * SETUP_PROBES + [["--plain"], ["--seconds", str(args.seconds)]]
    results = []
    try:
        for k, mode in enumerate(modes):
            out = os.path.join(work, str(k))
            os.makedirs(out)
            results.append(spawn(base + ["--out", out] + mode, env, deadline))
        if args.trace:
            if "layers" not in results[0]:
                raise BenchError("traced run failed: " + "; ".join(results[0]["notes"]))
            values = {k: (v, 1, "traced run") for k, v in results[0]["layers"].items()}
        else:
            values = end_to_end(results)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digests = [d for r in results for d in r["digests"]]
    if digests:
        key = f"{source_digest(src)}/{args.seed}"
        a, f = check_digests(os.path.join(scratch, "train_digests.json"), key, digests)
        attempted += a
        failed += f
        if f:
            results[-1]["notes"].append(
                f"{f} train_metrics.csv digests differ from earlier runs with this seed")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(root), "source_sha256": source_digest(src),
        "python": platform.python_version(), "numpy": results[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: env[k] for k in BLAS_THREAD_VARS},
        "workers": len(results),
    }
    print("env " + json.dumps(record))
    for r in results:
        for note in r["notes"]:
            print(f"failed: {note}")
    metrics = {}
    for m in declared:
        value, n, what = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:>26} {value:>14.6g} {m['unit']:<8} n={n} {what}")
    print(f"{'failed_frac':>26} {failed / max(attempted, 1):>14.6g} {'':<8} "
          f"n={attempted} operations")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
