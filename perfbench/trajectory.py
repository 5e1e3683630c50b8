"""Record one point of the perf trajectory: every workload over several seeds.

    python3 perfbench/trajectory.py --label seed-4d462ba

Run from the root of a checkout. For each workload in BENCHMARK.json it runs
perfbench/run.py once per seed in SEEDS untraced and once traced (first
seed), then
writes perfbench/trajectory/<label>.json with, per end-to-end metric, the
values, median, quartiles and quartile spread (as statistics.quantiles(n=4)
gives them), and the traced run's per-layer table. Runs one benchmark at a
time, alternating workloads so slow drift of the machine spreads over all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return {"env": env, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            runs[w].append(run(w, seed, seconds, 0))
            print(f"{w} seed {seed}: " + json.dumps(runs[w][-1]["metrics"]), flush=True)
    doc = {"label": args.label, "seeds": SEEDS, "run_seconds": seconds,
           "env": runs[names[0]][0]["env"], "workloads": {}}
    for w in names:
        traced = run(w, SEEDS[0], seconds, 1)
        doc["workloads"][w] = {
            "all_correct": all(r["correct"] for r in runs[w]) and traced["correct"],
            "failed": sum(r["failed"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **summarize([r["metrics"][m["name"]]["value"] for r in runs[w]])}
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out_dir = os.path.join(HERE, "trajectory")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.label}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"wrote {path}")
    for w in names:
        for name, s in doc["workloads"][w]["end_to_end"].items():
            print(f"{w:>7} {name:>12} median {s['median']:12.4f} {s['unit']:<4} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
