"""One benchmark sample: set up a workload in this fresh process, run, check.

run.py starts this file once per sample, so imports, `config.resolve` and
construction are paid here and land in `setup_s`. Every loop is closed: the
next call into the env layer waits for the previous observation. The only
inputs bumpsim receives are the configs, tracks and action schedules made
below from `--seed`.

A unit is one repetition of the workload's work; every repetition in a
process runs identical inputs. Four modes. `--probe`: set up, stamp the
first control step and stop. `--plain`: set up, stamp the first control
step, run one unit with nothing else patched in, check it, and report the
peak RSS of the simulating process, which then holds none of the
benchmark's buffers. `--seconds S`: repeat the unit for about S seconds (at
least `min_reps` times), stamping every call into the env layer, then check
the outputs. `--trace`: run the unit once untraced and once with spans
installed, and report per-layer metrics.

Prints one JSON line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace

from spans import Patches, StepClock, Tracer, WireCounter, clock, install
from stats import compare_records, nondecreasing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REL_TOL = 1e-9  # reference values are bit-exact on the recording commit
# Time of calibration_kernel at full speed on the reference machine (a
# 2-vCPU Xeon VM, 2.1 GHz nominal, CPython 3.11): times are reported at
# the speed where the kernel takes this long.
REFERENCE_CALIBRATION_NS = 100_000
PROTOCOL_METRICS = ("protocol.requests", "protocol.errors", "protocol.request_bytes",
                    "protocol.response_bytes", "protocol.rtt_us", "protocol.self_us")


class Checks:
    """Operations attempted and failed; a failure keeps a short note."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def _file_bytes(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def vm_hwm_kib(pid="self") -> int:
    """Peak RSS (VmHWM) of a process's own memory since its last exec.

    Unlike ru_maxrss, it does not inherit the high-water mark of the process
    that was replaced by exec (for the server, the forked client worker).
    """
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name)) as f:
        return json.load(f)


class Workload:
    """One workload: a config document, set-up, a repeatable unit, checks."""

    doc: dict = {}
    min_reps = 3

    def __init__(self, seed: int, out_dir: str, checks: Checks):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.checks = checks
        self.csv_bytes = 0
        self.checkpoint_bytes = 0
        self.digests: list[str] = []  # train_metrics.csv sha256 per unit (train)

    def setup(self, resolved: dict):
        raise NotImplementedError

    def step_owner(self):
        """Class whose `step` is the env layer the caller waits on."""
        from bumpsim.env import BumpEnv
        return BumpEnv

    def unit(self, i: int):
        """One repetition; i only names its outputs. Timed from the first
        step until the outputs are written."""
        raise NotImplementedError

    def check(self, i: int):
        """Untimed checks of repetition i's outputs."""

    def finish(self):
        """Untimed checks after the last repetition."""

    def close(self):
        """Release processes and connections; return the simulating
        process's peak RSS in KiB."""
        return vm_hwm_kib()

    def flops_per_update(self) -> int:
        return 0

    def protocol_metrics(self, tracer: Tracer, wire: WireCounter) -> dict:
        return dict.fromkeys(PROTOCOL_METRICS, 0)


def _env_kwargs(resolved: dict) -> dict:
    from bumpsim import config
    return dict(params=config.vehicle_params(resolved),
                camera=config.camera_spec(resolved),
                reward_spec=config.reward_spec(resolved))


class Train(Workload):
    """Criterion-9 regime: 5 tall bumps per random track, 64x64 nets, batch 64.

    A unit is one `harness.train` call of EPISODES episodes from the run's
    training seed, writing its CSV and checkpoint. The bumps stay in the
    first 9 m as in criterion 9, but the track is 41 m long: at most
    u_max = 2 m/s for 2400 steps of 1/120 s covers 40 m, so every episode runs
    all 2400 steps. The work per unit, including the 1000 warmup steps
    without updates, is then the same for every seed.
    """

    EPISODES = 2
    min_reps = 5
    doc = {
        "terrain": {"n_bumps": 5, "bump_height": 0.016, "sigma_range": [0.03, 0.04],
                    "track_length": 41.0},
        "episode": {"max_steps": 2400},
        "agent": {"reward_scale": 0.002},
    }

    def setup(self, resolved):
        from bumpsim import config
        from bumpsim.harness import TrainConfig
        self.config = TrainConfig(
            episodes=self.EPISODES, seed=self.rng.randrange(2**31),
            episode=config.episode_config(resolved),
            agent=config.agent_config(resolved),
            checkpoint_interval=resolved["train"]["checkpoint_interval"],
            **_env_kwargs(resolved),
        )

    def _dir(self, i):
        return os.path.join(self.out_dir, f"train{i}")

    def unit(self, i):
        from bumpsim.harness import train
        train(replace(self.config, out_dir=self._dir(i)))

    def check(self, i):
        path = os.path.join(self._dir(i), "train_metrics.csv")
        with open(path, "rb") as f:
            data = f.read()
        self.digests.append(hashlib.sha256(data).hexdigest())
        rows = list(csv.reader(data.decode().splitlines()))[1:]
        self.checks.record(len(rows) == self.EPISODES,
                           f"train_metrics.csv has {len(rows)} rows")
        for row in rows:
            self.checks.record(all(math.isfinite(float(v)) for v in row),
                               f"non-finite episode row {row}")
        self.csv_bytes = len(data)
        self.checkpoint_bytes = _file_bytes(os.path.join(self._dir(i), "checkpoint.json"))

    def flops_per_update(self):
        # Matmul flops of one DdpgAgent.update: target actor and critic
        # forwards, critic forward+backward on the batch, then actor forward,
        # critic forward+backward and actor backward. A dense layer costs
        # 2*n*i*o forward and 4*n*i*o backward (weights and input gradients).
        a = self.config.agent
        n = a.batch_size

        def fwd(sizes):
            return sum(2 * n * i * o for i, o in zip(sizes[:-1], sizes[1:]))

        actor = fwd((3, *a.hidden_sizes, 1))
        critic = fwd((4, *a.hidden_sizes, 1))
        return 4 * actor + 7 * critic


class Sweep(Workload):
    """The paper's constant-velocity sweep over its single-bump track."""

    VELOCITIES = [round(0.1 * k, 1) for k in range(1, 11)]
    MAX_STEPS = 7200

    def setup(self, resolved):
        from bumpsim import config
        from bumpsim.harness import single_bump_track
        self.kwargs = dict(track=config.fixed_track(resolved) or single_bump_track(),
                           max_steps=self.MAX_STEPS, **_env_kwargs(resolved))
        self.reference = _load_reference("sweep.json")["rows"]

    def _csv(self, i):
        return os.path.join(self.out_dir, f"sweep{i}.csv")

    def unit(self, i):
        from bumpsim.harness import sweep_velocities
        self.rows = sweep_velocities(self.VELOCITIES, out_path=self._csv(i), **self.kwargs)

    def check(self, i):
        self.checks.record(len(self.rows) == len(self.reference),
                           f"sweep returned {len(self.rows)} rows")
        for (v, m), ref in zip(self.rows, self.reference):
            bad = compare_records({"velocity": v, **asdict(m)}, ref, REL_TOL)
            self.checks.record(not bad, f"sweep v={v}: {bad}")
        self.checks.record(nondecreasing([m.peak_abs_acc_dev for _, m in self.rows]),
                           "sweep peak not monotone in velocity")
        self.csv_bytes = _file_bytes(self._csv(i))


class Eval(Workload):
    """Untrained seeded actor over dense random tracks (12 bumps on 20 m)."""

    EPISODES = 2
    doc = {"terrain": {"track_length": 20.0, "n_bumps": 12,
                       "placement_range": [2.0, 19.0]}}

    def setup(self, resolved):
        from bumpsim import config
        from bumpsim.ddpg import DdpgAgent
        from bumpsim.env import BumpEnv
        ref = _load_reference("eval.json")
        self.pool_base = ref["base_seed"]
        self.pool = ref["episodes"]
        self.env = BumpEnv(episode=config.episode_config(resolved), **_env_kwargs(resolved))
        self.agent = DdpgAgent(config.agent_config(resolved), seed=ref["agent_seed"])
        # Each unit evaluates EPISODES consecutive reset seeds from the pool.
        self.start = self.rng.randint(0, len(self.pool) - self.EPISODES)

    def _dir(self, i):
        return os.path.join(self.out_dir, f"eval{i}")

    def unit(self, i):
        from bumpsim.harness import evaluate, write_csv
        out = self._dir(i)
        m, self.per_episode = evaluate(self.agent.act, self.env, episodes=self.EPISODES,
                                       base_seed=self.pool_base + self.start,
                                       out_dir=out, tag="policy")
        self.aggregate = m
        write_csv(os.path.join(out, "eval_metrics.csv"),
                  ["peak_abs_acc_dev", "rmse_acc_dev", "rmse_vel_tracking",
                   "mean_velocity", "episode_return"],
                  [[m.peak_abs_acc_dev, m.rmse_acc_dev, m.rmse_vel_tracking,
                    m.mean_velocity, m.episode_return]])

    def check(self, i):
        start = self.start
        refs = self.pool[start:start + self.EPISODES]
        for k, (m, ref) in enumerate(zip(self.per_episode, refs)):
            bad = compare_records(asdict(m), ref, REL_TOL)
            self.checks.record(not bad, f"eval episode {start + k}: {bad}")
        want = {key: sum(r[key] for r in refs) / len(refs) for key in refs[0]}
        want["peak_abs_acc_dev"] = max(r["peak_abs_acc_dev"] for r in refs)
        bad = compare_records(asdict(self.aggregate), want, REL_TOL)
        self.checks.record(not bad, f"eval aggregate from {start}: {bad}")
        out = self._dir(i)
        self.csv_bytes = sum(_file_bytes(os.path.join(out, n)) for n in os.listdir(out))


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Remote(Workload):
    """`bumpsim serve` in its own process, one RemoteEnv client in this one.

    A unit is one session: connect, `hello`, then REP_STEPS steps of the
    seeded action schedule from its start, resetting on `done`.
    """

    REP_STEPS = 4000
    CONNECT_TIMEOUT_S = 30.0

    def setup(self, resolved):
        from bumpsim import config
        from bumpsim.env import BumpEnv
        self.local_env = lambda: BumpEnv(episode=config.episode_config(resolved),
                                         **_env_kwargs(resolved))
        self.actions = [self.rng.uniform(0.0, 2.0) for _ in range(self.REP_STEPS)]
        self.reset_seeds = [self.rng.randrange(2**31) for _ in range(self.REP_STEPS)]
        cfg_path = os.path.join(self.out_dir, "remote_config.json")
        with open(cfg_path, "w") as f:
            json.dump(self.doc, f)
        self.client = None
        self.sessions: list[list] = []
        self.compared = 0
        port = _free_port()
        self.server_log = open(os.path.join(self.out_dir, "server.log"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "bumpsim.cli", "serve", "--config", cfg_path,
             "--addr", f"127.0.0.1:{port}"],
            stdout=self.server_log, stderr=subprocess.STDOUT,
        )
        self.address = ("127.0.0.1", port)

    def step_owner(self):
        from bumpsim.protocol import RemoteEnv
        return RemoteEnv

    def _connect(self):
        from bumpsim.protocol import RemoteEnv
        deadline = time.monotonic() + self.CONNECT_TIMEOUT_S
        while True:
            try:
                return RemoteEnv(self.address)
            except ConnectionRefusedError:
                if self.server.poll() is not None or time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def unit(self, i):
        if self.client is not None:
            self.client.close()  # the server serves one session at a time
        self.client = client = self._connect()
        log = []
        self.sessions.append(log)
        resets = iter(self.reset_seeds)

        def reset():
            seed = next(resets)
            obs = client.reset(seed=seed)
            log.append((None, seed, (obs.x_dot, obs.z_ddot_meas, obs.p)))

        reset()
        for a in self.actions:
            obs, r, done, _ = client.step(a)
            log.append((a, None, (obs.x_dot, obs.z_ddot_meas, obs.p, r, done)))
            if done:
                reset()

    def finish(self):
        """Every session sent the same requests, so each response must equal,
        bit for bit, an in-process replay of the latest session."""
        local, _ = self.replay(self.sessions[-1])
        for log in self.sessions[self.compared:]:
            self.checks.record(len(log) == len(local),
                               f"session had {len(log)} responses, replay {len(local)}")
            for (_, _, want), got in zip(log, local):
                self.checks.record(got == want, f"remote response {want} != local {got}")
        self.compared = len(self.sessions)

    def replay(self, log):
        """Run a session's requests on a local BumpEnv: (responses, step ns)."""
        env = self.local_env()
        responses, step_ns = [], []
        for action, seed, _ in log:
            if action is None:
                o = env.reset(seed=seed)
                responses.append((o.x_dot, o.z_ddot_meas, o.p))
            else:
                t0 = clock()
                o, r, done, _ = env.step(action)
                step_ns.append(clock() - t0)
                responses.append((o.x_dot, o.z_ddot_meas, o.p, r, done))
        return responses, step_ns

    def protocol_metrics(self, tracer: Tracer, wire: WireCounter) -> dict:
        """RTTs of the traced session, less a plain local replay of its steps."""
        rtts = tracer.durations("protocol.step")
        _, local = self.replay(self.sessions[-1])
        steps = max(wire.steps, 1)
        return {
            "protocol.requests": wire.requests,
            "protocol.errors": wire.errors,
            "protocol.request_bytes": wire.step_sent / steps,
            "protocol.response_bytes": wire.step_received / steps,
            "protocol.rtt_us": statistics.median(rtts) / 1e3,
            "protocol.self_us": statistics.median(r - e for r, e in zip(rtts, local)) / 1e3,
        }

    def close(self):
        if not hasattr(self, "server"):
            return super().close()
        peak_kib = None
        try:
            if self.client is not None:
                self.client.close()
            peak_kib = vm_hwm_kib(self.server.pid)  # before it exits
        finally:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server_log.close()
        self.checks.record(self.server.returncode == 0,
                           f"server exited with {self.server.returncode}")
        return peak_kib


WORKLOADS = {"train": Train, "sweep": Sweep, "eval": Eval, "remote": Remote}


class SetupReached(Exception):
    """Raised at the first call into the env layer of a set-up probe."""


def wrap_step(patches: Patches, w: Workload, make_wrapper):
    owner = w.step_owner()
    if not patches.wrap(owner, "step", make_wrapper):
        raise RuntimeError(f"{owner.__module__}.{owner.__name__}.step is missing")


def run_probe(w: Workload) -> dict:
    """Set-up only: stamp the first control step, then stop."""
    stamp = []

    def first_step(step):
        def stop(env, action):
            stamp.append(clock())
            raise SetupReached
        return stop

    with Patches() as patches:
        wrap_step(patches, w, first_step)
        try:
            w.unit(0)
        except SetupReached:
            pass
    return {"first_step_ns": stamp[0]}


def run_plain(w: Workload) -> dict:
    """One unit with only its first step stamped, then its checks."""
    stamp = []

    def first_step(step):
        def stamped(env, action):
            if not stamp:
                stamp.append(clock())
            return step(env, action)
        return stamped

    with Patches() as patches:
        wrap_step(patches, w, first_step)
        w.unit(0)
    w.check(0)
    w.finish()
    return {"first_step_ns": stamp[0]}


def calibration_kernel():
    """Fixed scalar float work with exp, as in terrain and RK4: a gauge of how
    fast the machine runs right now. Pure Python, so its time does not depend
    on what the workload left in the caches. About 0.1 ms at full speed on
    the reference machine."""
    s = 0.0
    for i in range(600):
        d = i * 1e-3 - 0.3
        s += 0.008 * math.exp(-d * d * 200.0) + math.sin(d) * 1e-3
    return s


def run_timed(w: Workload, seconds: float) -> dict:
    """Repeat the unit for about `seconds`, at least `w.min_reps` times."""
    steps = StepClock(calibration_kernel)
    budget = seconds * 1e9
    reps = 0
    start = clock()
    with Patches() as patches:
        wrap_step(patches, w, steps.wrapper)
        while True:
            first = steps.count
            w.unit(reps)
            steps.close_rep(first)
            w.check(reps)
            reps += 1
            spent = clock() - start
            # Stop once one more repetition of mean length would overshoot
            # the budget by more than stopping now undershoots it.
            if reps >= w.min_reps and spent + 0.5 * spent / reps >= budget:
                break
    w.finish()
    raw_waits, raw_tail = steps.min_profile()
    waits, tail = steps.min_profile(REFERENCE_CALIBRATION_NS)
    return {
        "reps": reps,
        "steps": len(waits) + 1,
        "timed_s": (sum(waits) + tail) / 1e9,
        "min_intervals_ns": waits,
        "all_intervals_ns": steps.intervals(REFERENCE_CALIBRATION_NS),
        "raw_timed_s": (sum(raw_waits) + raw_tail) / 1e9,
        "raw_min_intervals_ns": raw_waits,
        "raw_all_intervals_ns": steps.intervals(),
        "first_step_ns": steps.stamps[0],
    }


def run_traced(w: Workload) -> dict:
    """The unit once untraced and once traced; per-layer metrics."""
    tracer = Tracer()
    wire = WireCounter(socket)
    walls = []
    with Patches() as patches:
        for traced in (False, True):
            if traced:
                for target in install(tracer, patches) + wire.install(patches):
                    w.checks.record(False, f"patch target {target} is missing; "
                                           "update perfbench/spans.py")
            mark = len(tracer.start)
            t0 = clock()
            w.unit(0)
            walls.append(clock() - t0)
            top_ns = tracer.summary(mark)["<top>"]["total_ns"]
            w.check(0)
            w.finish()
        # Spans of the traced unit, its checks and (remote) its local replay.
        layers = tracer.summary(mark)
    m = layer_metrics(layers, tracer.terrain, w)
    m["harness.self_s"] = (walls[1] - top_ns) / 1e9
    m["trace.overhead"] = walls[1] / walls[0]
    m.update(w.protocol_metrics(tracer, wire))
    return m


def _calls(s, name):
    return s[name]["calls"] if name in s else 0


def _mean_us(s, name, key="total_ns"):
    n = _calls(s, name)
    return s[name][key] / n / 1e3 if n else 0.0


def layer_metrics(s: dict, terrain: dict, w: Workload) -> dict:
    return {
        "terrain.height_calls": terrain["height_calls"],
        "terrain.slope_calls": terrain["slope_calls"],
        "terrain.bump_terms": terrain["bump_terms"],
        "terrain.busy_s": terrain["busy_ns"] / 1e9,
        "vehicle.rk4_calls": _calls(s, "vehicle.rk4"),
        "vehicle.rk4_us": _mean_us(s, "vehicle.rk4"),
        "vehicle.derivatives_calls": _calls(s, "vehicle.derivatives"),
        "sensors.observe_us": _mean_us(s, "sensors.observe"),
        "sensors.preview_us": _mean_us(s, "sensors.preview"),
        "env.step_calls": _calls(s, "env.step"),
        "env.step_us": _mean_us(s, "env.step"),
        "env.step_self_us": _mean_us(s, "env.step", "self_ns"),
        "env.reset_us": _mean_us(s, "env.reset"),
        "ddpg.act_us": _mean_us(s, "ddpg.act"),
        "ddpg.explore_us": _mean_us(s, "ddpg.explore"),
        "ddpg.store_us": _mean_us(s, "ddpg.store"),
        "ddpg.update_calls": _calls(s, "ddpg.update"),
        "ddpg.update_us": _mean_us(s, "ddpg.update"),
        "ddpg.adam_step_us": _mean_us(s, "ddpg.adam_step"),
        "ddpg.soft_update_us": _mean_us(s, "ddpg.soft_update"),
        "ddpg.replay_sample_us": _mean_us(s, "ddpg.replay_sample"),
        "ddpg.update_flops": _calls(s, "ddpg.update") * w.flops_per_update(),
        "ddpg.checkpoint_save_s": s["ddpg.save"]["total_ns"] / 1e9 if "ddpg.save" in s else 0.0,
        "ddpg.checkpoint_bytes": w.checkpoint_bytes,
        "harness.csv_bytes": w.csv_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/bumpsim")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for outputs")
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this process was started")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probe", action="store_true", help="measure set-up only")
    mode.add_argument("--plain", action="store_true",
                      help="one uninstrumented unit: set-up and peak RSS")
    mode.add_argument("--seconds", type=float, help="repeat the unit for about this long")
    mode.add_argument("--trace", action="store_true", help="one unit untraced, one traced")
    args = parser.parse_args(argv)
    mono_minus_perf = time.monotonic_ns() - clock()
    # One core for the whole closed loop (for remote, client and server take
    # turns on it), so the calibration kernel gauges the core doing the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    t0 = clock()
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import bumpsim
    import bumpsim.config
    import bumpsim.protocol
    import numpy
    import_ns = clock() - t0
    if not os.path.abspath(bumpsim.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported bumpsim from {bumpsim.__file__}, not {src}")

    checks = Checks()
    w = WORKLOADS[args.workload](args.seed, args.out, checks)
    t0 = clock()
    resolved = bumpsim.config.resolve(w.doc)
    resolve_ns = clock() - t0
    result = {"numpy": numpy.__version__}
    try:
        w.setup(resolved)
        if args.trace:
            result["layers"] = run_traced(w)
            result["layers"]["import_s"] = import_ns / 1e9
            result["layers"]["config.resolve_s"] = resolve_ns / 1e9
        else:
            if args.probe:
                result.update(run_probe(w))
            elif args.plain:
                result.update(run_plain(w))
            else:
                result.update(run_timed(w, args.seconds))
            result["setup_s"] = (result["first_step_ns"] + mono_minus_perf
                                 - args.spawn_ns) / 1e9
    except Exception as e:  # noqa: BLE001 - reported as a failed operation
        checks.record(False, f"{type(e).__name__}: {e}")
    finally:
        result["peak_rss_mb"] = w.close() / 1024.0
    result.update(digests=w.digests, attempted=checks.attempted, failed=checks.failed,
                  notes=checks.notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
