"""Instrumentation installed from outside bumpsim: step clock, spans, counters.

Every wrapper replaces a name where bumpsim looks it up (a module global such
as `bumpsim.env.step_rk4`, or a class attribute such as `BumpEnv.step`) and
is removed again on exit. A name that bumpsim no longer has is returned as
missing, and the worker counts it as a failed operation: a renamed or fused
function must not read as a layer whose cost fell to zero.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

from stats import self_time

clock = time.perf_counter_ns


class Patches:
    """Set attributes and restore the originals on close()."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name: str, make_wrapper) -> bool:
        original = owner.__dict__.get(name) if isinstance(owner, type) \
            else getattr(owner, name, None)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            return False
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))
        return True

    def wrap_all(self, targets) -> list[str]:
        """Wrap every (path, attribute, make_wrapper) target; return the ones
        that could not be wrapped, as 'path.attribute'."""
        missing = []
        for path, attr, make_wrapper in targets:
            owner = resolve(path)
            if owner is None or not self.wrap(owner, attr, make_wrapper):
                missing.append(f"{path}.{attr}")
        return missing

    def set(self, owner, name: str, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def close(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def resolve(path: str):
    """'bumpsim.env' or 'bumpsim.env:BumpEnv' -> module or class (None if gone)."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr, None) if attr else module


class StepClock:
    """Timestamps of successive calls into the env layer, in a fixed buffer.

    The buffer is allocated and touched up front so the timed loop neither
    allocates nor grows it; steps past its end are counted but not stamped.
    Every `every` steps the wrapper also times one call of `calibrate`, a
    fixed piece of work that measures how fast the machine runs right then;
    that time is taken out of the stamps.
    """

    def __init__(self, calibrate, every: int = 64, capacity: int = 1 << 20):
        self.stamps = array("q", bytes(8 * capacity))
        self.count = 0
        self.reps = []  # (first index, end index, outputs-written time) per rep
        self.calibrate = calibrate
        self.every = every
        self.calibration_ns = array("q")
        self.offset = 0  # calibration time so far, excluded from the stamps

    def wrapper(self, step):
        stamps, cap, every = self.stamps, len(self.stamps), self.every
        calibrate, samples = self.calibrate, self.calibration_ns

        def timed_step(env, action):
            i = self.count
            if i % every == 0:
                t0 = clock()
                calibrate()
                spent = clock() - t0
                samples.append(spent)
                self.offset += spent
            if i < cap:
                stamps[i] = clock() - self.offset
            self.count = i + 1
            return step(env, action)

        return timed_step

    def close_rep(self, first: int):
        self.reps.append((first, self.count, clock() - self.offset))

    def _checked_reps(self):
        s, reps = self.stamps, self.reps
        n = reps[0][1] - reps[0][0]
        if n < 1 or any(hi - lo != n for lo, hi, _ in reps) or reps[-1][1] > len(s):
            raise ValueError(f"repetitions made {[hi - lo for lo, hi, _ in reps]} steps")
        return n

    def _scale(self, reference_ns):
        """scale(i): factor for the interval that starts at stamp i, from
        reference_ns over the mean of the two calibration times around it."""
        cal, every = self.calibration_ns, self.every
        if reference_ns is None:
            return lambda i: 1.0
        return lambda i: 2.0 * reference_ns / (cal[i // every]
                                               + cal[min(i // every + 1, len(cal) - 1)])

    def min_profile(self, reference_ns: float | None = None) -> tuple[list[float], float]:
        """Per step position, the least wait over repetitions of identical work.

        Returns (waits, tail): waits[j] is the least interval between calls
        j and j+1 of a repetition, tail the least time from its last call
        until its outputs were written. Contention from outside the process
        only ever adds time, so the minimum over repetitions estimates what
        each step costs. A spike survives only if it comes back at the same
        position in every repetition (a reset, a CSV write); random stalls
        do not, so tails are taken from `intervals` instead.

        With `reference_ns`, each interval is first scaled to the reference
        speed: by reference_ns over the mean of the two calibration times
        measured around it.
        """
        n = self._checked_reps()
        s, scale = self.stamps, self._scale(reference_ns)
        waits = [min((s[lo + j + 1] - s[lo + j]) * scale(lo + j) for lo, _, _ in self.reps)
                 for j in range(n - 1)]
        tail = min((end - s[hi - 1]) * scale(hi - 1) for _, hi, end in self.reps)
        return waits, tail

    def intervals(self, reference_ns: float | None = None) -> list[float]:
        """Every interval between successive calls within a repetition, of all
        repetitions, each scaled as in `min_profile` but not minimised: the
        waits a caller saw, random stalls included."""
        self._checked_reps()
        s, scale = self.stamps, self._scale(reference_ns)
        return [(s[i + 1] - s[i]) * scale(i) for lo, hi, _ in self.reps
                for i in range(lo, hi - 1)]


class Tracer:
    """Span recorder: name, start, end and parent span of every wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        # Hot terrain calls: counts and busy time only, no spans.
        self.terrain = {"height_calls": 0, "slope_calls": 0, "bump_terms": 0,
                        "busy_ns": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Decorator factory: record one span per call of the wrapped function."""
        nid = self._id(name)
        stack = self._stack

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.start.append(0)
                self.end.append(0)
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end[idx] = clock()
                    self.start[idx] = t0
                    stack.pop()
            return traced

        return make

    def counted(self, kind: str):
        counts = self.terrain
        key = kind + "_calls"

        def make(fn):
            def count(terrain, x):
                t0 = clock()
                out = fn(terrain, x)
                counts["busy_ns"] += clock() - t0
                counts[key] += 1
                counts["bump_terms"] += len(getattr(terrain, "bumps", ()))
                return out
            return count

        return make

    def summary(self, first: int = 0) -> dict:
        """Per span name: calls, total ns and self ns, over spans[first:]."""
        children = defaultdict(list)
        for i in range(first, len(self.start)):
            p = self.parent[i]
            if p >= first:
                children[p].append((self.start[i], self.end[i]))
        out = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        top_ns = 0
        for i in range(first, len(self.start)):
            s, e = self.start[i], self.end[i]
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["total_ns"] += e - s
            agg["self_ns"] += self_time(s, e, children.get(i, ()))
            if self.parent[i] < first:
                top_ns += e - s
        out["<top>"] = {"calls": 0, "total_ns": top_ns, "self_ns": top_ns}
        return out

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name[i] == nid]


# (where the name is looked up, attribute, span name)
SPANS = [
    ("bumpsim.env:BumpEnv", "step", "env.step"),
    ("bumpsim.env:BumpEnv", "reset", "env.reset"),
    ("bumpsim.env", "step_rk4", "vehicle.rk4"),
    ("bumpsim.env", "derivatives", "vehicle.derivatives"),
    ("bumpsim.vehicle", "derivatives", "vehicle.derivatives"),
    ("bumpsim.env", "observe", "sensors.observe"),
    ("bumpsim.sensors", "preview", "sensors.preview"),
    ("bumpsim.ddpg:DdpgAgent", "act", "ddpg.act"),
    ("bumpsim.ddpg:DdpgAgent", "explore", "ddpg.explore"),
    ("bumpsim.ddpg:DdpgAgent", "store", "ddpg.store"),
    ("bumpsim.ddpg:DdpgAgent", "update", "ddpg.update"),
    ("bumpsim.ddpg:DdpgAgent", "soft_update", "ddpg.soft_update"),
    ("bumpsim.ddpg:DdpgAgent", "save", "ddpg.save"),
    ("bumpsim.ddpg:Adam", "step", "ddpg.adam_step"),
    ("bumpsim.ddpg:ReplayBuffer", "sample", "ddpg.replay_sample"),
    ("bumpsim.protocol:RemoteEnv", "step", "protocol.step"),
    ("bumpsim.protocol:RemoteEnv", "reset", "protocol.reset"),
]
COUNTED = [
    ("bumpsim.terrain:TerrainProfile", "height", "height"),
    ("bumpsim.terrain:TerrainProfile", "slope", "slope"),
]


def install(tracer: Tracer, patches: Patches) -> list[str]:
    """Wrap every SPANS and COUNTED target; return the missing ones."""
    return patches.wrap_all([(path, attr, tracer.span(name)) for path, attr, name in SPANS]
                            + [(path, attr, tracer.counted(kind))
                               for path, attr, kind in COUNTED])


class WireCounter:
    """Counts requests, bytes and errors at the client side of bumpsim.protocol.

    Installed as `bumpsim.protocol.socket`, so connections made while it is
    in place send and read through counting wrappers; `around_step` wraps
    `RemoteEnv.step` to attribute bytes to steps.
    """

    def __init__(self, socket_module):
        self._socket = socket_module
        self.requests = 0
        self.sent = 0
        self.received = 0
        self.errors = 0
        self.steps = 0
        self.step_sent = 0
        self.step_received = 0

    def __getattr__(self, name):
        return getattr(self._socket, name)

    def create_connection(self, *args, **kwargs):
        return _CountingSocket(self._socket.create_connection(*args, **kwargs), self)

    def around_step(self, step):
        def counted(env, action):
            sent, received = self.sent, self.received
            try:
                return step(env, action)
            finally:
                self.steps += 1
                self.step_sent += self.sent - sent
                self.step_received += self.received - received
        return counted

    def counting_errors(self, error_type):
        def make(fn):
            def counted(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except error_type:
                    self.errors += 1
                    raise
            return counted
        return make

    def install(self, patches: Patches) -> list[str]:
        """Install the counters; return the targets that are missing."""
        import bumpsim.protocol as protocol
        patches.set(protocol, "socket", self)
        remote = "bumpsim.protocol:RemoteEnv"
        errors = self.counting_errors(protocol.ProtocolError)
        return patches.wrap_all([(remote, "step", self.around_step),
                                 (remote, "step", errors), (remote, "reset", errors)])


class _CountingSocket:
    def __init__(self, sock, counter: WireCounter):
        self._sock = sock
        self._counter = counter

    def sendall(self, data):
        self._counter.requests += 1
        self._counter.sent += len(data)
        return self._sock.sendall(data)

    def makefile(self, *args, **kwargs):
        return _CountingReader(self._sock.makefile(*args, **kwargs), self._counter)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingReader:
    def __init__(self, reader, counter: WireCounter):
        self._reader = reader
        self._counter = counter

    def readline(self, *args):
        line = self._reader.readline(*args)
        self._counter.received += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)
