"""Pure helpers shared by the benchmark: percentiles, self time, names, checks.

Nothing here imports numpy or bumpsim, so the orchestrator and the tests can
use it without building anything.
"""

from __future__ import annotations

import math
import re

# Metric and workload names: a letter or digit, then up to 63 more of letters,
# digits, "_", "." and "-".
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile to report it."""


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def percentile(samples, q: float):
    """Nearest-rank q-th percentile of `samples`.

    Raises InsufficientSamples unless at least MIN_TAIL samples lie above the
    returned rank, so a p99 needs 1000 samples and a p50 needs 20.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it, need {MIN_TAIL}"
        )
    return sorted(samples)[rank - 1]


def self_time(start: int, end: int, children) -> int:
    """Duration of [start, end) not covered by any child interval.

    Children may overlap one another and may stick out of the parent; only
    the union of their parts inside the parent is subtracted.
    """
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def rel_close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * max(abs(actual), abs(expected))


def compare_records(actual: dict, expected: dict, rel: float) -> list[str]:
    """Names of the fields where `actual` is not within `rel` of `expected`.

    A field missing from `actual`, or a non-finite value, is a mismatch.
    """
    bad = []
    for key, want in expected.items():
        got = actual.get(key)
        if not (isinstance(got, (int, float)) and math.isfinite(got)
                and rel_close(got, want, rel)):
            bad.append(f"{key}: got {got!r}, want {want!r}")
    return bad


def nondecreasing(values) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))
