"""Tests of the benchmark's own logic. Only the check of the patch targets
against src/bumpsim needs numpy; it is skipped without it.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

from spans import Patches, StepClock, Tracer, install  # noqa: E402
from stats import (  # noqa: E402
    InsufficientSamples,
    compare_records,
    nondecreasing,
    percentile,
    self_time,
    valid_name,
)
from worker import PROTOCOL_METRICS, Workload, layer_metrics  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert percentile(list(range(1000)), 99) == 989
        with pytest.raises(InsufficientSamples):
            percentile(list(range(999)), 99)

    def test_p50_needs_twenty_samples(self):
        assert percentile(list(range(20)), 50) == 9
        with pytest.raises(InsufficientSamples):
            percentile(list(range(19)), 50)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5, 1, 4, 2, 3] * 10
        assert percentile(samples, 50) == 3
        assert percentile(samples, 20) == 1


class TestSelfTime:
    def test_no_children(self):
        assert self_time(10, 50, []) == 40

    def test_overlapping_children_count_once(self):
        # [10,30) and [20,40) overlap: together they cover 30, not 40.
        assert self_time(0, 100, [(10, 30), (20, 40)]) == 70

    def test_children_clipped_to_parent_and_nested(self):
        children = [(-5, 5), (10, 30), (20, 40), (25, 26), (90, 120), (60, 60)]
        # Covered inside [0, 100): [0,5) + [10,40) + [90,100) = 45.
        assert self_time(0, 100, children) == 55

    def test_child_covering_parent_leaves_nothing(self):
        assert self_time(10, 20, [(0, 30), (12, 14)]) == 0

    def test_tracer_self_time_subtracts_direct_children_only(self):
        tracer = Tracer()
        ticks = iter(range(0, 1000, 10))

        import spans
        real_clock = spans.clock
        spans.clock = lambda: next(ticks)
        try:
            leaf = tracer.span("leaf")(lambda: None)
            mid = tracer.span("mid")(lambda: (leaf(), leaf()))
            top = tracer.span("top")(lambda: mid())
            top()
        finally:
            spans.clock = real_clock
        s = tracer.summary()
        assert s["leaf"]["calls"] == 2
        assert s["top"]["total_ns"] == s["mid"]["total_ns"] + s["top"]["self_ns"]
        assert s["mid"]["self_ns"] == s["mid"]["total_ns"] - s["leaf"]["total_ns"]
        assert s["<top>"]["total_ns"] == s["top"]["total_ns"]


class TestMinProfile:
    @staticmethod
    def clock_with(reps, calibration=None, every=2):
        """A StepClock holding the given stamps: one list per repetition."""
        sc = StepClock(calibrate=None, every=every, capacity=64)
        for stamps in reps:
            first = sc.count
            for t in stamps[:-1]:
                sc.stamps[sc.count] = t
                sc.count += 1
            sc.reps.append((first, sc.count, stamps[-1]))  # last: outputs written
        sc.calibration_ns.extend(calibration or [])
        return sc

    def test_keeps_least_wait_per_position(self):
        # Rep 1 is slow at its second step, rep 2 at its first.
        sc = self.clock_with([[0, 10, 30, 40, 45], [100, 125, 135, 145, 147]])
        waits, tail = sc.min_profile()
        assert waits == [10, 10, 10]
        assert tail == 2

    def test_rejects_repetitions_of_different_length(self):
        sc = self.clock_with([[0, 10, 20], [100, 110, 120, 130]])
        with pytest.raises(ValueError):
            sc.min_profile()

    def test_scales_each_interval_by_the_calibration_around_it(self):
        # Calibration every 2 steps: 100 ns at reference speed, 200 ns when
        # the machine ran at half speed around stamps 2-3.
        sc = self.clock_with([[0, 10, 30, 40, 45]], calibration=[100, 200, 100])
        waits, tail = sc.min_profile(reference_ns=100)
        # Interval from stamp 0 uses calibrations 0 and 1, from stamp 2 uses 1 and 2.
        assert waits == pytest.approx([10 * 2 / 3, 20 * 2 / 3, 10 * 2 / 3])
        assert tail == pytest.approx(5 * 2 / 3)

    def test_intervals_keep_every_repetitions_stalls(self):
        # The stalls at different positions vanish from the minimum profile
        # but stay in the intervals a tail percentile is taken over.
        sc = self.clock_with([[0, 10, 30, 40, 45], [100, 125, 135, 145, 147]])
        assert sc.intervals() == [10, 20, 10, 25, 10, 10]

    def test_intervals_are_scaled_like_the_profile(self):
        sc = self.clock_with([[0, 10, 30, 40, 45]], calibration=[100, 200, 100])
        assert sc.intervals(reference_ns=100) == pytest.approx(
            [10 * 2 / 3, 20 * 2 / 3, 10 * 2 / 3])


class TestPatchTargets:
    def test_missing_target_is_reported_not_skipped(self, monkeypatch):
        import types
        module = types.ModuleType("fake_bumpsim_module")
        module.present = lambda: 1
        monkeypatch.setitem(sys.modules, "fake_bumpsim_module", module)
        def tagged(fn):
            return lambda: ("wrapped", fn())

        with Patches() as patches:
            missing = patches.wrap_all(
                [("fake_bumpsim_module", "present", tagged), ("fake_bumpsim_module", "gone", tagged),
                 ("fake_bumpsim_module:Gone", "step", tagged)])
            assert module.present() == ("wrapped", 1)
        assert missing == ["fake_bumpsim_module.gone", "fake_bumpsim_module:Gone.step"]
        assert module.present() == 1

    def test_every_declared_target_exists_in_bumpsim(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.syspath_prepend(str(PERFBENCH.parent / "src"))
        with Patches() as patches:
            assert install(Tracer(), patches) == []


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "env.step_us", "a", "0x", "a-b.c_d",
                                      "x" * 64])
    def test_valid(self, name):
        assert valid_name(name)

    @pytest.mark.parametrize("name", ["", ".x", "_x", "-x", "a b", "a/b", "a:b",
                                      "x" * 65, "émission"])
    def test_invalid(self, name):
        assert not valid_name(name)

    def test_declared_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
                 for m in BENCHMARK[key]]
        assert all(valid_name(n) for n in names)
        assert len(names) == len(set(names))

    def test_traced_run_reports_every_declared_layer_metric(self):
        reported = set(layer_metrics({}, Tracer().terrain, Workload(0, ".", None)))
        reported |= {"harness.self_s", "trace.overhead", "import_s",
                     "config.resolve_s", *PROTOCOL_METRICS}
        assert reported == {m["name"] for m in BENCHMARK["per_layer"]}


class TestReferenceChecker:
    ROWS = json.loads((PERFBENCH / "reference" / "sweep.json").read_text())["rows"]

    def test_reference_matches_itself(self):
        assert all(compare_records(dict(r), r, 1e-9) == [] for r in self.ROWS)

    def test_fails_on_perturbed_reference_value(self):
        row = self.ROWS[3]
        perturbed = dict(row, peak_abs_acc_dev=row["peak_abs_acc_dev"] * (1 + 1e-8))
        bad = compare_records(perturbed, row, 1e-9)
        assert len(bad) == 1 and bad[0].startswith("peak_abs_acc_dev")

    def test_tolerates_last_digit_noise(self):
        row = self.ROWS[3]
        nudged = {k: v * (1 + 1e-12) for k, v in row.items()}
        assert compare_records(nudged, row, 1e-9) == []

    def test_missing_or_non_finite_fields_fail(self):
        row = self.ROWS[0]
        assert compare_records({}, row, 1e-9) != []
        assert compare_records(dict(row, rmse_acc_dev=math.nan), row, 1e-9) != []

    def test_recorded_sweep_peak_is_monotone(self):
        assert nondecreasing([r["peak_abs_acc_dev"] for r in self.ROWS])
        assert not nondecreasing([1.0, 2.0, 1.5])
