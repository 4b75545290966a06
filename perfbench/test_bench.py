"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import types
from pathlib import Path

import pytest

import layers
from reference import HR_TOL_SIGMAS, ReplicationRef
from spans import Span, Tracer, covered_length, self_times
from summary import count_operations, tail


class TestTail:
    def test_hundred_samples_give_p90(self):
        xs = [float(i) for i in range(100, 0, -1)]
        value, pct, beyond = tail(xs)
        assert (value, pct, beyond) == (90.0, 90.0, 10)
        assert sum(x > value for x in xs) == 10

    def test_rule_and_median_floor_meet_at_21(self):
        xs = [float(i) for i in range(1, 22)]
        assert tail(xs) == (11.0, 100.0 * 11 / 21, 10)
        assert tail(xs[:20]) == (10.0, 50.0, 10)

    @pytest.mark.parametrize("n, rank", [(1, 1), (2, 1), (5, 3), (8, 4), (11, 6)])
    def test_few_samples_give_the_lower_median(self, n, rank):
        xs = [float(i) for i in range(n, 0, -1)]
        assert tail(xs) == (float(rank), 100.0 * rank / n, n - rank)

    def test_empty(self):
        with pytest.raises(ValueError):
            tail([])


class TestSelfTime:
    def test_nested_spans(self):
        spans = [Span("a", 0.0, 10.0, -1, 0),
                 Span("b", 1.0, 4.0, 0, 0),
                 Span("c", 2.0, 3.0, 1, 0),
                 Span("d", 5.0, 6.5, 0, 0)]
        assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])

    def test_overlapping_children_are_not_counted_twice(self):
        assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0

    def test_tracer_records_parents_and_restores(self):
        class Owner:
            @classmethod
            def inner(cls, x):
                return 2 * x

        ns = types.SimpleNamespace(outer=lambda x: Owner.inner(x) + 1)
        original = Owner.__dict__["inner"]
        tracer = Tracer()
        with tracer.patched([(Owner, "inner", "inner", lambda a, r: r),
                             (ns, "outer", "outer", None)]):
            tracer.rep = 7
            assert ns.outer(3) == 7
        assert Owner.__dict__["inner"] is original
        assert [(s.name, s.parent, s.rep, s.data) for s in tracer.spans] == [
            ("outer", -1, 7, None), ("inner", 0, 7, 6)]
        outer, inner = tracer.spans
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert self_times(tracer.spans)[0] == pytest.approx(
            outer.duration - inner.duration)


def _result(intervals, m=2, amse=0.05, flags="ok", rep=3):
    return {"rep": rep, "m": m, "amse": amse, "flags": flags, "intervals": intervals}


def _ref(intervals, m=2, amse=0.05, flags="ok"):
    return ReplicationRef(m, amse, flags, intervals)


ROWS = [(0, 0.6, "t", 0.5, math.inf, "ok"), (0, 0.6, "hr", 0.4, math.inf, "fallback"),
        (4, 0.2, "t", 0.1, math.inf, "ok"), (4, 0.2, "hr", 0.2, math.inf, "ok")]
REF = {(1, "t"): (0.5, math.inf, "ok", math.nan),
       (1, "hr"): (0.4, math.inf, "fallback", 0.1),
       (5, "t"): (0.1, math.inf, "ok", math.nan),
       (5, "hr"): (0.2, math.inf, "ok", 0.1)}


class TestFailFrac:
    def test_matching_replication(self):
        assert count_operations(_result(ROWS), _ref(REF)) == (4, 0, [])

    def test_raising_replication_is_one_failed_operation(self):
        attempted, failed, problems = count_operations(ValueError("boom"), _ref(REF))
        assert (attempted, failed) == (1, 1)
        assert "ValueError" in problems[0]

    def test_failed_flag_counts_without_a_reference(self):
        rows = ROWS[:2] + [(4, 0.2, "t", math.nan, math.inf, "failed:SingularGramError")]
        attempted, failed, _ = count_operations(_result(rows), None)
        assert (attempted, failed) == (3, 1)

    def test_bound_mismatch_counts_one_operation(self):
        rows = list(ROWS)
        rows[2] = (4, 0.2, "t", 0.1 + 1e-6, math.inf, "ok")
        assert count_operations(_result(rows), _ref(REF))[:2] == (4, 1)

    def test_hr_tolerance_is_the_bisection_width(self):
        inside = list(ROWS)
        inside[3] = (4, 0.2, "hr", 0.2 + 0.9 * HR_TOL_SIGMAS * 0.1, math.inf, "ok")
        outside = list(ROWS)
        outside[3] = (4, 0.2, "hr", 0.2 + 1.5 * HR_TOL_SIGMAS * 0.1, math.inf, "ok")
        assert count_operations(_result(inside), _ref(REF))[:2] == (4, 0)
        assert count_operations(_result(outside), _ref(REF))[:2] == (4, 1)

    def test_summary_mismatch_fails_every_operation(self):
        assert count_operations(_result(ROWS, m=3), _ref(REF))[:2] == (4, 4)
        assert count_operations(_result(ROWS[:2]), _ref(REF))[:2] == (2, 2)

    def test_estimation_only_replication_is_one_operation(self):
        assert count_operations(_result([], amse=0.04), _ref({}, amse=0.04))[:2] == (1, 0)
        assert count_operations(_result([], amse=0.04), _ref({}, amse=0.05))[:2] == (1, 1)

    def test_flags_are_outputs_not_failures(self):
        rows = [(0, 0.6, "hr", 0.4, math.inf, "nonconverged")]
        assert count_operations(_result(rows), None)[:2] == (1, 0)


def test_manifest_matches_the_layer_table():
    manifest = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        row[:3] for row in layers.LAYER_METRICS]


def test_every_target_exists_and_is_restored():
    import workloads

    workloads.prepare_process()
    targets = layers.targets()
    before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
              for owner, attr, *_ in targets]
    with Tracer().patched(targets):
        pass
    after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
             for owner, attr, *_ in targets]
    assert all(a is b for a, b in zip(before, after))
