import csv
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from martingale_ci import harness
from martingale_ci.dgp import Dataset, DgpConfig, generate, make_beta
from martingale_ci.hybrid import StatisticEngine
from martingale_ci.inference import StatConfig
from martingale_ci.resampler import generate_w
from martingale_ci.harness import (
    ExperimentConfig,
    GROUP_SIZES,
    MetricsReport,
    RECORD_COLUMNS,
    SIGNAL_GROUPS,
    aggregate,
    completed_reps,
    derive_dataset_seed,
    emit_tables,
    load_records,
    run_experiment,
    run_replication,
)

DATA_DIR = Path(__file__).parent / "data"


def _store(tmp_path, result):
    path = tmp_path / "records.csv"
    harness._append_records(path, harness._records_from_result(result), True)
    return path


def tiny_config(out_dir, workers=1, reps=3):
    return ExperimentConfig(setting="IID", sizes=((60, 30),), reps=reps, B=20,
                            alpha=0.2, kmax=3, q=1,
                            methods=("t", "iv", "ps", "hr"), seed=11,
                            out_dir=out_dir, workers=workers)


def synthetic_records():
    rows = []
    for rep in range(2):
        for j, bt in ((1, 0.6), (2, 0.6), (3, 0.4)):
            for method in ("t", "iv"):
                rows.append({"kind": "interval", "rep": str(rep), "j": str(j),
                             "beta_true": repr(bt), "method": method,
                             "lb": repr(-math.inf), "ub": "inf", "m": "",
                             "amse": "", "flags": "ok"})
        rows.append({"kind": "rep", "rep": str(rep), "j": "", "beta_true": "",
                     "method": "", "lb": "", "ub": "", "m": "3",
                     "amse": "0.05", "flags": "ok"})
    return rows


class TestRunReplication:
    def test_deterministic(self):
        a = run_replication("IID", 60, 30, 5, 0, 20, 0.2, 3, 1,
                            ("t", "iv"), "one")
        b = run_replication("IID", 60, 30, 5, 0, 20, 0.2, 3, 1,
                            ("t", "iv"), "one")
        assert a == b

    def test_strong_signals_selected_iid(self):
        res = run_replication("IID", 200, 30, 5, 0, 20, 0.2, 3, 1, ("t",),
                              "one")
        selected = {j for (j, *_rest) in res["intervals"]}
        assert {0, 1} <= selected

    def test_interval_rows_cover_methods(self):
        res = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1,
                              ("t", "iv", "ps", "hr"), "one")
        methods = {row[2] for row in res["intervals"]}
        assert methods == {"t", "iv", "ps", "hr"}
        assert math.isfinite(res["amse"])

    def test_amse_same_with_and_without_hr(self):
        # hr takes the combined estimate from its resample set; it must be
        # the one the amse of a run without hr uses.
        with_hr = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1,
                                  ("t", "hr"), "one")
        without = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1,
                                  ("t",), "one")
        assert with_hr["amse"] == without["amse"]

    def test_observed_fit_failure_becomes_a_flag(self, ill_conditioned_design,
                                                 tmp_path, monkeypatch):
        # The canonical coefficients need p >= 10; this design has 8.
        X, Y = ill_conditioned_design
        monkeypatch.setattr(harness, "make_beta",
                            lambda p: SimpleNamespace(values=np.zeros(p)))
        monkeypatch.setattr(harness, "generate",
                            lambda cfg, beta: Dataset(X=X, Y=Y))
        res = run_replication("LAI", 40, 8, 0, 0, 20, 0.2, 1, 1, ("t", "hr"),
                              "one")
        assert res["flags"] == "failed:SingularGramError"
        assert res["intervals"] == [] and math.isnan(res["amse"])
        rows = load_records(_store(tmp_path, res))
        assert [(r["kind"], r["m"], r["amse"], r["flags"]) for r in rows] == \
            [("rep", "", "", "failed:SingularGramError")]

    def test_saturated_factor_model_becomes_a_flag(self):
        # kmax = p projects every column away but for rounding, whose gram
        # passes the condition guard: the norm floor flags the replication
        # instead of reporting bounds of +-1e26.
        res = run_replication("IID", 40, 12, 0, 0, 20, 0.2, 12, 1,
                              ("t", "iv", "hr"), "one")
        assert res["flags"] == "failed:SingularGramError"
        assert res["intervals"] == [] and math.isnan(res["amse"])

    def test_observed_fit_runs_once(self, monkeypatch):
        # Every hr bound reuses the replication's observed fit.
        calls = []
        fit = StatisticEngine.fit
        monkeypatch.setattr(StatisticEngine, "fit",
                            lambda self, Y: calls.append(1) or fit(self, Y))
        res = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1, ("iv", "hr"),
                              "one")
        assert len(res["intervals"]) >= 4 and len(calls) == 1

    def test_resampling_failure_becomes_a_flag(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(harness, "generate_w", singular)
        res = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1, ("t", "hr"),
                              "one")
        assert res["flags"] == "failed:LinAlgError"
        assert res["m"] >= 1 and res["intervals"] == []

    def test_any_exception_becomes_a_flag(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(harness, "generate_w", broken)
        res = run_replication("IID", 60, 30, 7, 1, 20, 0.2, 3, 1, ("t", "hr"),
                              "one")
        assert res["flags"] == "failed:ValueError"
        assert res["m"] >= 1 and res["intervals"] == []
        assert math.isnan(res["amse"])
        rows = load_records(_store(tmp_path, res))
        assert [(r["kind"], r["flags"]) for r in rows] == \
            [("rep", "failed:ValueError")]
        report = aggregate(rows, "IID", 60, 30, ("t", "hr"))
        assert (report.reps, report.failed) == (1, 1)

    def test_seed_derivation_differs_by_rep(self):
        assert derive_dataset_seed(3, 0) != derive_dataset_seed(3, 1)

    def test_factor_model_failure_becomes_a_flag(self, monkeypatch):
        from martingale_ci import factor_model

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(factor_model, "eigh", broken)
        for methods in (("t",), ()):
            res = run_replication("LAI", 60, 80, 0, 0, 20, 0.2, 5, 1, methods,
                                  "one")
            assert res["flags"] == "failed:DecompositionError"
            assert math.isnan(res["amse"]) and res["intervals"] == []

    def test_runs_under_a_profiler(self):
        # Per-layer timings are read from cProfile runs; profiling must not
        # change or break a replication.
        import cProfile

        cell = ("LAI", 60, 80, 0, 0, 20, 0.2, 5, 1, ("t", "iv", "ps", "hr"),
                "one")
        plain = run_replication(*cell)
        profiler = cProfile.Profile()
        profiled = profiler.runcall(run_replication, *cell)
        assert profiled["flags"] == "ok"
        assert {row[2] for row in profiled["intervals"]} == {"t", "iv", "ps", "hr"}
        assert repr(profiled) == repr(plain)

    @pytest.mark.parametrize("hook", ["setprofile", "settrace"])
    def test_same_result_under_a_trace_or_profile_hook(self, hook):
        # cProfile, pdb and coverage.py install such hooks, and the
        # interpreter then holds references to every frame's arrays.
        import sys

        cells = [("LAI", 60, 80, 0, 0, 20, 0.2, 5, 1, ("t", "iv", "ps", "hr"), "one"),
                 ("LAI", 60, 80, 0, 0, 20, 0.1, 5, 1, ("hr",), "two")]
        plain = [run_replication(*cell) for cell in cells]
        install, previous = getattr(sys, hook), getattr(sys, "get" + hook[3:])()
        install(lambda *args: None)
        try:
            hooked = [run_replication(*cell) for cell in cells]
        finally:
            install(previous)
        assert [res["flags"] for res in plain] == ["ok", "ok"]
        assert hooked == plain


class TestEstimationOnly:
    """A replication with no methods, or only t and ps: no projected fit."""

    def test_builds_no_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a replication without iv or hr built an engine")

        monkeypatch.setattr(harness, "StatisticEngine", refuse)
        for methods in ((), ("t",), ("ps",), ("t", "ps")):
            for rep in range(3):
                res = run_replication("LAI", 60, 80, 0, rep, 20, 0.2, 5, 1,
                                      methods, "one")
                assert res["flags"] == "ok", (methods, rep)
                assert res["m"] >= 1 and math.isfinite(res["amse"])
                assert len(res["intervals"]) == res["m"] * len(methods)

    @pytest.mark.parametrize("setting", ["IID", "LAI", "GARCH"])
    def test_matches_a_run_with_intervals(self, setting):
        for rep in range(3):
            alone = run_replication(setting, 60, 80, 0, rep, 20, 0.2, 5, 1, (),
                                    "one")
            with_t = run_replication(setting, 60, 80, 0, rep, 20, 0.2, 5, 1,
                                     ("t",), "one")
            for key in ("m", "amse", "flags"):
                assert alone[key] == with_t[key], (rep, key)


class TestAggregate:
    def test_all_infinite_lower_bounds_cover(self):
        report = aggregate(synthetic_records(), "IID", 60, 30, ("t", "iv"))
        for m in ("t", "iv"):
            assert report.cr[m][0.6] == 1.0
            assert report.cr[m][0.4] == 1.0
            assert report.overall_cr[m] == 1.0

    def test_single_record_lb_above_beta_misses(self):
        rows = [{"kind": "interval", "rep": "0", "j": "1",
                 "beta_true": "0.6", "method": "t", "lb": "0.7", "ub": "inf",
                 "m": "", "amse": "", "flags": "ok"},
                {"kind": "rep", "rep": "0", "j": "", "beta_true": "",
                 "method": "", "lb": "", "ub": "", "m": "1", "amse": "0.1",
                 "flags": "ok"}]
        report = aggregate(rows, "IID", 60, 30, ("t",))
        assert report.cr["t"][0.6] == 0.0

    def test_upper_bound_below_beta_misses(self):
        # Two-sided rows cover only when beta lies between the bounds.
        rows = [{"kind": "interval", "rep": "0", "j": str(j), "beta_true": "0.1",
                 "method": "hr", "lb": "0.0", "ub": ub, "m": "", "amse": "",
                 "flags": "ok"} for j, ub in ((7, "0.05"), (8, "0.2"))]
        rows.append({"kind": "rep", "rep": "0", "j": "", "beta_true": "",
                     "method": "", "lb": "", "ub": "", "m": "2", "amse": "0.1",
                     "flags": "ok"})
        report = aggregate(rows, "IID", 60, 30, ("hr",))
        assert report.cr["hr"][0.1] == 0.5
        assert report.overall_cr["hr"] == 0.5
        assert aggregate(rows[:1] + rows[2:], "IID", 60, 30, ("hr",)).cr["hr"][0.1] == 0.0

    def test_overall_is_selection_weighted_combination(self):
        res = [run_replication("IID", 120, 30, 9, r, 20, 0.2, 3, 1,
                               ("t", "iv"), "one") for r in range(4)]
        rows = []
        for r in res:
            for (j, bt, method, lb, ub, flags) in r["intervals"]:
                rows.append({"kind": "interval", "rep": str(r["rep"]),
                             "j": str(j + 1), "beta_true": repr(bt),
                             "method": method, "lb": repr(lb), "ub": repr(ub),
                             "m": "", "amse": "", "flags": flags})
            rows.append({"kind": "rep", "rep": str(r["rep"]), "j": "",
                         "beta_true": "", "method": "", "lb": "", "ub": "",
                         "m": str(r["m"]), "amse": repr(r["amse"]),
                         "flags": r["flags"]})
        report = aggregate(rows, "IID", 120, 30, ("t", "iv"))
        for m in ("t", "iv"):
            weights = {g: report.ns[g] * GROUP_SIZES[g] for g in SIGNAL_GROUPS}
            num = sum(report.cr[m][g] * weights[g] for g in SIGNAL_GROUPS
                      if not math.isnan(report.cr[m][g]))
            den = sum(weights[g] for g in SIGNAL_GROUPS
                      if not math.isnan(report.cr[m][g]))
            assert np.isclose(report.overall_cr[m], num / den)

    def test_amse_is_mean_of_rep_values(self):
        report = aggregate(synthetic_records(), "IID", 60, 30, ("t",))
        assert np.isclose(report.amse, 0.05)

    def test_nonfinite_amse_left_out(self):
        # Rows straight from the replication results, as a benchmark
        # aggregates them without a record store: a failed replication
        # carries amse NaN there, not "".
        results = [{"rep": 0, "intervals": [], "m": 3, "amse": 0.2, "flags": "ok"},
                   {"rep": 1, "intervals": [], "m": "", "amse": math.nan,
                    "flags": "failed:ValueError"}]
        rows = [row for r in results for row in harness._records_from_result(r)]
        report = aggregate(rows, "IID", 60, 30, ("t",))
        assert (report.reps, report.failed) == (2, 1)
        assert report.amse == 0.2

    def test_failed_replication_counted(self, tmp_path):
        rows = synthetic_records()[:7]  # replication 0: six intervals, one rep row
        rows.append({"kind": "rep", "rep": "1", "j": "", "beta_true": "",
                     "method": "", "lb": "", "ub": "", "m": "", "amse": "",
                     "flags": "failed:SingularGramError"})
        report = aggregate(rows, "IID", 60, 30, ("t", "iv"))
        assert (report.reps, report.failed) == (2, 1)
        assert np.isclose(report.amse, 0.05)
        emit_tables([report], tmp_path)
        assert (tmp_path / "amse_IID.csv").read_text().splitlines() == [
            "setting,n,p,reps,failed,amse", "IID,60,30,2,1,0.0500"]
        assert (tmp_path / "amse_IID.md").read_text().splitlines() == [
            "| setting | n | p | reps | failed | amse |", "|---|---|---|---|---|---|",
            "| IID | 60 | 30 | 2 | 1 | 0.0500 |"]


class TestEmitTables:
    def test_structure(self, tmp_path):
        report = aggregate(synthetic_records(), "IID", 60, 30, ("t", "iv"))
        paths = emit_tables([report], tmp_path)
        names = {p.name for p in paths}
        assert "coverage_IID_n60_p30.csv" in names
        assert "coverage_IID_n60_p30.md" in names
        assert "amse_IID.csv" in names
        rows = list(csv.reader((tmp_path / "coverage_IID_n60_p30.csv").open()))
        assert rows[0] == ["metric", "method", "0.6", "0.4", "0.2", "0.1",
                           "overall"]
        assert rows[1][0] == "NS"
        # One row per (metric, method) pair after the NS row.
        assert len(rows) == 2 + 3 * 2

    def test_markdown_mirrors_csv(self, tmp_path):
        report = aggregate(synthetic_records(), "IID", 60, 30, ("t",))
        emit_tables([report], tmp_path)
        md = (tmp_path / "coverage_IID_n60_p30.md").read_text().splitlines()
        csv_rows = list(csv.reader((tmp_path / "coverage_IID_n60_p30.csv").open()))
        assert len(md) == len(csv_rows) + 1  # separator line
        assert md[0].startswith("| metric | method |")

    def test_empty_report_header_only(self, tmp_path):
        report = MetricsReport(setting="IID", n=10, p=5, reps=0, methods=(),
                               ns={g: 0.0 for g in SIGNAL_GROUPS}, cr={},
                               mlb={}, slb={}, overall_cr={}, amse=math.nan)
        paths = emit_tables([report], tmp_path)
        rows = list(csv.reader((tmp_path / "coverage_IID_n10_p5.csv").open()))
        assert rows[0][0] == "metric"
        assert len(rows) == 2  # header + NS row only

    def test_golden_five_rep_run(self, tmp_path):
        # Frozen output of a seeded 5-rep experiment; catches accidental
        # changes to the pipeline, record schema, or table formatting.
        cfg = ExperimentConfig(setting="LAI", sizes=((60, 20),), reps=5, B=20,
                               alpha=0.2, kmax=3, q=1,
                               methods=("t", "iv", "ps", "hr"), seed=42,
                               out_dir=tmp_path, workers=1)
        run_experiment(cfg)
        got = (tmp_path / "coverage_LAI_n60_p20.csv").read_text()
        expect = (DATA_DIR / "golden_coverage_LAI_n60_p20.csv").read_text()
        assert got == expect


class TestExperimentDeterminism:
    def test_worker_count_invariance(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        run_experiment(tiny_config(out1, workers=1))
        run_experiment(tiny_config(out2, workers=2))
        for name in ("coverage_IID_n60_p30.csv", "amse_IID.csv",
                     "records_IID_n60_p30.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_resume_appends_only_missing(self, tmp_path):
        out_full, out_resume = tmp_path / "full", tmp_path / "part"
        run_experiment(tiny_config(out_full, reps=4))
        run_experiment(tiny_config(out_resume, reps=2))
        store = out_resume / "records_IID_n60_p30.csv"
        before = store.read_text()
        run_experiment(tiny_config(out_resume, reps=4))
        after = store.read_text()
        assert after.startswith(before)  # existing rows untouched
        assert (out_full / "coverage_IID_n60_p30.csv").read_bytes() == \
            (out_resume / "coverage_IID_n60_p30.csv").read_bytes()
        done = {int(r["rep"]) for r in load_records(store)
                if r["kind"] == "rep"}
        assert done == {0, 1, 2, 3}

    def test_smaller_experiment_reads_only_its_replications(self, tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run_experiment(tiny_config(shared, reps=4))
        report = run_experiment(tiny_config(shared, reps=2))[0]
        run_experiment(tiny_config(fresh, reps=2))
        assert report.reps == 2
        for name in ("coverage_IID_n60_p30.csv", "amse_IID.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        done = {int(r["rep"])
                for r in load_records(shared / "records_IID_n60_p30.csv")
                if r["kind"] == "rep"}
        assert done == {0, 1, 2, 3}  # the store keeps the larger run's rows

    def test_records_roundtrip_schema(self, tmp_path):
        out = tmp_path / "rt"
        run_experiment(tiny_config(out, reps=2))
        records = load_records(out / "records_IID_n60_p30.csv")
        assert set(records[0].keys()) == set(RECORD_COLUMNS)
        report = aggregate(records, "IID", 60, 30, ("t", "iv", "ps", "hr"))
        assert report.reps == 2


class TestWorkerConfig:
    def test_interrupted_run_keeps_finished_replications(self, tmp_path,
                                                         monkeypatch):
        real = harness.ProcessPoolExecutor
        computed = []

        class InterruptedPool(real):
            def map(self, fn, payloads):
                results = super().map(fn, payloads)
                yield next(results)
                yield next(results)
                raise KeyboardInterrupt

        class CountingPool(real):
            def map(self, fn, payloads):
                computed.extend(payload[4] for payload in payloads)
                return super().map(fn, payloads)

        full, part = tmp_path / "full", tmp_path / "part"
        run_experiment(tiny_config(full, reps=3))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(part, reps=3))
        store = part / "records_IID_n60_p30.csv"
        assert completed_reps(load_records(store)) == {0, 1}
        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        run_experiment(tiny_config(part, reps=3))
        assert computed == [2]
        for name in ("records_IID_n60_p30.csv", "coverage_IID_n60_p30.csv",
                     "amse_IID.csv"):
            assert (part / name).read_bytes() == (full / name).read_bytes()

    @pytest.mark.parametrize("cut", ["mid_replication", "torn_last_line"])
    def test_resume_after_a_cut_off_append(self, tmp_path, cut):
        # A replication's rows end with its rep row; a run stopped while
        # appending them leaves a store that must resume to the same files.
        def config(out_dir):
            return ExperimentConfig(setting="IID", sizes=((60, 80),), reps=3,
                                    methods=("t", "iv"), out_dir=out_dir)

        full, part = tmp_path / "full", tmp_path / "part"
        run_experiment(config(full))
        store = "records_IID_n60_p80.csv"
        lines = (full / store).read_bytes().splitlines(keepends=True)
        if cut == "mid_replication":
            # Replications 0 and 1, then the first interval row of 2.
            second_rep = [i for i, line in enumerate(lines)
                          if line.startswith(b"rep,")][1]
            head = b"".join(lines[:second_rep + 2])
        else:
            head = b"".join(lines)[:-5]  # replication 2's rep row, torn
        part.mkdir()
        (part / store).write_bytes(head)
        run_experiment(config(part))
        for name in (store, "coverage_IID_n60_p80.csv", "amse_IID.csv"):
            assert (part / name).read_bytes() == (full / name).read_bytes()

    def test_failed_replication_left_out_of_first_run_amse(self, tmp_path,
                                                           monkeypatch):
        real_w = harness.generate_w

        class InProcessPool:
            def __init__(self, max_workers=None, mp_context=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        def broken_for_rep_1(ds, j_hat, F_hat, B, seed, **kw):
            if seed.entropy[1] == 1:  # SeedSequence([master, rep, 1])
                raise ValueError("not a numerical failure")
            return real_w(ds, j_hat, F_hat, B, seed, **kw)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "generate_w", broken_for_rep_1)
        report = run_experiment(tiny_config(tmp_path, reps=2))[0]
        ok = run_replication("IID", 60, 30, 11, 0, 20, 0.2, 3, 1,
                             ("t", "iv", "ps", "hr"), "one")
        assert (report.reps, report.failed) == (2, 1)
        assert report.amse == ok["amse"]

    def test_records_parse_back_to_identical_floats(self, tmp_path):
        out = tmp_path / "exact"
        run_experiment(tiny_config(out, reps=2))
        records = load_records(out / "records_IID_n60_p30.csv")
        fresh = [run_replication("IID", 60, 30, 11, r, 20, 0.2, 3, 1,
                                 ("t", "iv", "ps", "hr"), "one")
                 for r in range(2)]
        by_key = {}
        for res in fresh:
            for (j, bt, method, lb, ub, flags) in res["intervals"]:
                by_key[(res["rep"], j + 1, method)] = (lb, ub)
        for row in records:
            if row["kind"] != "interval":
                continue
            lb, ub = by_key[(int(row["rep"]), int(row["j"]), row["method"])]
            assert float(row["lb"]) == lb  # repr round trip is exact
            assert float(row["ub"]) == ub


class TestTwoSidedHarness:
    def test_two_sided_replication(self):
        res = run_replication("IID", 80, 20, 3, 0, 20, 0.1, 3, 1,
                              ("t", "iv", "hr"), "two")
        uppers = [row[4] for row in res["intervals"]]
        assert all(math.isfinite(u) for u in uppers)
        lowers = [row[3] for row in res["intervals"]]
        assert all(lo <= up for lo, up in zip(lowers, uppers))

    def test_two_sided_rejects_ps(self, tmp_path):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            ExperimentConfig(setting="IID", sizes=((60, 30),), reps=1,
                             methods=("ps",), side="two",
                             out_dir=tmp_path, workers=1)

    def test_unknown_side_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="--side must be 'one' or 'two'"):
            ExperimentConfig(setting="IID", sizes=((60, 80),), reps=1,
                             methods=("t", "hr"), side="both", B=20,
                             out_dir=tmp_path)

    def test_hr_needs_min_resamples(self, tmp_path):
        import pytest as _pytest

        def config(methods, B):
            return ExperimentConfig(setting="IID", sizes=((60, 30),), reps=1,
                                    B=B, methods=methods, out_dir=tmp_path)

        with _pytest.raises(ValueError, match="B >= 20"):
            config(("t", "hr"), 19)
        assert config(("t", "hr"), 20).B == 20
        assert config(("t", "iv"), 5).B == 5

    @pytest.mark.parametrize("side, alpha", [("one", 0.2), ("two", 0.1)])
    def test_default_alpha_follows_side(self, tmp_path, side, alpha):
        # 80% nominal on either side, the rule the command line uses too.
        cfg = ExperimentConfig(setting="IID", sizes=((60, 30),), reps=1,
                               methods=("t",), side=side, out_dir=tmp_path)
        assert harness.default_alpha(side) == cfg.alpha == alpha

    @pytest.mark.parametrize("stats, flag", [
        ([-1.0, 100.0], "clipped"),  # both grid ends accepted
        ([100.0], "empty"),          # no grid point accepted
    ])
    def test_hr_grid_edge_cases_flagged(self, monkeypatch, stats, flag):
        ds = generate(DgpConfig(setting="IID", n=150, p=20, seed=3),
                      make_beta(20))
        engine = StatisticEngine(ds.X, StatConfig(kmax=1, q=0, side="two"))
        fit = engine.fit(ds.Y)
        rs = generate_w(ds, fit.j_hat, engine.factors.F_hat, 40, 1, kmax=1)

        def fixed(Y_batch, j, theta, sets):
            b = Y_batch.shape[1]
            return np.resize(stats, b), np.ones(b, dtype=bool)

        monkeypatch.setattr(engine, "statistics_batch", fixed)
        lb, ub, flags = harness.interval("hr", int(fit.j_hat[0]), ds,
                                         fit.selection, engine, fit, "two", 0.1,
                                         rs)
        assert flags == flag
        assert (lb == ub) is (flag == "empty")
