import argparse
import csv
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import martingale_ci
from martingale_ci.cli import _build_parser, main
from martingale_ci.dgp import Dataset, load_dataset, save_dataset
from martingale_ci.harness import (PS_SIGMA, ExperimentConfig, derive_dataset_seed,
                                   run_experiment, run_replication)
from martingale_ci.hybrid import StatisticEngine
from martingale_ci.inference import StatConfig, selected_ols
from martingale_ci.resampler import MIN_SPLIT_LENGTH


class TestDgpCommand:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(["dgp", "--setting", "IID", "--n", "40", "--p", "12",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        ds = load_dataset(out)
        assert ds.X.shape == (40, 12)
        meta = json.loads((tmp_path / "data.meta.json").read_text())
        assert meta["setting"] == "IID"
        assert len(meta["beta"]) == 12

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["dgp", "--setting", "GARCH", "--n", "30", "--p", "11",
                  "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n, p, message", [
        ("3", "12", "n must be >= 4"),
        ("40", "5", "need p >= 10 to place 10 nonzero entries, got 5"),
    ])
    def test_bad_size_rejected(self, tmp_path, capsys, n, p, message):
        out = tmp_path / "data.csv"
        code = main(["dgp", "--setting", "IID", "--n", n, "--p", p,
                     "--seed", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"dgp: {message}\n"
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["dgp", "--setting", "IID", "--n", "40", "--p", "12",
                     "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "dgp: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_missing_out_dir_rejected(self, tmp_path, capsys):
        missing, folder = tmp_path / "missing" / "data.csv", tmp_path / "data"
        folder.mkdir()
        for out, message in (
                (missing, f"output directory {missing.parent} does not exist"),
                (folder, f"--out {folder} is a directory, not a file")):
            code = main(["dgp", "--setting", "IID", "--n", "40", "--p", "12",
                         "--seed", "1", "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == f"dgp: {message}\n"
        assert not missing.parent.exists()
        assert sorted(tmp_path.iterdir()) == [folder]
        assert not any(folder.iterdir())


class TestCiCommand:
    @pytest.fixture()
    def dataset_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        main(["dgp", "--setting", "IID", "--n", "120", "--p", "20",
              "--seed", "3", "--out", str(out)])
        return out

    @pytest.mark.parametrize("method", ["t", "iv", "ps"])
    def test_methods_write_expected_columns(self, dataset_csv, tmp_path, method):
        out = tmp_path / f"ci_{method}.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", method,
                     "--alpha", "0.2", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows, "at least one coefficient selected"
        assert list(rows[0].keys()) == ["j", "method", "lower", "upper",
                                        "selected_order", "flags"]
        assert rows[0]["method"] == method
        assert rows[0]["upper"] == "inf"
        orders = [int(r["selected_order"]) for r in rows]
        assert orders == list(range(1, len(rows) + 1))

    def test_hr_method(self, dataset_csv, tmp_path):
        out = tmp_path / "ci_hr.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", "hr",
                     "--alpha", "0.2", "--B", "25", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["lower"]) < np.inf for r in rows)

    def test_hr_two_sided(self, dataset_csv, tmp_path):
        out = tmp_path / "ci_hr2.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", "hr",
                     "--side", "two", "--B", "20", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows
        for r in rows:
            lower, upper = float(r["lower"]), float(r["upper"])
            assert np.isfinite(lower) and np.isfinite(upper)
            assert lower <= upper
            assert (r["flags"] in ("ok", "fallback", "nonconverged")
                    or r["flags"].startswith("failed:"))

    def test_missing_out_dir_rejected_before_work(self, dataset_csv, tmp_path,
                                                  capsys, monkeypatch):
        from martingale_ci import cli

        def refuse(path):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", refuse)
        missing, folder = tmp_path / "missing" / "bounds.csv", tmp_path / "bounds"
        folder.mkdir()
        for out, message in (
                (missing, f"output directory {missing.parent} does not exist"),
                (folder, f"--out {folder} is a directory, not a file")):
            code = main(["ci", "--in", str(dataset_csv), "--method", "hr",
                         "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == f"ci: {message}\n"
        assert not missing.parent.exists()
        assert not any(folder.iterdir())

    def test_hr_too_few_resamples_rejected(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "ci_hr.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", "hr",
                     "--B", "10", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ci: ") and err.count("\n") == 1
        assert "--B >= 20" in err
        assert not out.exists()

    @pytest.mark.parametrize("method, option, message", [
        ("ps", ["--sigma", "0"], "--sigma must be positive, got 0.0"),
        ("ps", ["--sigma", "-1"], "--sigma must be positive, got -1.0"),
        ("iv", ["--alpha", "0.7"], "--alpha must be in (0, 0.5), got 0.7"),
        ("iv", ["--alpha", "0"], "--alpha must be in (0, 0.5), got 0.0"),
        ("iv", ["--q", "-1"], "--q must be >= 0, got -1"),
        ("iv", ["--kmax", "0"], "--kmax must be >= 1, got 0"),
        ("hr", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("t", ["--sigma", "5"], "--sigma is read by the ps method only"),
        ("iv", ["--sigma", "5"], "--sigma is read by the ps method only"),
        ("hr", ["--sigma", "5"], "--sigma is read by the ps method only"),
    ])
    def test_invalid_option_rejected(self, dataset_csv, tmp_path, capsys,
                                     method, option, message):
        out = tmp_path / "ci.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", method,
                     *option, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"ci: {message}\n"
        assert not out.exists()

    def test_singular_observed_fit_exits_2(self, ill_conditioned_design,
                                           tmp_path, capsys):
        X, Y = ill_conditioned_design
        data = tmp_path / "singular.csv"
        save_dataset(Dataset(X=X, Y=Y), data)
        out = tmp_path / "ci_iv.csv"
        code = main(["ci", "--in", str(data), "--method", "iv", "--kmax", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ci: projected gram matrix is singular")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("method", ["iv", "hr"])
    def test_saturated_factor_model_exits_2(self, tmp_path, capsys, method):
        # With --kmax reaching p every column is projected away but for
        # rounding; its gram passes the condition guard, the norm floor
        # does not.
        data = tmp_path / "iid.csv"
        main(["dgp", "--setting", "IID", "--n", "40", "--p", "12",
              "--seed", "1", "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "ci.csv"
        code = main(["ci", "--in", str(data), "--method", method, "--kmax", "12",
                     "--B", "20", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "ci: projected gram matrix is singular (condition estimate inf)\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["t", "ps"])
    def test_saturated_factor_model_leaves_t_and_ps(self, tmp_path, monkeypatch,
                                                    method):
        # t and ps read only the selection: no engine, so no projected fit
        # to fail, and --kmax changes nothing.
        def refuse(*args, **kwargs):
            raise AssertionError(f"ci --method {method} built an engine")

        monkeypatch.setattr(StatisticEngine, "__init__", refuse)
        data = tmp_path / "iid.csv"
        main(["dgp", "--setting", "IID", "--n", "40", "--p", "12",
              "--seed", "1", "--out", str(data)])
        saturated, default = tmp_path / "ci.csv", tmp_path / "ci_kmax5.csv"
        assert main(["ci", "--in", str(data), "--method", method, "--kmax", "12",
                     "--out", str(saturated)]) == 0
        assert main(["ci", "--in", str(data), "--method", method,
                     "--out", str(default)]) == 0
        rows = list(csv.DictReader(saturated.open()))
        assert len(rows) == 4
        assert all(np.isfinite(float(r["lower"])) and r["flags"] == "ok"
                   for r in rows)
        assert saturated.read_bytes() == default.read_bytes()

    def test_bounds_equal_the_simulation_records(self, tmp_path):
        # A dgp-written replication gives ci the bounds simulate records.
        data = tmp_path / "iid.csv"
        main(["dgp", "--setting", "IID", "--n", "60", "--p", "80",
              "--seed", str(derive_dataset_seed(0, 1)), "--out", str(data)])
        res = run_replication("IID", 60, 80, 0, 1, 20, 0.2, 5, 1,
                              ("t", "iv", "ps"), "one")
        assert res["flags"] == "ok"
        for method in ("t", "iv", "ps"):
            out = tmp_path / f"ci_{method}.csv"
            sigma = ["--sigma", repr(PS_SIGMA["IID"])] if method == "ps" else []
            assert main(["ci", "--in", str(data), "--method", method, *sigma,
                         "--out", str(out)]) == 0
            got = [(int(r["j"]) - 1, float(r["lower"]), float(r["upper"]), r["flags"])
                   for r in csv.DictReader(out.open())]
            assert got == [(j, lb, ub, flags)
                           for j, _, m, lb, ub, flags in res["intervals"]
                           if m == method]

    def test_factor_model_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        from martingale_ci import factor_model

        data = tmp_path / "lai.csv"
        main(["dgp", "--setting", "LAI", "--n", "60", "--p", "80",
              "--seed", "2", "--out", str(data)])

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("eigh did not converge")

        monkeypatch.setattr(factor_model, "eigh", broken)
        out = tmp_path / "ci_iv.csv"
        code = main(["ci", "--in", str(data), "--method", "iv", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "ci: eigendecomposition of the Gram matrix failed\n")
        assert not out.exists()

    def test_hr_too_few_rows_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 12))
        data = tmp_path / "six.csv"
        save_dataset(Dataset(X=X, Y=2.0 * X[:, 0] + 0.1 * rng.standard_normal(6)),
                     data)
        out = tmp_path / "ci_hr.csv"
        code = main(["ci", "--in", str(data), "--method", "hr", "--kmax", "1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "ci: need n >= 8 to split, got 6\n"
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (None, "input.csv"),
        ("y,x1,x2\n1,2,a\n3,4,5\n", "could not convert string 'a'"),
        ("y,x1,x2\n1,2,3\n3,4,5\n1,1,1\n", "need n >= 4 rows"),
        ("y,x1,x2\n1,2,3\nnan,4,5\n1,1,1\n2,2,2\n", "non-finite y in data row 2"),
        ("y,x1,x2\n1,2,3\n3,4,5\n1,1,inf\n2,2,2\n", "non-finite x2 in data row 3"),
    ])
    def test_unreadable_input_rejected(self, tmp_path, capsys, content, message):
        data = tmp_path / "input.csv"
        if content is not None:
            data.write_text(content)
        out = tmp_path / "ci_t.csv"
        code = main(["ci", "--in", str(data), "--method", "t", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ci: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_two_sided_t(self, dataset_csv, tmp_path):
        out = tmp_path / "ci_t2.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", "t",
                     "--side", "two", "--alpha", "0.1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["lower"]) <= float(r["upper"]) for r in rows)
        assert all(np.isfinite(float(r["upper"])) for r in rows)

    def test_ps_without_sigma_takes_the_t_residual_scale(self, dataset_csv, tmp_path):
        ds = load_dataset(dataset_csv)
        j_hat = StatisticEngine(ds.X, StatConfig()).fit(ds.Y).j_hat
        _, scale = selected_ols(ds.X, ds.Y, j_hat)
        given, fallback = tmp_path / "given.csv", tmp_path / "fallback.csv"
        assert main(["ci", "--in", str(dataset_csv), "--method", "ps",
                     "--sigma", repr(scale), "--out", str(given)]) == 0
        assert main(["ci", "--in", str(dataset_csv), "--method", "ps",
                     "--out", str(fallback)]) == 0
        assert fallback.read_bytes() == given.read_bytes()

    def test_ps_two_sided_rejected(self, dataset_csv, tmp_path):
        code = main(["ci", "--in", str(dataset_csv), "--method", "ps",
                     "--side", "two", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_one_based_indices_match_columns(self, dataset_csv, tmp_path):
        out = tmp_path / "ci_t.csv"
        main(["ci", "--in", str(dataset_csv), "--method", "t",
              "--out", str(out)])
        rows = list(csv.DictReader(out.open()))
        # The generating coefficients put the strongest signals on x1, x2.
        js = {int(r["j"]) for r in rows}
        assert {1, 2} <= js


class TestSimulateCommand:
    def test_runs_and_writes_tables(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "2", "--B", "20", "--alpha", "0.2",
                     "--methods", "t,iv", "--seed", "4", "--workers", "1",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "reps=2 failed=0 amse=" in printed
        assert " overall CR=t=" in printed
        assert (out / "coverage_IID_n60_p30.csv").exists()
        assert (out / "amse_IID.csv").exists()
        assert (out / "records_IID_n60_p30.csv").exists()

    def test_estimation_only_summary(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "LAI", "--n", "60", "--p", "80",
                     "--reps", "3", "--methods", "", "--workers", "1",
                     "--out", str(tmp_path / "sim")])
        assert code == 0
        line, = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"LAI \(n=60, p=80\): reps=3 failed=0 amse=\d\.\d{4}",
                            line), line

    def test_mismatched_sizes_rejected(self, tmp_path):
        code = main(["simulate", "--setting", "IID", "--n", "60", "--n", "80",
                     "--p", "30", "--reps", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_method_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--methods", "bogus",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "simulate: unknown methods: ['bogus']\n"

    def test_too_few_resamples_for_hr_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--methods", "t,hr", "--B", "10",
                     "--out", str(tmp_path / "sim")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and err.count("\n") == 1
        assert "B >= 20" in err
        assert not (tmp_path / "sim").exists()

    def test_negative_lag_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--methods", "t,iv", "--q", "-1",
                     "--out", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == "simulate: --q must be >= 0, got -1\n"
        assert not (tmp_path / "sim").exists()

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        from martingale_ci import harness

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)

    @pytest.mark.parametrize("option, message", [
        (["--methods", "t,t"], "repeated methods: ['t']"),
        (["--methods", "t,iv,hr,iv,t"], "repeated methods: ['iv', 't']"),
        (["--methods", "t", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--methods", "t", "--out", "file"], "--out file is not a directory"),
        (["--methods", "t", "--out", "file/sim"],
         "--out file/sim: file is not a directory"),
    ])
    def test_invalid_option_rejected(self, tmp_path, capsys, monkeypatch,
                                     no_pool, option, message):
        # An --out in ``option`` comes last, so it is the one read; it is
        # relative to tmp_path, which holds a file named ``file``.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n")
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--out", str(tmp_path / "sim"), *option])
        assert code == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not (tmp_path / "sim").exists()
        assert (tmp_path / "file").read_text() == "kept\n"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bad_worker_flag_rejected(self, tmp_path, capsys, no_pool, value):
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--methods", "t", "--workers", value,
                     "--out", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"simulate: --workers must be a positive integer, got {value}\n")
        assert not (tmp_path / "sim").exists()

    def test_workers_flag_is_the_only_worker_setting(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("MARTINGALE_CI_WORKERS", "abc")
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "1", "--methods", "t", "--workers", "1",
                     "--out", str(tmp_path / "sim")])
        assert code == 0

    def test_default_alpha_same_as_a_config_without_alpha(self, tmp_path):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        code = main(["simulate", "--setting", "IID", "--n", "60", "--p", "30",
                     "--reps", "2", "--methods", "t", "--side", "two",
                     "--out", str(cli_out)])
        assert code == 0
        run_experiment(ExperimentConfig(setting="IID", sizes=((60, 30),),
                                        reps=2, methods=("t",), side="two",
                                        out_dir=lib_out))
        store = "records_IID_n60_p30.csv"
        assert (cli_out / store).read_bytes() == (lib_out / store).read_bytes()

    @pytest.mark.parametrize("sizes, message", [
        (["--n", "60", "--p", "5"], "need p >= 10 to place 10 nonzero entries, got 5"),
        (["--n", "60", "--p", "30", "--n", "3", "--p", "30"], "n must be >= 4"),
        (["--n", "40", "--p", "12", "--n", "40", "--p", "12"],
         "repeated sizes (n, p): [(40, 12)]"),
    ])
    def test_bad_size_rejected(self, tmp_path, capsys, no_pool, sizes, message):
        code = main(["simulate", "--setting", "IID", *sizes, "--reps", "1",
                     "--methods", "t", "--out", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("methods", ["t,hr", "t"])
    def test_size_too_small_to_split_rejected(self, tmp_path, capsys, no_pool,
                                              methods):
        code = main(["simulate", "--setting", "IID", "--n", "6", "--p", "12",
                     "--reps", "2", "--methods", methods, "--B", "20",
                     "--out", str(tmp_path / "sim")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"simulate: need n >= {MIN_SPLIT_LENGTH} to split, got 6\n")
        assert not (tmp_path / "sim").exists()


SCRIPT = "martingale-ci"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
# What a generated console-script wrapper does with "module:attr".
WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
obj = importlib.import_module(module)
for part in attr.split("."):
    obj = getattr(obj, part)
sys.exit(obj())
"""


def declared_entry_point(name):
    """The ``module:attr`` target of console script ``name``.

    Taken from the installed metadata when the package is installed, else
    from ``[project.scripts]`` in the source tree's pyproject.toml.
    """
    for ep in importlib.metadata.entry_points(group="console_scripts",
                                              name=name):
        return ep.value
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestConsoleScript:
    ARGS = ["dgp", "--setting", "IID", "--n", "20", "--p", "10", "--seed", "1"]

    def run_and_check(self, command, out, env=None):
        proc = subprocess.run(command + self.ARGS + ["--out", str(out)],
                              capture_output=True, text=True, env=env,
                              cwd=out.parent)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_entry_point_runs(self, tmp_path):
        # The child imports the same package this test imported, whether
        # it came from an install or from the source tree on PYTHONPATH.
        package_root = str(Path(martingale_ci.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        self.run_and_check(
            [sys.executable, "-c", WRAPPER, declared_entry_point(SCRIPT)],
            tmp_path / "declared.csv", env=env)

        installed = shutil.which(SCRIPT)
        if installed:
            self.run_and_check([installed], tmp_path / "installed.csv")


class TestDocsMatchCli:
    """README's command-line section documents the parser, no more, no less."""

    ROOT = Path(__file__).resolve().parent.parent

    def long_options(self):
        sub, = [a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        return {opt for name in ("dgp", "ci", "simulate")
                for action in sub.choices[name]._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"}

    def readme(self):
        return (self.ROOT / "README.md").read_text()

    def test_command_line_section_names_every_option(self):
        section = self.readme().split("\n## Command line\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
        options = self.long_options()
        assert not options - named, "options README does not name"
        assert not named - options, "options README names but the parser lacks"

    def test_environment_variables_are_read(self):
        sources = "".join(path.read_text()
                          for path in (self.ROOT / "src").rglob("*.py"))
        for name in set(re.findall(r"MARTINGALE_CI_\w+", self.readme())):
            assert name in sources, f"README documents {name}, which src/ never reads"
