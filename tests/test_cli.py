import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import martingale_ci
from martingale_ci.cli import main
from martingale_ci.dgp import Dataset, load_dataset, save_dataset


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
        out = tmp_path / "ci_t.csv"
        code = main(["ci", "--in", str(data), "--method", "t", "--kmax", "1",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ci: projected gram matrix is singular")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_two_sided_t(self, dataset_csv, tmp_path):
        out = tmp_path / "ci_t2.csv"
        code = main(["ci", "--in", str(dataset_csv), "--method", "t",
                     "--side", "two", "--alpha", "0.1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert all(float(r["lower"]) <= float(r["upper"]) for r in rows)
        assert all(np.isfinite(float(r["upper"])) for r in rows)

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
        assert "reps=2 failed=0 amse=" in capsys.readouterr().out
        assert (out / "coverage_IID_n60_p30.csv").exists()
        assert (out / "amse_IID.csv").exists()
        assert (out / "records_IID_n60_p30.csv").exists()

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
