"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The heavy Monte-Carlo experiments are
cached in tests/_acceptance_cache and resume incrementally, so re-runs only
compute missing replications; delete that directory to force a clean run.
Expect roughly 5-7 minutes on two cores for a cold cache.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from martingale_ci.block_bootstrap import double_block_bootstrap
from martingale_ci.factor_model import estimate_factors
from martingale_ci.harness import (
    ExperimentConfig,
    GROUP_SIZES,
    run_experiment,
)
from martingale_ci.inference import truncnorm_sf
from martingale_ci.oga import oga
from martingale_ci.ps import SelectionPolytope, ps_interval

CACHE = Path(__file__).parent / "_acceptance_cache"
MASTER_SEED = 0
FULL_METHODS = ("t", "iv", "ps", "hr")
WEAK_GROUPS = (0.2, 0.1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def run_cell(setting, n, p, reps, methods, workers=2, B=50, alpha=0.2):
    out = CACHE / f"{setting.lower()}_{n}x{p}_{'-'.join(methods) or 'amse'}"
    cfg = ExperimentConfig(setting=setting, sizes=((n, p),), reps=reps, B=B,
                           alpha=alpha, methods=methods, seed=MASTER_SEED,
                           out_dir=out, workers=workers)
    return run_experiment(cfg)[0]


@pytest.fixture(scope="session")
def lai400():
    return run_cell("LAI", 400, 500, 300, FULL_METHODS)


@pytest.fixture(scope="session")
def settings200():
    return {s: run_cell(s, 200, 250, 300, FULL_METHODS)
            for s in ("GARCH", "AR", "IID", "MVN")}


class TestCriterion1:
    def test_amse_table_reproduction(self):
        t0 = time.perf_counter()
        targets = {"IID": 0.0583, "LAI": 0.1240}
        got = {}
        for setting, target in targets.items():
            rep = run_cell(setting, 200, 250, 300, (), workers=1)
            got[setting] = rep.amse
        elapsed = time.perf_counter() - t0
        ok = all(abs(got[s] - t) <= 0.25 * t for s, t in targets.items())
        ok = ok and elapsed < 600.0
        report("1 (estimation error, reduced table)", ok,
               "IID %.4f vs 0.0583, LAI %.4f vs 0.1240 (+-25%%), %.0f s"
               % (got["IID"], got["LAI"], elapsed))


class TestCriterion2:
    @pytest.mark.parametrize("setting", ["IID", "LAI"])
    def test_error_halving_rate(self, setting):
        small = run_cell(setting, 200, 250, 200, ())
        big = run_cell(setting, 800, 1000, 200, ())
        ratio = small.amse / big.amse
        ok = 1.6 <= ratio <= 2.6
        report(f"2 (rate, {setting})", ok,
               "AMSE(200,250)/AMSE(800,1000) = %.4f/%.4f = %.3f, band [1.6, 2.6]"
               % (small.amse, big.amse, ratio))


class TestCriterion3:
    def test_strong_signal_coverage_lai400(self, lai400):
        hr = lai400.cr["hr"][0.6]
        iv = lai400.cr["iv"][0.6]
        t_overall = lai400.overall_cr["t"]
        ok = (0.75 <= hr <= 0.87) and (0.77 <= iv <= 0.89) and t_overall < 0.2
        report("3 (strong signals, LAI n=400)", ok,
               "HR CR(0.6)=%.4f in [0.75,0.87], IV CR(0.6)=%.4f in "
               "[0.77,0.89], t overall=%.4f < 0.2" % (hr, iv, t_overall))


def weak_coverage(report_cell, method):
    """Pooled coverage over the weak signal groups (0.2 and 0.1)."""
    covered = total = 0
    for g in WEAK_GROUPS:
        n_pairs = round(report_cell.ns[g] * GROUP_SIZES[g])
        cr = report_cell.cr[method][g]
        if n_pairs == 0 or math.isnan(cr):
            continue
        covered += cr * n_pairs
        total += n_pairs
    return (covered / total if total else math.nan), total


class TestCriterion4:
    def test_weak_signal_coverage_lai400(self, lai400):
        hr = lai400.cr["hr"][0.1]
        iv = lai400.cr["iv"][0.1]
        ok = hr >= 0.6 and iv <= 0.25
        report("4a (weak signals, LAI n=400)", ok,
               "HR CR(0.1)=%.4f >= 0.6, IV CR(0.1)=%.4f <= 0.25" % (hr, iv))

    def test_weak_signal_ordering_every_setting(self, lai400, settings200):
        cells = dict(settings200)
        cells["LAI"] = lai400
        lines, ok = [], True
        for setting, cell in sorted(cells.items()):
            hr, n_hr = weak_coverage(cell, "hr")
            ps, _ = weak_coverage(cell, "ps")
            tt, _ = weak_coverage(cell, "t")
            if n_hr == 0:
                lines.append(f"{setting}: no weak selections")
                continue
            good = hr > ps and hr > tt
            ok = ok and good
            lines.append("%s: HR %.3f vs PS %.3f vs t %.3f%s"
                         % (setting, hr, ps, tt, "" if good else " (!)"))
        report("4b (weak-signal ordering HR>PS, HR>t)", ok, "; ".join(lines))


class TestCriterion5:
    def test_iid_strong_signal_sanity(self, settings200):
        cell = settings200["IID"]
        vals = {m: cell.cr[m][0.6] for m in FULL_METHODS}
        ok = all(0.74 <= v <= 0.86 for v in vals.values())
        report("5 (IID sanity, all methods)", ok,
               ", ".join("%s=%.4f" % kv for kv in vals.items())
               + " all in [0.74,0.86]")


class TestCriterion6:
    def test_greedy_matches_naive_stepwise(self):
        from _oracles import naive_forward_stepwise

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 31))
            p = int(rng.integers(4, 16))
            m = int(min(rng.integers(2, 9), n // 2, p))
            X = rng.standard_normal((n, p))
            Y = rng.standard_normal(n)
            sel = oga(X, Y, m)
            order, beta = naive_forward_stepwise(X, Y, m)
            assert sel.j_hat.tolist() == order
            worst = max(worst, float(np.max(np.abs(sel.beta_oga - beta))))
        ok = worst < 1e-8
        report("6 (greedy vs naive stepwise, 100 instances)", ok,
               f"orders identical, max coefficient gap {worst:.2e} < 1e-8")


class TestCriterion7:
    def test_factor_rank_consistency(self):
        def run(noise_scale):
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng(seed)
                F = rng.standard_normal((200, 3))
                lam = rng.standard_normal((200, 3))
                X = F @ lam.T
                if noise_scale > 0.0:
                    X = X + noise_scale * rng.standard_normal((200, 200))
                if estimate_factors(X, 5).k_hat == 3:
                    hits += 1
            return hits

        clean = run(0.0)
        # Signal variance is 3 per entry; sd sqrt(0.3) puts the
        # signal-to-noise variance ratio at 10.
        noisy = run(math.sqrt(0.3))
        ok = clean >= 95 and noisy >= 90
        report("7 (factor-rank consistency)", ok,
               f"noiseless k=3 in {clean}/100 (>=95), snr-10 in {noisy}/100 (>=90)")


class TestCriterion8:
    def test_bootstrap_invariants(self):
        rng = np.random.default_rng(77)
        runs = 0
        for n in (50, 200, 1000):
            eps = rng.standard_normal(n)
            values = set(eps.tolist())
            for b in range(333 if n < 1000 else 334):
                out = double_block_bootstrap(eps, np.random.default_rng([n, b]))
                assert out.shape == (n,)
                assert set(out.tolist()) <= values
                runs += 1
        const = np.full(200, 3.7)
        fixed = double_block_bootstrap(const, np.random.default_rng(1))
        ok = runs >= 1000 and bool(np.all(fixed == 3.7))
        report("8 (bootstrap invariants)", ok,
               f"{runs} runs: length/membership exact, constant series fixed")


class TestCriterion9:
    def test_selection_polytope_oracle(self):
        rng = np.random.default_rng(909)
        n, p, m = 25, 8, 3
        inside_total = 0
        worst_violation = -np.inf
        worst_delta_gap = 0.0
        for _ in range(200):
            X = rng.standard_normal((n, p))
            beta = np.zeros(p)
            beta[rng.choice(p, 2, replace=False)] = rng.normal(0, 1.2, 2)
            Y = X @ beta + rng.standard_normal(n)
            sel = oga(X, Y, m)
            poly = SelectionPolytope.from_selection(X, sel)
            worst_violation = max(worst_violation, float(np.max(poly.apply(Y))))

            signs = np.sign(sel.beta_q)
            need, scale = 50, 0.25
            collected = 0
            for _attempt in range(10):
                pert = Y[:, None] + scale * rng.standard_normal((n, 200))
                ok_cols = np.flatnonzero(np.all(poly.apply(pert) <= 0.0, axis=0))
                for col in ok_cols:
                    if collected >= need:
                        break
                    y2 = pert[:, col]
                    sel2 = oga(X, y2, m)
                    assert sel2.j_hat.tolist() == sel.j_hat.tolist()
                    assert np.array_equal(np.sign(sel2.beta_q), signs)
                    collected += 1
                if collected >= need:
                    break
                scale *= 0.5
            inside_total += collected

            alpha = 0.2
            rep = ps_interval(X, Y, sel, int(sel.j_hat[0]), alpha, 1.0)
            d = rep.diagnostics
            achieved = truncnorm_sf(d["observed"], rep.lower, d["scale"],
                                    d["v_lo"], d["v_up"])
            worst_delta_gap = max(worst_delta_gap, abs(achieved - alpha))

        ok = (worst_violation <= 1e-9 and inside_total >= 10_000
              and worst_delta_gap < 1e-6)
        report("9 (selection polytope oracle)", ok,
               "max constraint value %.1e, %d in-polytope perturbations "
               "reproduced selection+signs, max |F-alpha| %.1e"
               % (worst_violation, inside_total, worst_delta_gap))


class TestCriterion10:
    def test_worker_count_byte_identity(self, tmp_path):
        digests = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig(setting="MVN", sizes=((80, 40),), reps=6,
                                   B=24, alpha=0.2, kmax=3,
                                   methods=FULL_METHODS, seed=13,
                                   out_dir=out, workers=workers)
            run_experiment(cfg)
            digests[workers] = tuple(
                (out / name).read_bytes()
                for name in ("coverage_MVN_n80_p40.csv", "amse_MVN.csv",
                             "records_MVN_n80_p40.csv"))
        ok = digests[1] == digests[2] == digests[3]
        report("10 (determinism across worker counts)", ok,
               "aggregated and record CSVs byte-identical for workers 1, 2, 3")
