"""Reference outputs for master seed 0 and the row-by-row comparison.

``reference/<workload>.csv`` holds, for each replication in the workload's
list, the rows ``harness`` writes to a record store (``kind``, ``rep``,
1-based ``j``, ``method``, ``lb``, ``ub``, ``m``, ``amse``, ``flags``) plus
``sigma``, the observed standard error of each hr coefficient. The rows of
``lai400_one`` and ``lai800_amse`` are copied from the acceptance cache
under ``tests/_acceptance_cache``; ``garch200_two`` was computed once by
``make_reference.py``.

Selections (the interval rows present), ``m`` and ``flags`` must match
exactly. Bounds and ``amse`` may differ by ``REL_TOL`` relative, which
allows for a change in the order of floating-point operations; hr bounds may
also move by ``HR_TOL_SIGMAS`` standard errors, the bisection width.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

REL_TOL = 1e-9
HR_TOL_SIGMAS = 1e-3
COLUMNS = ("kind", "rep", "j", "method", "lb", "ub", "m", "amse", "flags",
           "sigma")


@dataclass
class ReplicationRef:
    m: int
    amse: float
    flags: str
    # (1-based j, method) -> (lb, ub, flags, sigma)
    intervals: dict[tuple[int, str], tuple[float, float, str, float]] = field(
        default_factory=dict)


def _float(text: str) -> float:
    return math.nan if text == "" else float(text)


def load(path: Path) -> dict[int, ReplicationRef]:
    """Reference replications by replication index."""
    refs: dict[int, ReplicationRef] = {}
    intervals: dict[int, dict] = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rep = int(row["rep"])
            if row["kind"] == "rep":
                refs[rep] = ReplicationRef(int(row["m"]), _float(row["amse"]),
                                           row["flags"])
            else:
                intervals.setdefault(rep, {})[(int(row["j"]), row["method"])] = (
                    _float(row["lb"]), _float(row["ub"]), row["flags"],
                    _float(row["sigma"]))
    for rep, ref in refs.items():
        ref.intervals = intervals.get(rep, {})
    return refs


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    if got == want:
        return True
    return abs(got - want) <= tol + REL_TOL * max(1.0, abs(want))


def summary_mismatch(result: dict, ref: ReplicationRef) -> str | None:
    """Why a replication's selection summary disagrees, or None."""
    got_keys = {(j + 1, method) for (j, _, method, *_rest) in result["intervals"]}
    if result["m"] != ref.m:
        return f"m {result['m']} != {ref.m}"
    if result["flags"] != ref.flags:
        return f"flags {result['flags']!r} != {ref.flags!r}"
    if not _close(result["amse"], ref.amse, 0.0):
        return f"amse {result['amse']!r} != {ref.amse!r}"
    if got_keys != set(ref.intervals):
        return "selected coefficients differ"
    return None


def interval_mismatch(interval: tuple, ref: ReplicationRef) -> str | None:
    """Why one ``(j, beta_true, method, lb, ub, flags)`` row disagrees, or None."""
    j, _, method, lb, ub, flags = interval
    want_lb, want_ub, want_flags, sigma = ref.intervals[(j + 1, method)]
    tol = HR_TOL_SIGMAS * sigma if method == "hr" else 0.0
    if flags != want_flags:
        return f"j={j + 1} {method}: flags {flags!r} != {want_flags!r}"
    if not (_close(lb, want_lb, tol) and _close(ub, want_ub, tol)):
        return (f"j={j + 1} {method}: ({lb!r}, {ub!r}) != "
                f"({want_lb!r}, {want_ub!r})")
    return None
