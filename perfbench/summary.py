"""The benchmark's own arithmetic: the tail percentile and failure counting.

An operation is one (replication, coefficient, method) interval. A
replication of an estimation-only workload computes no interval; its
estimation error is its one operation. An interval fails when it is
flagged ``failed:*`` or disagrees with the reference; every operation of a
replication fails when its selection summary disagrees; a replication that
raises counts as one failed operation. ``nonconverged`` and ``fallback``
flags are outputs, not failures.
"""
from __future__ import annotations

from reference import ReplicationRef, interval_mismatch, summary_mismatch

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, samples above)``. The value at sorted
    rank r (1-based) has n - r samples above it, so the rank is n - 10 and
    the percentile 100 r / n. With 20 samples or fewer that rank falls
    below the median, which is no tail and the noisiest order statistic of
    a short run, so the rank never goes below ceil(n / 2): small runs
    report their (lower) median, labelled with its percentile.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def count_operations(result: dict | BaseException,
                     ref: ReplicationRef | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` for one replication.

    ``result`` is what ``harness.run_replication`` returned, or the
    exception it raised; ``ref`` is None when there is no reference.
    """
    if isinstance(result, BaseException):
        return 1, 1, [f"raised {type(result).__name__}: {result}"]
    intervals = result["intervals"]
    attempted = max(1, len(intervals))
    if ref is not None:
        why = summary_mismatch(result, ref)
        if why is not None:
            return attempted, attempted, [f"rep {result['rep']}: {why}"]
    problems = []
    for interval in intervals:
        flags = interval[5]
        why = (f"j={interval[0] + 1} {interval[2]}: {flags}"
               if flags.startswith("failed")
               else None if ref is None else interval_mismatch(interval, ref))
        if why is not None:
            problems.append(f"rep {result['rep']}: {why}")
    return attempted, len(problems), problems
