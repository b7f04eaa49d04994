"""Summaries of repeated runs and the verdict of one result set against another."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Sequence

IMPROVED = "improved"
UNCHANGED = "unchanged"
WORSE = "worse"
UNRESOLVED = "unresolved"

#: A gain needs the change to beat the parent in at least this share of
#: all (parent run, changed run) pairs.
WIN_SHARE = 0.9


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def spread(summary: Mapping[str, float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> Dict[str, Any]:
    """Compare the runs of one metric on one workload under its bound.

    Identical runs are ``unchanged``.  Otherwise ``worse`` when the new
    median is worse than the base median by more than ``bound`` (a share
    of the base median); ``improved`` when it is
    better by more than the base runs' own spread and the new runs win at
    least nine tenths of all pairs; ``unresolved`` when either side's
    spread exceeds the bound and no side wins every pair; else
    ``unchanged``.
    """
    base_summary, new_summary = summarize(base), summarize(new)
    sign = 1.0 if better == "lower" else -1.0
    base_median = base_summary["median"]
    # Positive change = worse, as a share of the base median.
    change = (
        sign * (new_summary["median"] - base_median) / abs(base_median)
        if base_median
        else sign * (new_summary["median"] - base_median)
    )
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    noisy = max(spread(base_summary), spread(new_summary)) > bound
    if list(base) == list(new):
        outcome = UNCHANGED
    elif noisy and wins == len(pairs):
        outcome = IMPROVED
    elif noisy and losses == len(pairs):
        outcome = WORSE
    elif noisy:
        outcome = UNRESOLVED
    elif change > bound:
        outcome = WORSE
    elif -change > spread(base_summary) and wins >= WIN_SHARE * len(pairs):
        outcome = IMPROVED
    else:
        outcome = UNCHANGED
    return {
        "base": base_summary,
        "new": new_summary,
        "change": change,
        "verdict": outcome,
    }


def diff_sets(
    base: Mapping[str, Any], new: Mapping[str, Any], specs: Mapping[str, Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """One verdict row per (workload, metric) present in both result sets.

    ``specs`` maps a metric name to its ``unit``, ``better`` and ``bound``.
    """
    rows = []
    for workload, new_entry in new["workloads"].items():
        base_entry = base["workloads"].get(workload)
        if base_entry is None:
            continue
        for metric, spec in specs.items():
            base_values = base_entry["values"].get(metric)
            new_values = new_entry["values"].get(metric)
            if not base_values or not new_values:
                continue
            row = verdict(base_values, new_values, spec["better"], spec["bound"])
            row.update(workload=workload, metric=metric, unit=spec["unit"], bound=spec["bound"])
            rows.append(row)
    return rows


def format_diff(rows: Sequence[Mapping[str, Any]]) -> str:
    """The verdict rows as an aligned text table."""

    def runs(summary: Mapping[str, float]) -> str:
        return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"

    lines = [
        f"{'workload':<13} {'metric':<17} {'unit':<5} {'base median [q1, q3]':<32} "
        f"{'new median [q1, q3]':<32} {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} {row['unit']:<5} "
            f"{runs(row['base']):<32} {runs(row['new']):<32} "
            f"{row['change']:>+8.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)
