"""Compare two suite outputs: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the change.  One row per
workload x end-to-end metric: each side's median, quartiles and run
count, the change relative to ``A``, and a verdict against the bound
``BENCHMARK.json`` fixes for that metric:

* ``better``      every run of B beats every run of A, or B's median
                  beats A's by more than A's own quartile spread;
* ``same``        neither side is ahead by more than the bound or spread;
* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  a side's quartile spread exceeds the bound, so the two
                  cannot be told apart at that bound (not "unchanged").

Failed operations are compared exactly: more failures in B is ``worse``.
Exit status 1 if any row is ``worse``; comparing a file with itself (or
two runs of one commit, the A/A check) must exit 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def samples(report: dict) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per untraced run."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in report["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(
                metric["value"])
    return out


def failures(report: dict) -> Dict[str, Tuple[int, int]]:
    """workload -> (failed, attempted) over its untraced runs."""
    out: Dict[str, Tuple[int, int]] = {}
    for run in report["runs"]:
        if run["trace"]:
            continue
        failed, attempted = out.get(run["workload"], (0, 0))
        out[run["workload"]] = (failed + run["result"]["failed"],
                                attempted + run["result"]["attempted"])
    return out


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, change of the median as a share of the base's)."""
    base_low, base_mid, base_high = quartiles(base)
    low, mid, high = quartiles(change)
    delta = (mid - base_mid) / base_mid
    worse_by = delta if better == "lower" else -delta
    base_spread = (base_high - base_low) / base_mid
    spread = max(base_spread, (high - low) / mid)
    if better == "lower":
        clean_win = max(change) < min(base)
    else:
        clean_win = min(change) > max(base)
    if clean_win:
        return "better", delta
    if spread > bound:
        return "unresolved", delta
    if worse_by > bound:
        return "worse", delta
    if -worse_by > base_spread:
        return "better", delta
    return "same", delta


def compare(base: dict, change: dict, contract: dict) -> List[dict]:
    rows = []
    base_samples, change_samples = samples(base), samples(change)
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base_samples or key not in change_samples:
                continue
            outcome, delta = verdict(base_samples[key], change_samples[key],
                                     metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "bound": metric["bound"],
                         "base": quartiles(base_samples[key]),
                         "base_n": len(base_samples[key]),
                         "change": quartiles(change_samples[key]),
                         "change_n": len(change_samples[key]),
                         "delta": delta, "verdict": outcome})
    base_failed, change_failed = failures(base), failures(change)
    for workload, (failed, attempted) in change_failed.items():
        before = base_failed.get(workload, (0, 0))
        rows.append({"workload": workload, "metric": "ops_failed",
                     "unit": "count", "bound": 0.0,
                     "base": (before[0],) * 3, "base_n": before[1],
                     "change": (failed,) * 3, "change_n": attempted,
                     "delta": float(failed - before[0]),
                     "verdict": "worse" if failed > before[0] else "same"})
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<22} {'metric':<13} "
             f"{'base median [q1, q3] n':<38} "
             f"{'change median [q1, q3] n':<38} "
             f"{'change/base-1':>13} {'bound':>6}  verdict"]
    for row in rows:
        def side(stats, count):
            low, mid, high = stats
            return f"{mid:.5g} [{low:.5g}, {high:.5g}] n={count}"
        delta = (f"{row['delta']:+.0f}" if row["metric"] == "ops_failed"
                 else f"{100 * row['delta']:+.1f}%")
        lines.append(
            f"{row['workload']:<22} {row['metric']:<13} "
            f"{side(row['base'], row['base_n']):<38} "
            f"{side(row['change'], row['change_n']):<38} "
            f"{delta:>13} {row['bound']:>6}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv)
    for path, report in zip(argv, (base, change)):
        if not report.get("comparable", False):
            print(f"{path} is a smoke run: not comparable",
                  file=sys.stderr)
            return 2
    rows = compare(base, change, json.loads(CONTRACT.read_text()))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
