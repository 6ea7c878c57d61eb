"""The repo's benchmark: one command, every metric by name.

Two ways in, one measuring path:

* **One run** (what the benchmark driver calls)::

      python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

  measures workload ``W`` for ``S`` seconds in fresh child processes,
  checks the outputs, and prints one JSON object as its last line: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1`` (names, units, direction and bounds are those of
  ``BENCHMARK.json``).

* **The suite** (what a person runs; ``python -m bench.run`` works too)::

      python3 bench/run.py [--seed 0] [--repeats 5] [--traced] [--probes]
                           [--out FILE] [--smoke] [--write-expected]

  runs every workload ``--repeats`` times as above (run *i* with seed
  ``seed + i``; workload order shuffled by the seed and reversed on
  alternate repeat-sets), prints a table, and writes every run to
  ``--out`` for ``bench/compare.py``.

All times are host time; every simulated statistic is checked exactly
against ``bench/expected/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT_DIR = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = ROOT_DIR / "BENCHMARK.json"
SCRATCH_ROOT = ROOT_DIR / ".bench_scratch"

UNTRACED_CHILDREN = 3
"""Fresh processes per untraced run: three set-ups to take a median of."""

CHILD_TIMEOUT_S = 150
PROBES_TIMEOUT_S = 900


def load_contract() -> dict:
    return json.loads(CONTRACT.read_text())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def _script(name: str, arguments: List[str],
            timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one of the benchmark's scripts in a fresh interpreter, to
    completion, and parse the report on its last line."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / name), *arguments], cwd=ROOT_DIR,
        capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{name} {' '.join(arguments)}: exited "
                           f"{done.returncode}\n"
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child(workload: str, seed: int, seconds: float, traced: bool,
           smoke: bool, extra: Optional[List[str]] = None) -> dict:
    arguments = ["--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--traced", str(int(traced))]
    if smoke:
        arguments.append("--smoke")
    return _script("child.py", arguments + (extra or []))


def _rates(children: List[dict]) -> List[float]:
    return [events / wall for child in children
            for events, wall in zip(child["events"], child["walls"])]


def one_run(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False,
            spans_out: Optional[str] = None) -> dict:
    """Measure one workload once; the driver-protocol result object."""
    contract = load_contract()
    if trace:
        # Half the time untraced, half traced, in that order: the ratio
        # of the two medians is what tracing costs.
        plain = _child(workload, seed, seconds / 2, False, smoke)
        traced = _child(workload, seed, seconds / 2, True, smoke,
                        ["--spans-out", spans_out] if spans_out else None)
        children = [plain, traced]
        values = dict(traced["layers"])
        values.update(plain["extras"])
        values.update(traced["extras"])
        values["trace_overhead_ratio"] = (
            statistics.median(traced["walls"])
            / statistics.median(plain["walls"]))
        values["harness.wall_raw_s"] = statistics.median(
            plain["raw_walls"])
        values["harness.host_speed_ratio"] = plain["host_speed"]
        wanted = contract["per_layer"]
        problems = traced["span_problems"]
    else:
        children = [_child(workload, seed, seconds / UNTRACED_CHILDREN,
                           False, smoke)
                    for _ in range(UNTRACED_CHILDREN)]
        walls = [wall for child in children for wall in child["walls"]]
        values = {
            "setup_s": statistics.median(
                child["setup_s"] for child in children),
            "wall_s": statistics.median(walls),
            "events_per_s": statistics.median(_rates(children)),
            "peak_rss_mb": statistics.median(
                child["peak_rss_mb"] for child in children),
        }
        wanted = contract["end_to_end"]
        problems = []
    attempted = sum(child["ops"] for child in children)
    failed = sum(child["failed"] for child in children)
    metrics = {}
    for metric in wanted:
        # A layer the workload never enters reports 0.
        value = values.get(metric["name"], 0.0) if trace \
            else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            # commentary for the suite; the driver reads the four above
            "_passes": sum(len(child["walls"]) for child in children),
            "_backend": children[0]["backend"],
            "_span_problems": problems}


def _protocol(result: dict) -> dict:
    """The driver's four keys, without the suite's commentary."""
    return {key: value for key, value in result.items()
            if not key.startswith("_")}


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT_DIR,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(backend: dict) -> dict:
    """Where the numbers came from."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": backend.get("numpy_version"),
        "native": backend.get("native_version"),
        "backend": backend,
        "git_commit": _git_commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _print_run(workload: str, label: str, result: dict) -> None:
    verdict = "ok" if result["correct"] else "WRONG"
    print(f"{workload} [{label}] {verdict}: ops={result['attempted']} "
          f"failed={result['failed']} passes={result['_passes']}")
    for name, metric in result["metrics"].items():
        print(f"    {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["_span_problems"]:
        print(f"    span problem: {problem}")
    sys.stdout.flush()


def suite(args) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    seconds = args.seconds or contract["run_seconds"]

    if args.write_expected:
        for name in names:
            print(_child(name, args.seed, 0, False, False,
                         ["--write-expected"]))
        return 0

    order = list(names)
    random.Random(args.seed).shuffle(order)
    runs = []
    backend = {}
    wrong = 0
    for repeat in range(args.repeats):
        for name in (order if repeat % 2 == 0 else reversed(order)):
            result = one_run(name, args.seed + repeat, seconds, False,
                             args.smoke)
            _print_run(name, f"repeat {repeat}", result)
            backend = result["_backend"]
            wrong += not result["correct"]
            runs.append({"workload": name, "trace": 0, "repeat": repeat,
                         "seed": args.seed + repeat,
                         "result": _protocol(result)})
    if args.traced:
        for name in order:
            result = one_run(name, args.seed, seconds, True, args.smoke)
            _print_run(name, "traced", result)
            backend = result["_backend"]
            wrong += not result["correct"]
            runs.append({"workload": name, "trace": 1, "repeat": 0,
                         "seed": args.seed,
                         "result": _protocol(result)})
    report = {
        "schema": 1,
        # Smoke runs use tiny kernels and two passes: never compare them.
        "comparable": not args.smoke,
        "seed": args.seed,
        "run_seconds": seconds,
        "environment": environment(backend),
        "runs": runs,
    }
    if args.probes:
        report["probes"] = _script("probes.py",
                                   ["--smoke"] if args.smoke else [],
                                   timeout=PROBES_TIMEOUT_S)
        for name, metric in report["probes"].items():
            print(f"    {name:<44} {metric['value']:>16.6g} "
                  f"{metric['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure this one workload and "
                        "print the driver-protocol result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: untraced runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one traced run per workload")
    parser.add_argument("--probes", action="store_true",
                        help="suite: add the direct layer probes")
    parser.add_argument("--out", help="suite: write every run here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny kernels, two passes; not comparable")
    parser.add_argument("--write-expected", action="store_true",
                        help="suite: regenerate bench/expected/")
    parser.add_argument("--spans-out", help="one traced run: dump spans")
    args = parser.parse_args(argv)

    if not (ROOT_DIR / "src" / "repro").is_dir():
        print(f"bench: no simulator source under {ROOT_DIR / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return suite(args)
        contract = load_contract()
        result = one_run(args.workload, args.seed,
                         args.seconds or contract["run_seconds"],
                         bool(args.trace), args.smoke, args.spans_out)
        _print_run(args.workload, f"trace {args.trace}", result)
        print(json.dumps(_protocol(result)))
        return 0
    finally:
        # Children remove their own scratch directories; drop the parent
        # once it is empty (another run may still be using it).
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
