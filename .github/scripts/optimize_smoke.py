#!/usr/bin/env python3
"""Design-space optimizer smoke test (CI gate).

Runs a seeded tiny search on the quick profile against a fresh on-disk
cache, then requires

* the search to terminate inside its per-tier point budgets,
* the frontier to contain (or dominate) every paper Section 5
  recommendation, and the quick-grid best cost/performance design --
  the two-processor / 32 KB cluster -- to be rediscovered,
* a bit-identical frontier from a second run with the same seed, and
* that warm rerun to invoke the full-fidelity simulator zero times
  (counted via a hook): the funnel's cache keys make searches and
  sweeps mutually warm, and
* no counted simulation to carry a probe (a non-``None``
  ``instrumentation``): a sweep point is priced unobserved.

Exits non-zero (with a diagnostic) on any violation.  Stdlib plus the
repo itself, so it runs anywhere the simulator does::

    PYTHONPATH=src python .github/scripts/optimize_smoke.py
"""

import sys
import tempfile
from pathlib import Path

from repro.core.config import KB
from repro.experiments import PROFILES
from repro.experiments.runner import ResultCache
from repro.optimize import (BudgetLedger, DesignSpace, FunnelEvaluator,
                            optimize, render_frontier)
from repro.optimize.space import PAPER_RECOMMENDATIONS, Candidate

BUDGETS = {"analytical": 256, "fused": 96, "full": 32}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def count_simulations() -> list:
    """Route every real simulator invocation through a counter, failing
    on the first one that carries a probe."""
    from repro.experiments import runner
    real, calls = runner.run_simulation, []

    def counted(config, application, **kwargs):
        if kwargs.get("instrumentation") is not None:
            fail(f"a simulation on the optimizer's path carries a probe: "
                 f"{type(kwargs['instrumentation']).__name__} on "
                 f"{type(application).__name__}")
        calls.append(type(application).__name__)
        return real(config, application, **kwargs)

    runner.run_simulation = counted
    return calls


def run_search(profile, tmp: Path):
    from repro.trace.record import TraceCache
    space = DesignSpace(profile)
    evaluator = FunnelEvaluator(
        profile, benchmarks=("mp3d",),
        budget=BudgetLedger(dict(BUDGETS)),
        cache=ResultCache(tmp / "results"),
        trace_cache=TraceCache(tmp / "traces"),
        session_dir=tmp / "sessions")
    result = optimize(space, evaluator, seed=0, generations=2,
                      population_size=8, promote=3)
    return result


def frontier_key(result):
    return tuple((p.evaluation.candidate,
                  round(p.evaluation.mean_normalized_time, 12),
                  round(p.evaluation.cost_performance, 12))
                 for p in result.frontier)


def main() -> None:
    profile = PROFILES["quick"]
    calls = count_simulations()

    with tempfile.TemporaryDirectory(prefix="optimize-smoke-") as tmp:
        cold = run_search(profile, Path(tmp))
        cold_calls = len(calls)
        print(render_frontier(cold))
        print(f"\ncold run: {cold_calls} simulator call(s)")

        if cold.stopped_early:
            fail("search did not terminate inside its tier budgets")
        for tier, cap in BUDGETS.items():
            spent = cold.budget[tier]["spent"]
            if spent > cap:
                fail(f"{tier} tier overspent: {spent} > {cap}")

        if not cold.rediscovers_paper():
            fail("frontier neither contains nor dominates the paper's "
                 "Section 5 recommendations")
        priced = {v.candidate for v in cold.verdicts}
        if priced != set(PAPER_RECOMMENDATIONS):
            fail(f"not every recommendation was priced: {priced}")

        best = cold.best
        if best is None:
            fail("search returned no exact evaluations")
        # The quick grid's best paper-plane cost/perf point: the
        # two-processor / 32 KB single-chip cluster must not be beaten
        # by either pure-plane paper design.
        two_p = next(v.evaluation for v in cold.verdicts
                     if v.candidate == Candidate(2, 32 * KB))
        for verdict in cold.verdicts:
            if verdict.candidate == Candidate(2, 32 * KB):
                continue
            if verdict.evaluation.cost_performance \
                    < two_p.cost_performance:
                fail(f"{verdict.candidate.label()} beat the quick "
                     f"grid's best paper design 2p/32KB on "
                     f"cost/performance")

        # Same seed, warm cache: identical frontier, zero simulations.
        calls.clear()
        warm = run_search(profile, Path(tmp))
        if frontier_key(warm) != frontier_key(cold):
            fail("same seed produced a different frontier on rerun")
        if calls:
            fail(f"warm rerun invoked the simulator {len(calls)} "
                 f"time(s): {calls[:5]}")
        print("warm rerun: identical frontier, 0 simulator calls")

    print("OK: seeded search under budget, paper designs rediscovered, "
          "deterministic and cache-warm")


if __name__ == "__main__":
    main()
