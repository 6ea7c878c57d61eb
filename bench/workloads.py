"""The benchmark's workloads.

Every workload prices part of one of the paper's design-space surfaces
through the same public entry points a user calls (``run_sweep``, a
``SweepClient`` against a live fabric service, ``optimize``), on the
``quick`` profile.  A *pass* is one such call on cold scratch state; the
harness (``bench/child.py``) repeats passes for the measuring time and
reports the median pass.

Grids are cut from the paper's so that a pass costs one to six seconds:
the driver's budget is roughly fifteen seconds per run, and a median
needs several passes.  The rows kept are the ones the layer under test
treats differently (see each ``why``).

Simulated caches start empty at every point.  The sweep inputs are the
paper's fixed seeded kernels -- ``ExperimentProfile`` has no seed field
-- so ``--seed`` cannot change what is simulated, only the order specs
are issued in within a pass; simulated statistics must therefore repeat
exactly, and every pass is checked against ``bench/expected/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional

from repro.core.config import KB
from repro.experiments.runner import ResultCache, RunStats
from repro.experiments.session import SweepSession
from repro.experiments.spec import (PAPER_LADDER, PROCS_SWEPT, PROFILES,
                                    ExperimentProfile, SweepSpec)
from repro.fabric.wire import point_label
from repro.trace.record import TraceCache

__all__ = ["WORKLOADS", "Context", "Outcome", "Workload", "fingerprint",
           "mismatches"]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SMOKE_PROFILE = ExperimentProfile(
    name="bench-smoke", ladder_scale=8,
    barnes_bodies=32, barnes_steps=1,
    mp3d_particles=64, mp3d_steps=1,
    cholesky_n=64,
    multiprog_instructions=4_000, multiprog_quantum=2_000)
"""Tiny kernels for ``--smoke``: exercises every code path of the
harness in seconds; its numbers are not comparable with anything."""

TWO_RUNGS = (8 * KB, 128 * KB)
"""The small and the large end of the SCC ladder: what ``--smoke`` sweeps
and what the cut-down grids keep of each row."""


def fingerprint(stats: RunStats) -> str:
    """sha256 of the simulated statistics of one point (the observability
    digest is host-side bookkeeping and stays out)."""
    payload = stats.as_dict()
    payload.pop("instrument", None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def mismatches(observed: Dict[str, object],
               reference: Dict[str, object]) -> int:
    """How many named outputs differ from (or are missing in) a reference."""
    return sum(1 for name, value in observed.items()
               if reference.get(name) != value)


def sweep_fingerprints(sweep, prefix: str = "") -> Dict[str, str]:
    return {prefix + point_label(point): fingerprint(stats)
            for point, stats in sorted(sweep.items())}


def sweep_events(sweep) -> int:
    return sum(stats.events for stats in sweep.values())


@dataclass
class Context:
    """What the harness hands a workload."""

    scratch: Path
    seed: int
    smoke: bool
    timed: Callable[[], ContextManager]
    """``with ctx.timed():`` brackets the timed region of a pass."""

    _dirs: int = 0

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    @property
    def profile(self) -> ExperimentProfile:
        return SMOKE_PROFILE if self.smoke else PROFILES["quick"]

    def fresh_dir(self) -> Path:
        """A new empty directory under the scratch root."""
        self._dirs += 1
        path = self.scratch / f"d{self._dirs:05d}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one pass produced, for checking and for the rates."""

    observed: Dict[str, object]
    """Named outputs; each name is one *op*, compared with the expected
    file (or, where there is none, with the child's first pass)."""

    events: int
    """Simulated events the pass priced (sum of ``RunStats.events``)."""

    raised: int = 0
    """Ops that raised, were quarantined or timed out, beyond the names
    in ``observed``."""

    ops: Optional[int] = None
    """Ops attempted, where that is not one per observed name."""

    extras: Dict[str, float] = field(default_factory=dict)
    """Per-layer numbers only the workload can see (exact counts)."""


class Workload:
    name = ""
    why = ""
    smoke_passes = 2
    expected_name = ""
    """Stem of the file under ``bench/expected/`` (default: ``name``)."""

    def setup(self, ctx: Context) -> None:
        """Untimed priming; its cost is part of ``setup_s``."""

    def one_pass(self, ctx: Context) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever ``setup`` started."""

    # -- checking ------------------------------------------------------

    def expected_path(self) -> Path:
        return EXPECTED_DIR / f"{self.expected_name or self.name}.json"

    def expected(self) -> Optional[Dict[str, object]]:
        """The committed outputs (``None`` if the file is missing)."""
        path = self.expected_path()
        return json.loads(path.read_text()) if path.is_file() else None

    def failed_ops(self, outcome: Outcome,
                   reference: Dict[str, object]) -> int:
        return outcome.raised + mismatches(outcome.observed, reference)

    def write_expected(self, ctx: Context) -> Dict[str, object]:
        """The payload ``--write-expected`` commits for this workload."""
        return self.one_pass(ctx).observed

    def summarise(self, walls: List[float]) -> Dict[str, float]:
        """Per-layer numbers derived from the untraced pass times."""
        return {}


def _run_session(spec: SweepSpec, root: Path, trace_cache: TraceCache):
    """One journaled sweep on a fresh result cache; quarantined points
    come back counted instead of raised."""
    session = SweepSession(spec, cache=ResultCache(root / "results"),
                           trace_cache=trace_cache,
                           session_dir=root / "sessions")
    return session.run()


# ----------------------------------------------------------------------
# Figure 2 (Barnes-Hut): the live path, and the analytical model
# ----------------------------------------------------------------------

class Fig2Cold(Workload):
    name = "fig2_cold"
    why = ("Barnes-Hut rows 2p and 8p x 8KB/128KB of the quick Figure-2 "
           "grid on an empty store: every point re-runs the python "
           "generators live, so workloads/interleave/core do the work")

    @staticmethod
    def spec(ctx: Context, procs=(2, 8), ladder=TWO_RUNGS,
             **knobs) -> SweepSpec:
        return SweepSpec.parallel(
            "barnes-hut", profile=ctx.profile, instrument=False,
            procs=(2,) if ctx.smoke else procs,
            ladder=TWO_RUNGS if ctx.smoke else ladder, **knobs)

    def one_pass(self, ctx: Context) -> Outcome:
        root = ctx.fresh_dir()
        spec = self.spec(ctx)
        traces = TraceCache(root / "traces")
        with ctx.timed():
            result = _run_session(spec, root, traces)
        return Outcome(sweep_fingerprints(result.sweep),
                       sweep_events(result.sweep),
                       raised=len(result.quarantined))

    def failed_ops(self, outcome, reference) -> int:
        # The expected file is the whole quick Figure-2 grid (it is also
        # fig2_analytical's accuracy reference); a pass prices part of it.
        shas = {label: entry["sha"] if isinstance(entry, dict) else entry
                for label, entry in reference.items()}
        return super().failed_ops(outcome, shas)

    def write_expected(self, ctx: Context) -> Dict[str, object]:
        spec = self.spec(ctx, procs=PROCS_SWEPT, ladder=PAPER_LADDER)
        root = ctx.fresh_dir()
        sweep = _run_session(spec, root, TraceCache(root / "traces")).sweep
        return {point_label(point): {
                    "sha": fingerprint(stats),
                    "miss_rate": stats.miss_rate,
                    "execution_time": stats.execution_time}
                for point, stats in sorted(sweep.items())}


class Fig2Analytical(Workload):
    name = "fig2_analytical"
    why = ("the 8p Barnes-Hut row x all 8 SCC sizes at "
           "fidelity=analytical on empty caches: repro.model does the "
           "work (one recording, build_row_profile, predict_point); the "
           "workload whose accuracy is scored")

    def setup(self, ctx: Context) -> None:
        self.spec = Fig2Cold.spec(ctx, procs=(8,), ladder=PAPER_LADDER,
                                  fidelity="analytical")
        if ctx.smoke:
            # No committed reference for the tiny kernels: simulate one.
            exact = Fig2Cold.spec(ctx)
            root = ctx.fresh_dir()
            sweep = _run_session(exact, root,
                                 TraceCache(root / "traces")).sweep
            self.reference = {point_label(point): stats.miss_rate
                              for point, stats in sweep.items()}
        else:
            grid = Fig2Cold().expected() or {}
            self.reference = {label: entry["miss_rate"]
                              for label, entry in grid.items()}

    def one_pass(self, ctx: Context) -> Outcome:
        root = ctx.fresh_dir()
        traces = TraceCache(root / "traces")
        with ctx.timed():
            result = _run_session(self.spec, root, traces)
        errors = [abs(stats.miss_rate
                      - self.reference.get(point_label(point), 0.0))
                  for point, stats in result.sweep.items()]
        mae = statistics.fmean(errors) if errors else 0.0
        return Outcome(sweep_fingerprints(result.sweep),
                       sweep_events(result.sweep),
                       raised=len(result.quarantined),
                       extras={"model.miss_ratio_mae": mae})

    def failed_ops(self, outcome, reference) -> int:
        # Predictions are not pinned point by point -- a better model is
        # allowed to change them -- but they may not get *less* accurate
        # than the committed ceiling, and they must repeat within a run
        # (the child compares every pass with its first).
        ceiling = reference.get("mae_ceiling")
        if ceiling is None:
            return super().failed_ops(outcome, reference)
        if outcome.extras["model.miss_ratio_mae"] > ceiling:
            return outcome.raised + len(outcome.observed)
        return outcome.raised

    def write_expected(self, ctx: Context) -> Dict[str, object]:
        outcome = self.one_pass(ctx)
        return {"mae_ceiling": outcome.extras["model.miss_ratio_mae"],
                "points": len(outcome.observed)}


# ----------------------------------------------------------------------
# The uniprocessor multiprogramming ladder: replay, and replay observed
# ----------------------------------------------------------------------

class UniLadderWarm(Workload):
    name = "uni_ladder_warm"
    why = ("multiprogramming procs=1 x 8 sizes x 4 machine variants on a "
           "recorded tape: no generator work, so tape decode, the fused "
           "native ladder, result writes and the journal dominate; "
           "bypasses the generators")
    variants = ((), (("protocol", "mesi"),),
                (("write_buffer_depth", 2),),
                (("banks_per_processor", 2),))

    def _specs(self, ctx: Context, instrument: bool, ladder):
        return [SweepSpec.multiprogramming(
                    profile=ctx.profile, procs=(1,), ladder=ladder,
                    instrument=instrument, variants=variants)
                for variants in self.variants]

    def setup(self, ctx: Context) -> None:
        self.specs = self._specs(
            ctx, False, TWO_RUNGS if ctx.smoke else PAPER_LADDER)
        self.traces = TraceCache(ctx.fresh_dir())
        # Record the tape (and warm every code path) before timing.
        _run_session(self.specs[0], ctx.fresh_dir(), self.traces)

    def one_pass(self, ctx: Context) -> Outcome:
        order = list(range(len(self.specs)))
        ctx.rng.shuffle(order)
        roots = [ctx.fresh_dir() for _ in order]
        observed: Dict[str, object] = {}
        events = raised = 0
        with ctx.timed():
            results = [(index, _run_session(self.specs[index], root,
                                            self.traces))
                       for index, root in zip(order, roots)]
        for index, result in results:
            observed.update(sweep_fingerprints(result.sweep, f"v{index}:"))
            events += sweep_events(result.sweep)
            raised += len(result.quarantined)
        return Outcome(observed, events, raised=raised)


class UniInstrumentedWarm(UniLadderWarm):
    name = "uni_instrumented_warm"
    why = ("the same tape with instrument=True (the CLI default) at "
           "32KB: a probe drops replay to the generic python loop over "
           "repro.core objects; fast-path-only work that costs the "
           "reference loop shows here")
    variants = ((),)

    def setup(self, ctx: Context) -> None:
        ladder = TWO_RUNGS if ctx.smoke else (32 * KB,)
        self.specs = self._specs(ctx, True, ladder)
        self.traces = TraceCache(ctx.fresh_dir())
        # Record the tape on the fast path; only timed passes are probed.
        _run_session(self._specs(ctx, False, ladder)[0], ctx.fresh_dir(),
                     self.traces)


# ----------------------------------------------------------------------
# Figure 3 (MP3D) through a real fabric service
# ----------------------------------------------------------------------

class _Fabric:
    """One service thread, one worker thread, one HTTP client over an
    on-disk store -- the whole fabric, at the smallest load shape."""

    def __init__(self, directory: Path):
        from repro.fabric import (ArtifactStore, Broker, SweepClient,
                                  Worker, start_in_thread)
        self.broker = Broker(ArtifactStore(directory))
        self.url, self._stop_service = start_in_thread(self.broker)
        self._halt = threading.Event()
        worker = Worker(self.broker, worker_id="bench-worker")
        self._thread = threading.Thread(
            target=worker.run, kwargs={"stop": self._halt},
            name="bench-worker", daemon=True)
        self._thread.start()
        self.client = SweepClient.connect(self.url)

    def close(self) -> None:
        self._halt.set()
        self._thread.join(timeout=10.0)
        self._stop_service()


class FabricCold(Workload):
    name = "fabric_cold"
    why = ("one cold submit->result of MP3D (4 rows x 8KB/128KB) "
           "through FabricService + one Worker over HTTP on an empty "
           "store: simulation plus lease/publish/HTTP overhead on a "
           "second paper application")
    expected_name = "fabric_fig3"

    def spec(self, ctx: Context) -> SweepSpec:
        # Uninstrumented, so that what differs from fig2_cold is the
        # fabric and the application, not the probe (the instrumented
        # loop has uni_instrumented_warm and optimize_seed0).
        return SweepSpec.parallel("mp3d", profile=ctx.profile,
                                  ladder=TWO_RUNGS, instrument=False)

    def one_pass(self, ctx: Context) -> Outcome:
        spec = self.spec(ctx)
        fabric = _Fabric(ctx.fresh_dir())
        try:
            with ctx.timed():
                sweep = fabric.client.result(fabric.client.submit(spec))
        finally:
            fabric.close()
        return Outcome(sweep_fingerprints(sweep), sweep_events(sweep))


class FabricWarm(FabricCold):
    name = "fabric_warm"
    why = ("the same spec against the now-warm store, one closed-loop "
           "client, one request per pass: pure broker/wire/HTTP/"
           "store-read cost with zero simulator work")
    smoke_passes = 20

    def setup(self, ctx: Context) -> None:
        self._spec = self.spec(ctx)
        self.fabric = _Fabric(ctx.fresh_dir())
        client = self.fabric.client
        client.result(client.submit(self._spec))      # warms the store

    def teardown(self) -> None:
        self.fabric.close()

    def one_pass(self, ctx: Context) -> Outcome:
        client = self.fabric.client
        with ctx.timed():
            handle = client.submit(self._spec)
            sweep = client.result(handle)
        # A request that had to dispatch work was not served warm.
        return Outcome(sweep_fingerprints(sweep), sweep_events(sweep),
                       raised=int(handle.store_hits != handle.total))

    def summarise(self, walls: List[float]) -> Dict[str, float]:
        ordered = sorted(walls)
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        return {"fabric.request_p50_ms": 1e3 * statistics.median(ordered),
                "fabric.request_p95_ms": 1e3 * p95,
                "fabric.requests_per_s": len(ordered) / sum(ordered)}


# ----------------------------------------------------------------------
# The design-space optimizer
# ----------------------------------------------------------------------

class OptimizeSeed0(Workload):
    name = "optimize_seed0"
    why = ("optimize(DesignSpace(quick)) on MP3D, 2 generations of 4, GA "
           "seed 0, empty store: the only caller pricing assoc/"
           "MESI/buffer variants, via the funnel's fused and full tiers "
           "(instrumented live runs)")
    ga_seed = 0
    """Pinned: the candidates a search prices -- and so its cost, by some
    20% between seeds -- follow the GA seed, and runs with different
    ``--seed`` must do the same work to be comparable."""

    budgets = {"analytical": 256, "fused": 96, "full": 32}

    def one_pass(self, ctx: Context) -> Outcome:
        import repro.optimize as search
        root = ctx.fresh_dir()
        results = ResultCache(root / "results")
        evaluator = search.FunnelEvaluator(
            ctx.profile, benchmarks=("mp3d",),
            budget=search.BudgetLedger(dict(self.budgets)),
            cache=results, trace_cache=TraceCache(root / "traces"),
            session_dir=root / "sessions")
        shape = (dict(generations=1, population_size=4, promote=1)
                 if ctx.smoke else
                 dict(generations=2, population_size=4, promote=2))
        with ctx.timed():
            # Through the module attribute, so the traced pass sees it.
            found = search.optimize(search.DesignSpace(ctx.profile),
                                    evaluator, seed=self.ga_seed, **shape)
        spent = {tier: entry["spent"]
                 for tier, entry in found.budget.items()}
        observed = {
            "frontier": [[point.evaluation.candidate.label(),
                          round(point.evaluation.mean_normalized_time, 12),
                          round(point.evaluation.cost_performance, 12)]
                         for point in found.frontier],
            "rediscovers_paper": found.rediscovers_paper(),
            "stopped_early": found.stopped_early,
        }
        observed.update({f"spent_{tier}": count
                         for tier, count in spent.items()})
        # Every distinct point the search priced is one file in the
        # (initially empty) result cache.
        events = sum(json.loads(path.read_text())["events"]
                     for path in results.directory.glob("*.json"))
        return Outcome(observed, events, ops=sum(spent.values()),
                       extras={f"optimize.points_{tier}": count
                               for tier, count in spent.items()})

    def failed_ops(self, outcome, reference) -> int:
        # Ops are candidate tier-evaluations; a frontier or a bill that
        # differs from the expected one discredits all of them.
        return outcome.ops if super().failed_ops(outcome, reference) else 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Fig2Cold(), Fig2Analytical(), UniLadderWarm(),
        UniInstrumentedWarm(), FabricCold(), FabricWarm(),
        OptimizeSeed0())}
