"""Multi-configuration replay: every SCC size in one pass over a tape.

A sweep row replays the same recorded stream once per rung of the SCC
ladder (:mod:`repro.trace.record`), even though the rungs differ only in
cache capacity.  For bit-selected direct-mapped caches fed one access
sequence the rungs are not independent -- a line resident in the smaller
cache is resident in every larger one (the *inclusion* property of
Mattson's stack techniques) -- and a single-process tape guarantees that
every size sees the same sequence.  So one pass can keep per-size
tag/state arrays side by side and answer most references with *one* tag
probe against the smallest size.

Contract: :func:`fused_ladder_results` returns statistics bit-identical
to running :class:`~repro.trace.record.ReplayApplication` once per
configuration -- pinned by the equivalence suite -- and raises what that
per-size replay raises, at roughly the cost of a single replay.  The
pass is the native extension's (``ladder`` in ``engine/_native.c``):
to C each rung is a one-cluster machine, planned and settled as a run's
machine is, whose misses run the code a run's misses run.  Why its
shortcuts -- inclusion, state monotonicity, quiet windows, no bank
conflicts -- are exact is told once, in DESIGN.md section 11.  On the
reference loop (``backend="python"``) :func:`fused_ladder_results` *is*
that per-size replay.

Applicability is decided here, by :func:`fused_replay_ok` and
:func:`fused_ladder_supported`: single process, shared-SCC snoopy
machine, direct-mapped power-of-two geometry, write buffering enabled,
single-cycle banks, and configurations differing *only* in
``scc_size``.  Everything else falls back to per-size replay in the
sweep driver.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import native as native_backend, resolve_backend
from .interleave import DeadlockError, SyncProtocolError
from .record import ReplayApplication
from ..core.config import SystemConfig
from ..core.system import MultiprocessorSystem

__all__ = ["fused_replay_ok", "fused_ladder_supported",
           "fused_ladder_results"]


def fused_replay_ok(config) -> bool:
    """Whether one recorded tape on ``config`` can drive the fused pass.

    Stricter than the interleaver's own ``_native_eligible``: the pass
    inlines the single-process scheduling loop, so it needs exactly one
    processor (interleave order is then configuration-independent and
    the size-ladder inclusion argument holds), the plain shared-SCC
    snoopy machine, direct-mapped power-of-two geometry, write buffering
    enabled (``stall_on_writes`` changes the write path shape), and
    ``bank_cycle_time == 1`` (a single processor then provably never
    conflicts on a bank, so the pass can skip bank arbitration).
    """
    lines = config.scc_lines
    if not (config.total_processors == 1
            and config.cluster_organization == "shared-scc"
            and config.inter_cluster == "snoopy-bus"
            and config.associativity == 1
            and config.bank_cycle_time == 1
            and not config.stall_on_writes
            and lines > 1 and lines & (lines - 1) == 0):
        return False
    if config.model_icache:
        line = config.icache_line_size
        ic_lines = config.icache_size // line
        if (line < 1 or line & (line - 1)
                or ic_lines < 2 or ic_lines & (ic_lines - 1)):
            return False
    return True


def fused_ladder_supported(configs: Sequence[SystemConfig]) -> bool:
    """Whether ``configs`` form a ladder the fused engine replays exactly.

    Requirements: at least two configurations, each individually on the
    fused single-process machine (:func:`fused_replay_ok`), pairwise distinct
    SCC sizes, and no difference between configurations other than
    ``scc_size`` (timing parameters, protocol, icache geometry and all
    other knobs must match, or the shared clock would be a lie).
    """
    if len(configs) < 2:
        return False
    base = configs[0]
    seen = set()
    for config in configs:
        if config.scc_size in seen:
            return False
        seen.add(config.scc_size)
        if not fused_replay_ok(config):
            return False
        if base.with_updates(scc_size=config.scc_size) != config:
            return False
    return True


def fused_ladder_results(configs: Sequence[SystemConfig],
                         streams: Dict[int, Sequence[int]],
                         check_invariants: bool = True,
                         backend: Optional[str] = None) -> List:
    """Replay one recorded single-process stream on every configuration.

    ``configs`` must satisfy :func:`fused_ladder_supported` (raises
    ``ValueError`` otherwise); ``streams`` is a recording as produced by
    :class:`~repro.trace.record.StreamRecorder` / loaded from the
    :class:`~repro.trace.record.TraceCache` and must contain exactly
    process 0.  Returns one
    :class:`~repro.simulation.SimulationResult` per configuration, in
    input order, bit-identical to what
    :func:`~repro.simulation.run_simulation` of a
    :class:`~repro.trace.record.ReplayApplication` would produce.

    ``backend`` follows the replay-engine precedence (argument ->
    ``$REPRO_ENGINE`` -> ``auto``): a ``native`` resolution runs one
    fused pass through the C extension's ladder entry points; a
    ``python`` resolution *is* that per-size replay, on the reference
    loop.  The choice is execution-only: results are
    bit-identical and the knob never enters spec signatures or cache
    keys.
    """
    from ..simulation import SimulationResult, run_simulation
    if not fused_ladder_supported(configs):
        raise ValueError(
            "configuration ladder is outside the fused replay gate; "
            "use per-size replay")
    if set(streams) != {0}:
        raise ValueError(
            f"recording has processes {sorted(streams)}, "
            f"fused replay needs exactly {{0}}")
    if resolve_backend(backend) != "native":
        replay = ReplayApplication(streams)
        return [run_simulation(config, replay,
                               check_invariants=check_invariants,
                               backend="python")
                for config in configs]
    order = sorted(range(len(configs)),
                   key=lambda position: configs[position].scc_size)
    ladder = [configs[position] for position in order]
    systems = [MultiprocessorSystem(config) for config in ladder]
    events, times = _fused_pass_native(systems, streams[0])
    results: List = [None] * len(configs)
    for rung, position in enumerate(order):
        system = systems[rung]
        if check_invariants:
            system.check_invariants()
        results[position] = SimulationResult(
            config=ladder[rung],
            stats=system.stats(times[rung]),
            events_processed=events,
            instrumentation=None)
    return results


def _fused_pass_native(systems: List[MultiprocessorSystem],
                       data: Sequence[int]) -> Tuple[int, List[int]]:
    """One pass over ``data`` driving every rung at once -- ``systems``,
    smallest SCC first -- through the C extension's ``ladder`` (the
    caller resolved ``native``, so the extension is loaded).

    One ``ladder`` call runs the whole tape, its locks, barriers and
    queue operations included, and raises what per-size replay raises.
    Each rung's plan is :func:`~repro.trace.engine.native
    .machine_plan`'s, and :func:`~repro.trace.engine.native.settle` adds
    what C counted to its system, as after a run.  Returns
    ``(events_processed, per-size finish times)``.

    State: each rung's tag/state arrays and bus clock are its system's
    own, worked on in place; its in-flight fills and write buffers are C
    words for the length of the call (``native.run``'s ownership rule,
    one way).  ``systems`` must be fresh -- the call refuses a rung whose
    ``_inflight`` dict or write-buffer lists hold anything -- and it
    writes both containers before it returns or raises.
    """
    native = native_backend.load()
    plans = tuple(native_backend.machine_plan(system) for system in systems)
    if not (type(data) is array and data.typecode == "q"):
        data = array("q", data)
    native.ladder((plans, (DeadlockError, SyncProtocolError)), data)
    for system, plan in zip(systems, plans):
        native_backend.settle(system, plan)
    misc = [plan[3][-1] for plan in plans]      # events, _, finish, _
    return misc[0][0], [words[2] for words in misc]
