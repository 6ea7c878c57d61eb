"""Multi-configuration replay: every SCC size in one pass over a tape.

A sweep row replays the same recorded stream once per rung of the SCC
ladder (:mod:`repro.trace.record`), even though the rungs differ only in
cache capacity.  For bit-selected direct-mapped caches the rungs are not
independent: with power-of-two line counts the set index for size
``2^k`` is a masked prefix of the index for ``2^(k+1)``, which gives the
ladder the classic *inclusion* property of multi-configuration cache
simulation (Mattson's stack techniques and their modern reuse-distance
descendants): **a line resident in the smaller cache is resident in
every larger one**, provided all sizes observe the same access sequence.
A single-process tape guarantees exactly that -- there is no
configuration-dependent interleaving to diverge -- so one pass can keep
per-size tag/state arrays for the whole ladder side by side and answer
most references with *one* tag probe (against the smallest size; a hit
there is a hit everywhere).

The engine behind :func:`fused_ladder_results` (the ``ladder_*`` entry
points of the native extension, ``engine/_native.c``) is exact, not
approximate: every size carries independent timing state (bus
occupancy, write buffers, in-flight fills, icache refill stalls)
expressed as a *skew* against a shared base clock, and events that
could perturb a size's timing (misses, upgrades, live write-buffer or
fill windows) are replayed inline for that size.  To C each rung is a
one-cluster machine -- its system's own SCC arrays and bus clock, worked
on in place -- and a rung's miss, upgrade or icache refill runs the very
code a native run's does; only the shared clock, the skews and the live
windows are the ladder's own.  The result is bit-identical
statistics to running :class:`~repro.trace.record.ReplayApplication`
once per configuration -- pinned by the equivalence suite -- at roughly
the cost of a single replay.  There is one implementation of the pass:
without the extension :func:`fused_ladder_results` *is* that per-size
replay, on the reference loop.

Exactness notes (why the shortcuts are not approximations):

* *Inclusion*: accesses mapping to a set of the larger cache are a
  subset of those mapping to the corresponding set of the smaller one,
  so the line most recently installed in the small set is also the most
  recent in the large superset slot.  Installs happen at every size
  that misses (a prefix of the ladder), and an eviction at a small size
  never outlives the line's copy at a larger size, so the invariant is
  maintained inductively.
* *State monotonicity*: with one cluster there are no remote
  invalidations, so a line MODIFIED at the smallest resident size is
  MODIFIED at every larger size (the write that dirtied it saw the line
  resident there too, by inclusion).  Under MESI a single cluster never
  produces SHARED (read misses install EXCLUSIVE), and the EXCLUSIVE
  sizes form a contiguous band below the MODIFIED ones.  Hence a write
  whose smallest-size state is MODIFIED is a silent hit at every size.
* *Quiet windows*: a size's timing can deviate from ``base + skew``
  bookkeeping only while it has a live in-flight fill (write misses
  store ``inflight[line] = fetch_done`` with the processor released at
  ``start + 1``) or a live write-buffer entry (``retire > complete``).
  Both windows are tracked per size (``fill_live`` / ``wb_live``); a
  size outside both windows processes hits with zero stall, which is
  exactly what the per-size replay would compute, so the shared-clock
  path handles it without touching per-size state.  Skipped
  write-buffer pushes are provably dead (retire <= now at push time)
  and skipped in-flight lookups provably return stale entries, so
  neither can change a later stall.
* *Single process, ``bank_cycle_time == 1``*: successive references are
  at least one cycle apart, so a bank is always free again by the time
  the next access could reach it -- bank conflicts are structurally
  impossible and the engine skips bank arbitration entirely (the gate
  requires ``bank_cycle_time == 1``).

Applicability is decided by :func:`fused_ladder_supported`: single
process, shared-SCC snoopy machine, direct-mapped power-of-two
geometry, write buffering enabled, and configurations differing *only*
in ``scc_size``.  Everything else falls back to per-size replay in the
sweep driver.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import native as native_backend, resolve_backend
from .interleave import DeadlockError, SyncProtocolError, fused_replay_ok
from .packed import (OP_BARRIER, OP_DEQUEUE, OP_ENQUEUE, OP_LOCK_ACQ,
                     OP_LOCK_REL)
from .record import ReplayApplication
from ..core.config import SystemConfig
from ..core.system import MultiprocessorSystem

__all__ = ["fused_ladder_supported", "fused_ladder_results"]


def fused_ladder_supported(configs: Sequence[SystemConfig]) -> bool:
    """Whether ``configs`` form a ladder the fused engine replays exactly.

    Requirements: at least two configurations, each individually on the
    fused single-process machine (see
    :func:`repro.trace.interleave.fused_replay_ok`), pairwise distinct
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
    ``python`` resolution (requested, or the extension is missing or
    disabled via ``REPRO_NATIVE=0``) *is* that per-size replay, on the
    reference loop.  The choice is execution-only: results are
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
    events, times = _fused_pass_native(ladder, systems, streams[0])
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


def _flush_ladder(systems, entries, *, n_reads, n_writes, u_busy,
                  sync_stall, d_stall, d_ic, base, uref, skew, fin, folded,
                  model_icache, ic_misses, ic_fetch_lines, ic_states,
                  ic_tags) -> List[int]:
    """Flush fused-pass deltas into each system; per-size finish times.

    Everything the reference loop would have accumulated as it went and
    C did not write in place (the bus clock is each system's own): the
    SCC rows of ``entries``, the reference counts every rung shares, the
    processor and icache counters, and the icache's final tag/state
    arrays.  Per-size sequences are ``array('q')``.
    """
    busy_total = n_reads + n_writes + u_busy
    references = n_reads + n_writes
    n_sizes = len(systems)
    times = [0] * n_sizes
    for s in range(n_sizes):
        system = systems[s]
        scc = system.clusters[0].scc
        scc.stats.reads += n_reads
        scc.stats.writes += n_writes
        native_backend.settle_scc(scc, entries[s])
        processor = system._procs[0]
        pstats = processor.stats
        pstats.references += references
        pstats.instructions += busy_total
        pstats.busy_cycles += busy_total
        pstats.memory_stall_cycles += d_stall[s]
        pstats.icache_stall_cycles += d_ic[s]
        pstats.sync_stall_cycles += sync_stall
        if uref > folded[s]:
            f = uref + skew[s]
            if f > fin[s]:
                fin[s] = f
        if fin[s] > processor.finish_time:
            processor.finish_time = fin[s]
        if model_icache:
            icache = system.clusters[0].icaches[0]
            icache.misses += ic_misses
            icache.fetch_lines += ic_fetch_lines
            icache.array._states[:] = ic_states
            icache.array._tags[:] = ic_tags
        times[s] = base + skew[s]
    return times


def _fused_pass_native(ladder: List[SystemConfig],
                       systems: List[MultiprocessorSystem],
                       data: Sequence[int]) -> Tuple[int, List[int]]:
    """One pass over ``data`` driving all rungs of ``ladder`` at once,
    through the C extension's ladder entry points (the caller resolved
    ``native``, so the extension is loaded).

    The shared work (opcode decode, smallest-size tag probe, icache
    content) happens once.  Flushes statistics into each system and
    returns ``(events_processed, per-size finish times)``.  Queue, lock
    and barrier opcodes are deferred back here (drain status 2) so their
    error messages and accounting match the reference loop's byte for
    byte.

    State: each rung's tag/state arrays and bus clock are its system's
    own, worked on in place; its in-flight fills and write buffers are C
    words from ``ladder_setup`` to ``ladder_release`` (``native.run``'s
    ownership rule, one way).  ``systems`` must be fresh -- ``ladder_setup``
    refuses a rung whose ``_inflight`` dict or write-buffer lists hold
    anything -- and ``ladder_release``, reached on every path out of the
    pass, writes both containers; nothing may read them in between.
    """
    native = native_backend.load()
    config = ladder[0]
    n_sizes = len(ladder)
    # One cluster cannot lose a line to a remote write: no lost-line set.
    per_size = tuple(
        native_backend.scc_plan(system.clusters[0].scc, system.bus, None)
        for system in systems)
    model_icache = config.model_icache
    if model_icache:
        il_shift = config.icache_line_size.bit_length() - 1
        ic_lines = config.icache_size // config.icache_line_size
        ic_states = array("q", bytes(8 * ic_lines))
        ic_tags = array("q", bytes(8 * ic_lines))
        ic_mask = ic_lines - 1
        ic_shift = ic_lines.bit_length() - 1
        ic_pair = (ic_states, ic_tags)
    else:
        il_shift = ic_shift = ic_mask = 0
        ic_states = ic_tags = []
        ic_pair = ()
    scal = array("q", [
        config.line_offset_bits, config.num_banks,
        config.write_buffer_depth, config.bus_occupancy,
        config.upgrade_bus_occupancy, config.memory_latency,
        1 if config.protocol == "mesi" else 0, config.icache_miss_latency,
        1 if model_icache else 0, il_shift, ic_mask, ic_shift])
    state = tuple(array("q", bytes(8 * n_sizes)) for _ in range(8))
    state[1][:] = array("q", [-1] * n_sizes)        # fin
    skew, fin, folded, _fill_live, _wb_live, _hot, d_stall, d_ic = state
    regs = array("q", [0] * 10)
    if not (type(data) is array and data.typecode == "q"):
        data = array("q", data)
    plan = (per_size, scal, state, ic_pair, regs)
    lock_oh = config.lock_overhead
    barrier_oh = config.barrier_overhead
    sync_stall = 0
    queues: Dict[int, list] = {}
    held_locks: set = set()
    ctx = native.ladder_setup(plan)
    try:
        drain = native.ladder_drain
        while True:
            status = drain(ctx, data)
            if status == 0:
                break
            i = regs[0]
            op = data[i]
            regs[3] += 1                            # ev
            if op == OP_ENQUEUE:
                queues.setdefault(data[i + 1], []).append(data[i + 2])
                i += 3
            elif op == OP_DEQUEUE:
                queue = queues.get(data[i + 1])
                if queue:
                    del queue[0]
                i += 2
            elif op == OP_LOCK_ACQ:
                lock_id = data[i + 1]
                i += 2
                if lock_id in held_locks:
                    raise DeadlockError(
                        f"processes [0] blocked forever "
                        f"(locks={{{lock_id}: 0}})")
                held_locks.add(lock_id)
                regs[6] += lock_oh                  # u_busy
                regs[1] += lock_oh                  # base
            elif op == OP_LOCK_REL:
                lock_id = data[i + 1]
                i += 2
                if lock_id not in held_locks:
                    raise SyncProtocolError(
                        f"process 0 released lock {lock_id} "
                        f"it does not hold")
                held_locks.remove(lock_id)
                regs[6] += lock_oh
                regs[1] += lock_oh
            elif op == OP_BARRIER:
                count = data[i + 2]
                i += 3
                if count < 1:
                    raise SyncProtocolError("barrier count must be >= 1")
                if count > 1:
                    raise DeadlockError(
                        "processes [0] blocked forever (locks={})")
                sync_stall += barrier_oh
                regs[1] += barrier_oh
            else:
                raise ValueError(f"unknown packed opcode {op} at {i}")
            regs[0] = i
    finally:
        native.ladder_release(ctx)
    times = _flush_ladder(
        systems, per_size, n_reads=regs[4], n_writes=regs[5],
        u_busy=regs[6], sync_stall=sync_stall, d_stall=d_stall, d_ic=d_ic,
        base=regs[1], uref=regs[2], skew=skew, fin=fin, folded=folded,
        model_icache=model_icache, ic_misses=regs[8],
        ic_fetch_lines=regs[9], ic_states=ic_states, ic_tags=ic_tags)
    return regs[3], times
