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

The engine in :func:`fused_ladder_results` is exact, not approximate:
every size carries independent timing state (bus occupancy, write
buffers, in-flight fills, icache refill stalls) expressed as a *skew*
against a shared base clock, and events that could perturb a size's
timing (misses, upgrades, live write-buffer or fill windows) are
replayed inline for that size with the same arithmetic as the
interleaver's packed fast path.  The result is bit-identical statistics
to running :class:`~repro.trace.record.ReplayApplication` once per
configuration -- pinned by the equivalence suite -- at roughly the cost
of a single replay.

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
sweep driver.  For parallel workloads (several processes, so interleave
order is configuration-dependent) :func:`per_process_miss_surface`
offers the classic approximation instead: each process's tape evaluated
against the whole ladder at once, producing content-only miss counts
with no timing claims.
"""

from __future__ import annotations

from array import array as _qarray_type
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Sequence, Tuple

from .engine import resolve_backend
from .interleave import DeadlockError, SyncProtocolError, fused_replay_ok
from .packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE, OP_ENQUEUE,
                     OP_IFETCH, OP_LOCK_ACQ, OP_LOCK_REL, OP_READ,
                     OP_READ_SPAN, OP_WRITE, OP_WRITE_SPAN)
from ..core.cache import EXCLUSIVE, MODIFIED, SHARED
from ..core.config import SystemConfig
from ..core.system import MultiprocessorSystem

__all__ = ["fused_ladder_supported", "fused_ladder_results",
           "per_process_miss_surface", "MissSurfacePoint"]

#: Engine that executed the most recent fused pass (``"python"`` or
#: ``"native"``).  Diagnostic only -- read by tests and the bench CLI to
#: assert the compiled ladder actually engaged; never an input.
LAST_LADDER_ENGINE = "python"


def _qarray(values) -> "_qarray_type":
    """Signed-64 array from an iterable (tag-array writeback helper)."""
    return _qarray_type("q", values)


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
                         backend: str = None) -> List:
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
    ``$REPRO_ENGINE`` -> ``auto``): a ``native`` resolution runs the
    pass through the C extension's ladder entry points, degrading to
    the python pass when the extension is missing, disabled via
    ``REPRO_NATIVE=0``, or predates the ladder ABI.  The choice is
    execution-only:
    results are bit-identical across engines and the knob never enters
    spec signatures or cache keys.
    """
    global LAST_LADDER_ENGINE
    from ..simulation import SimulationResult
    if not fused_ladder_supported(configs):
        raise ValueError(
            "configuration ladder is outside the fused replay gate; "
            "use per-size replay")
    if set(streams) != {0}:
        raise ValueError(
            f"recording has processes {sorted(streams)}, "
            f"fused replay needs exactly {{0}}")
    order = sorted(range(len(configs)),
                   key=lambda position: configs[position].scc_size)
    ladder = [configs[position] for position in order]
    systems = [MultiprocessorSystem(config) for config in ladder]
    passed = None
    LAST_LADDER_ENGINE = "python"
    if resolve_backend(backend) == "native":
        passed = _fused_pass_native(ladder, systems, streams[0])
        if passed is not None:
            LAST_LADDER_ENGINE = "native"
    if passed is None:
        passed = _fused_pass(ladder, systems, streams[0])
    events, times = passed
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


def _fused_pass(ladder: List[SystemConfig],
                systems: List[MultiprocessorSystem],
                data: Sequence[int]) -> Tuple[int, List[int]]:
    """One pass over ``data`` driving all rungs of ``ladder`` at once.

    Mirrors ``TimingInterleaver._run_fast`` semantics per size; the
    shared work (opcode decode, smallest-size tag probe, icache content,
    task queues, locks) happens once.  Flushes statistics into each
    system and returns ``(events_processed, per-size finish times)``.
    """
    config = ladder[0]
    n_sizes = len(ladder)
    size_range = range(n_sizes)

    # ---- per-size machine state, indexed by ascending rung -----------
    s_states: List[list] = []
    s_tags: List[list] = []
    s_mask: List[int] = []
    s_shift: List[int] = []
    inflight: List[dict] = []
    wbufs: List[List[list]] = []
    for system in systems:
        scc = system.clusters[0].scc
        array = scc.array
        s_states.append(array._states)
        s_tags.append(array._tags)
        s_mask.append(array._index_mask)
        s_shift.append(array._tag_shift)
        inflight.append(scc._inflight)
        wbufs.append(scc.interconnect._write_buffers)
    skew = [0] * n_sizes          # time_s = base + skew[s]
    fin = [-1] * n_sizes          # completion of s's last data reference
    folded = [0] * n_sizes        # uref value already folded into fin[s]
    fill_live = [0] * n_sizes     # latest write-miss fill arrival
    wb_live = [0] * n_sizes       # latest write-buffer retire pushed
    hot = [False] * n_sizes       # inside a fill/write-buffer window
    hot_n = 0
    bus_busy = [0] * n_sizes
    bus_tx = [0] * n_sizes
    bus_cyc = [0] * n_sizes
    d_rmiss = [0] * n_sizes
    d_wmiss = [0] * n_sizes
    d_upg = [0] * n_sizes
    d_evict = [0] * n_sizes
    d_wb = [0] * n_sizes
    d_wbuf = [0] * n_sizes
    d_bus_wait = [0] * n_sizes
    d_stall = [0] * n_sizes
    d_ic = [0] * n_sizes

    # ---- shared (size-independent) state -----------------------------
    base = 0                      # shared clock component
    uref = 0                      # base right after the last uniform ref
    ev = 0
    n_reads = 0
    n_writes = 0
    u_busy = 0                    # compute + ifetch + lock busy cycles
    sync_stall = 0
    queues: Dict[int, list] = {}
    held_locks: set = set()

    # ---- scalar configuration ----------------------------------------
    line_shift = config.line_offset_bits
    nbanks = config.num_banks
    occ = config.bus_occupancy
    up_occ = config.upgrade_bus_occupancy
    mem_lat = config.memory_latency
    ic_lat = config.icache_miss_latency
    wb_depth = config.write_buffer_depth
    lock_oh = config.lock_overhead
    barrier_oh = config.barrier_overhead
    install_state = EXCLUSIVE if config.protocol == "mesi" else SHARED
    model_icache = config.model_icache

    # Shared icache: geometry is identical across the ladder and the
    # fetch sequence is configuration-independent, so content, misses
    # and fetch_lines are computed once (timing stays per size).
    if model_icache:
        il_shift = config.icache_line_size.bit_length() - 1
        ic_lines = config.icache_size // config.icache_line_size
        ic_states = [0] * ic_lines
        ic_tags = [0] * ic_lines
        ic_mask = ic_lines - 1
        ic_shift = ic_lines.bit_length() - 1
    else:
        il_shift = ic_shift = ic_mask = 0
        ic_states = ic_tags = []
    ic_misses = 0
    ic_fetch_lines = 0

    # Smallest-size locals: the one tag probe most references need.
    states0 = s_states[0]
    tags0 = s_tags[0]
    mask0 = s_mask[0]
    shift0 = s_shift[0]

    def slow_read(line: int) -> None:
        """Per-size processing for a read that is not uniformly quiet."""
        nonlocal hot_n
        s = 0
        tag = 0
        while s < n_sizes:                      # misses: ladder prefix
            states = s_states[s]
            index = line & s_mask[s]
            tag = line >> s_shift[s]
            if states[index] and s_tags[s][index] == tag:
                break
            sk = skew[s]
            t = base + sk
            if uref > folded[s]:
                f = uref + sk
                if f > fin[s]:
                    fin[s] = f
            folded[s] = uref
            d_rmiss[s] += 1
            grant = bus_busy[s]
            if grant < t:
                grant = t
            bus_busy[s] = grant + occ
            bus_tx[s] += 1
            bus_cyc[s] += occ
            d_bus_wait[s] += grant - t
            done = grant + mem_lat
            old = states[index]
            if old:                             # tag differs: eviction
                d_evict[s] += 1
                if old == MODIFIED:
                    # Write-back acquires the bus right behind the
                    # fetch; nobody waits on it.
                    d_wb[s] += 1
                    bus_busy[s] += occ
                    bus_tx[s] += 1
                    bus_cyc[s] += occ
                infl = inflight[s]
                if infl:
                    infl.pop((s_tags[s][index] << s_shift[s]) | index,
                             None)
            s_tags[s][index] = tag
            states[index] = install_state
            # note_fill skipped: a read-miss fill arrives at ``done``
            # and the processor resumes at ``done + 1``, so the entry
            # would be stale for every later event on this size.
            ret = done + 1
            d_stall[s] += ret - t - 1
            fin[s] = ret
            skew[s] = ret - base - 1
            now_hot = fill_live[s] > ret or wb_live[s] > ret
            if now_hot:
                if not hot[s]:
                    hot[s] = True
                    hot_n += 1
            elif hot[s]:
                hot[s] = False
                hot_n -= 1
            s += 1
        if hot_n:                               # hits inside live windows
            while s < n_sizes:
                if hot[s]:
                    sk = skew[s]
                    t = base + sk
                    if uref > folded[s]:
                        f = uref + sk
                        if f > fin[s]:
                            fin[s] = f
                    folded[s] = uref
                    done = t + 1
                    if fill_live[s] > t:
                        infl = inflight[s]
                        ready = infl.get(line)
                        if ready is not None:
                            if ready <= t:
                                del infl[line]
                            else:
                                done = ready + 1
                    d_stall[s] += done - t - 1
                    fin[s] = done
                    skew[s] = done - base - 1
                    if fill_live[s] <= done and wb_live[s] <= done:
                        hot[s] = False
                        hot_n -= 1
                s += 1
        # Quiet resident sizes complete at time_s + 1 with zero stall:
        # covered by the shared counters and the ``uref`` fold.

    def reserve(s: int, bank: int, now: int, retire: int) -> int:
        """``BankInterconnect.reserve_write_slot`` on rung ``s``."""
        buf = wbufs[s][bank]
        while buf and buf[0] <= now:
            heappop(buf)
        stall = 0
        if len(buf) >= wb_depth:
            oldest = heappop(buf)
            if oldest > now:
                stall = oldest - now
        pushed = retire if retire > now + stall else now + stall
        heappush(buf, pushed)
        if pushed > wb_live[s]:
            wb_live[s] = pushed
        return stall

    def slow_write(line: int, bank: int) -> None:
        """Per-size processing for a write that is not uniformly quiet."""
        nonlocal hot_n
        s = 0
        while s < n_sizes:                      # misses: ladder prefix
            states = s_states[s]
            index = line & s_mask[s]
            tag = line >> s_shift[s]
            if states[index] and s_tags[s][index] == tag:
                break
            sk = skew[s]
            t = base + sk
            if uref > folded[s]:
                f = uref + sk
                if f > fin[s]:
                    fin[s] = f
            folded[s] = uref
            d_wmiss[s] += 1
            grant = bus_busy[s]
            if grant < t:
                grant = t
            bus_busy[s] = grant + occ
            bus_tx[s] += 1
            bus_cyc[s] += occ
            d_bus_wait[s] += grant - t
            fetch_done = grant + mem_lat
            old = states[index]
            if old:
                d_evict[s] += 1
                if old == MODIFIED:
                    d_wb[s] += 1
                    bus_busy[s] += occ
                    bus_tx[s] += 1
                    bus_cyc[s] += occ
                infl = inflight[s]
                if infl:
                    infl.pop((s_tags[s][index] << s_shift[s]) | index,
                             None)
            s_tags[s][index] = tag
            states[index] = MODIFIED
            inflight[s][line] = fetch_done      # live fill window
            if fetch_done > fill_live[s]:
                fill_live[s] = fetch_done
            complete = t + 1
            stall = reserve(s, bank, complete, fetch_done)
            d_wbuf[s] += stall
            done = complete + stall
            d_stall[s] += done - t - 1
            fin[s] = done
            skew[s] = done - base - 1
            now_hot = fill_live[s] > done or wb_live[s] > done
            if now_hot:
                if not hot[s]:
                    hot[s] = True
                    hot_n += 1
            elif hot[s]:
                hot[s] = False
                hot_n -= 1
            s += 1
        while s < n_sizes:                      # resident sizes
            states = s_states[s]
            index = line & s_mask[s]
            state = states[index]
            if state == SHARED:
                # Upgrade broadcast (every size holding the line SHARED
                # pays it, exactly as per-size replay would).
                sk = skew[s]
                t = base + sk
                if uref > folded[s]:
                    f = uref + sk
                    if f > fin[s]:
                        fin[s] = f
                folded[s] = uref
                d_upg[s] += 1
                grant = bus_busy[s]
                if grant < t:
                    grant = t
                bus_busy[s] = grant + up_occ
                bus_tx[s] += 1
                bus_cyc[s] += up_occ
                states[index] = MODIFIED
                complete = t + 1
                stall = reserve(s, bank, complete, grant + up_occ)
                d_wbuf[s] += stall
                done = complete + stall
                d_stall[s] += done - t - 1
                fin[s] = done
                skew[s] = done - base - 1
                now_hot = fill_live[s] > done or wb_live[s] > done
                if now_hot:
                    if not hot[s]:
                        hot[s] = True
                        hot_n += 1
                elif hot[s]:
                    hot[s] = False
                    hot_n -= 1
            else:
                if state != MODIFIED:           # MESI silent E -> M
                    states[index] = MODIFIED
                if hot[s]:
                    sk = skew[s]
                    t = base + sk
                    if uref > folded[s]:
                        f = uref + sk
                        if f > fin[s]:
                            fin[s] = f
                    folded[s] = uref
                    done = t + 1
                    if fill_live[s] > t:
                        infl = inflight[s]
                        ready = infl.get(line)
                        if ready is not None:
                            if ready <= t:
                                del infl[line]
                            else:
                                done = ready + 1
                    if wb_live[s] > done:
                        stall = reserve(s, bank, done, done)
                        d_wbuf[s] += stall
                        done += stall
                    d_stall[s] += done - t - 1
                    fin[s] = done
                    skew[s] = done - base - 1
                    if fill_live[s] <= done and wb_live[s] <= done:
                        hot[s] = False
                        hot_n -= 1
            s += 1

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    i = 0
    end = len(data)
    while i < end:
        op = data[i]
        if op == OP_READ:
            line = data[i + 1] >> line_shift
            i += 2
            ev += 1
            index = line & mask0
            if (hot_n == 0 and states0[index]
                    and tags0[index] == line >> shift0):
                # Resident at the smallest size => resident everywhere
                # (inclusion); no live windows => zero stall everywhere.
                n_reads += 1
                base += 1
                uref = base
                continue
            slow_read(line)
            n_reads += 1
            base += 1
            uref = base
        elif op == OP_IFETCH:
            count = data[i + 2]
            ev += 1
            if not model_icache:
                u_busy += count
                base += count
                i += 3
                continue
            addr = data[i + 1]
            i += 3
            first = addr >> il_shift
            last = (addr + count * 4 - 1) >> il_shift
            ln = first
            while ln <= last:
                ii = ln & ic_mask
                if ic_states[ii] and ic_tags[ii] == ln >> ic_shift:
                    ln += 1
                else:
                    break
            if ln > last:
                # Every line resident: no refills at any size.
                ic_fetch_lines += last - first + 1
                u_busy += count
                base += count
                continue
            misses = 0
            ln = first
            while ln <= last:
                ic_fetch_lines += 1
                ii = ln & ic_mask
                if not (ic_states[ii] and ic_tags[ii] == ln >> ic_shift):
                    ic_tags[ii] = ln >> ic_shift
                    ic_states[ii] = SHARED
                    misses += 1
                ln += 1
            ic_misses += misses
            for s in size_range:
                sk = skew[s]
                t = base + sk
                if uref > folded[s]:
                    f = uref + sk
                    if f > fin[s]:
                        fin[s] = f
                folded[s] = uref
                stall = 0
                busy = bus_busy[s]
                for _ in range(misses):
                    request = t + stall
                    if busy < request:
                        busy = request
                    busy += occ
                    stall = busy - occ + ic_lat - t
                bus_busy[s] = busy
                bus_tx[s] += misses
                bus_cyc[s] += misses * occ
                d_ic[s] += stall
                skew[s] = sk + stall
                t_new = t + count + stall
                now_hot = fill_live[s] > t_new or wb_live[s] > t_new
                if now_hot:
                    if not hot[s]:
                        hot[s] = True
                        hot_n += 1
                elif hot[s]:
                    hot[s] = False
                    hot_n -= 1
            u_busy += count
            base += count
        elif op == OP_WRITE:
            line = data[i + 1] >> line_shift
            i += 2
            ev += 1
            index = line & mask0
            if (hot_n == 0 and states0[index] == MODIFIED
                    and tags0[index] == line >> shift0):
                # MODIFIED at the smallest size => MODIFIED everywhere
                # (monotonicity): silent hit, dead write-buffer push.
                n_writes += 1
                base += 1
                uref = base
                continue
            slow_write(line, line % nbanks)
            n_writes += 1
            base += 1
            uref = base
        elif op == OP_COMPUTE:
            cycles = data[i + 1]
            i += 2
            ev += 1
            if cycles:
                u_busy += cycles
                base += cycles
        elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            span_base = data[i + 1]
            size = data[i + 2]
            stride = data[i + 3]
            if size > 0 and stride <= 0:
                # The element loop below would spin forever (the ladder
                # has no cycle limit to bail it out); fail exactly like
                # the native ladder so the differ sees parity.
                raise ValueError(f"non-positive span stride at {i}")
            i += 4
            is_read = op == OP_READ_SPAN
            offset = 0
            while offset < size:
                ev += 1
                line = (span_base + offset) >> line_shift
                index = line & mask0
                if is_read:
                    if (hot_n == 0 and states0[index]
                            and tags0[index] == line >> shift0):
                        n_reads += 1
                    else:
                        slow_read(line)
                        n_reads += 1
                else:
                    if (hot_n == 0 and states0[index] == MODIFIED
                            and tags0[index] == line >> shift0):
                        n_writes += 1
                    else:
                        slow_write(line, line % nbanks)
                        n_writes += 1
                base += 1
                uref = base
                offset += stride
        elif op == OP_ENQUEUE:
            ev += 1
            queues.setdefault(data[i + 1], []).append(data[i + 2])
            i += 3
        elif op == OP_DEQUEUE:
            ev += 1
            queue = queues.get(data[i + 1])
            if queue:
                # Replay-only: the recorded stream already took the
                # branch the response selected (see repro.trace.packed).
                del queue[0]
            i += 2
        elif op == OP_LOCK_ACQ:
            ev += 1
            lock_id = data[i + 1]
            i += 2
            if lock_id in held_locks:
                raise DeadlockError(
                    f"processes [0] blocked forever "
                    f"(locks={{{lock_id}: 0}})")
            held_locks.add(lock_id)
            u_busy += lock_oh
            base += lock_oh
        elif op == OP_LOCK_REL:
            ev += 1
            lock_id = data[i + 1]
            i += 2
            if lock_id not in held_locks:
                raise SyncProtocolError(
                    f"process 0 released lock {lock_id} "
                    f"it does not hold")
            held_locks.remove(lock_id)
            u_busy += lock_oh
            base += lock_oh
        elif op == OP_BARRIER:
            ev += 1
            count = data[i + 2]
            i += 3
            if count < 1:
                raise SyncProtocolError("barrier count must be >= 1")
            if count > 1:
                raise DeadlockError(
                    "processes [0] blocked forever (locks={})")
            sync_stall += barrier_oh
            base += barrier_oh
        else:
            raise ValueError(f"unknown packed opcode {op} at {i}")

    times = _flush_ladder(
        systems, n_reads=n_reads, n_writes=n_writes, u_busy=u_busy,
        sync_stall=sync_stall, d_rmiss=d_rmiss, d_wmiss=d_wmiss,
        d_upg=d_upg, d_evict=d_evict, d_wb=d_wb, d_wbuf=d_wbuf,
        d_bus_wait=d_bus_wait, d_stall=d_stall, d_ic=d_ic,
        bus_busy=bus_busy, bus_tx=bus_tx, bus_cyc=bus_cyc, base=base,
        uref=uref, skew=skew, fin=fin, folded=folded,
        model_icache=model_icache, ic_misses=ic_misses,
        ic_fetch_lines=ic_fetch_lines, ic_states=ic_states,
        ic_tags=ic_tags)
    return ev, times


def _flush_ladder(systems, *, n_reads, n_writes, u_busy, sync_stall,
                  d_rmiss, d_wmiss, d_upg, d_evict, d_wb, d_wbuf,
                  d_bus_wait, d_stall, d_ic, bus_busy, bus_tx, bus_cyc,
                  base, uref, skew, fin, folded, model_icache,
                  ic_misses, ic_fetch_lines, ic_states,
                  ic_tags) -> List[int]:
    """Flush fused-pass deltas into each system; per-size finish times.

    Mirrors ``_run_fast``'s finally block plus the counters the
    coherence controller would have bumped.  Shared by the python and
    native passes (per-size sequences may be lists or ``array('q')``).
    """
    busy_total = n_reads + n_writes + u_busy
    references = n_reads + n_writes
    n_sizes = len(systems)
    times = [0] * n_sizes
    for s in range(n_sizes):
        system = systems[s]
        scc = system.clusters[0].scc
        sstats = scc.stats
        sstats.reads += n_reads
        sstats.writes += n_writes
        sstats.read_misses += d_rmiss[s]
        sstats.write_misses += d_wmiss[s]
        sstats.upgrades += d_upg[s]
        sstats.evictions += d_evict[s]
        sstats.writebacks += d_wb[s]
        sstats.bus_wait_cycles += d_bus_wait[s]
        sstats.write_buffer_stall_cycles += d_wbuf[s]
        scc.interconnect.write_stall_cycles += d_wbuf[s]
        bus = system.bus
        bus._busy_until = bus_busy[s]
        bus.transactions += bus_tx[s]
        bus.busy_cycles += bus_cyc[s]
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
            # The icache tag array stores array('q'); slice-assign needs
            # a matching array, not plain python lists.
            if isinstance(ic_states, _qarray_type):
                icache.array._states[:] = ic_states
                icache.array._tags[:] = ic_tags
            else:
                icache.array._states[:] = _qarray(ic_states)
                icache.array._tags[:] = _qarray(ic_tags)
        times[s] = base + skew[s]
    return times


def _fused_pass_native(ladder: List[SystemConfig],
                       systems: List[MultiprocessorSystem],
                       data: Sequence[int]):
    """Run the fused pass through the C extension's ladder entry points.

    Returns ``(events_processed, per-size finish times)`` exactly like
    :func:`_fused_pass`, or ``None`` when the extension is unavailable
    or stale (callers degrade to the python pass).
    Queue, lock and barrier opcodes are deferred back here (drain status
    2) so their error messages and accounting match the python pass
    byte for byte.
    """
    from .engine import native as _native
    native = _native.load()
    if native is None:
        return None
    config = ladder[0]
    n_sizes = len(ladder)
    per_size = []
    for system in systems:
        scc = system.clusters[0].scc
        array = scc.array
        per_size.append((array._states, array._tags, array._index_mask,
                         array._tag_shift, scc._inflight,
                         scc.interconnect._write_buffers))
    model_icache = config.model_icache
    if model_icache:
        il_shift = config.icache_line_size.bit_length() - 1
        ic_lines = config.icache_size // config.icache_line_size
        ic_states = _qarray(bytes(8 * ic_lines))
        ic_tags = _qarray(bytes(8 * ic_lines))
        ic_mask = ic_lines - 1
        ic_shift = ic_lines.bit_length() - 1
        ic_pair = (ic_states, ic_tags)
    else:
        il_shift = ic_shift = ic_mask = 0
        ic_states = ic_tags = []
        ic_pair = ()
    install_state = EXCLUSIVE if config.protocol == "mesi" else SHARED
    scal = _qarray([
        config.line_offset_bits, config.num_banks, config.bus_occupancy,
        config.upgrade_bus_occupancy, config.memory_latency,
        config.icache_miss_latency, config.write_buffer_depth,
        install_state, 1 if model_icache else 0, il_shift, ic_mask,
        ic_shift])
    zeros = bytes(8 * n_sizes)
    state = tuple(_qarray(zeros) for _ in range(9))
    state[1][:] = _qarray([-1] * n_sizes)           # fin
    (skew, fin, folded, _fill_live, _wb_live, _hot,
     bus_busy, bus_tx, bus_cyc) = state
    deltas = tuple(_qarray(zeros) for _ in range(9))
    (d_rmiss, d_wmiss, d_upg, d_evict, d_wb, d_wbuf,
     d_bus_wait, d_stall, d_ic) = deltas
    regs = _qarray([0] * 10)
    if not (type(data) is _qarray_type and data.typecode == "q"):
        data = _qarray(data)
    plan = (tuple(per_size), scal, state, deltas, ic_pair, regs)
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
        systems, n_reads=regs[4], n_writes=regs[5], u_busy=regs[6],
        sync_stall=sync_stall, d_rmiss=d_rmiss, d_wmiss=d_wmiss,
        d_upg=d_upg, d_evict=d_evict, d_wb=d_wb, d_wbuf=d_wbuf,
        d_bus_wait=d_bus_wait, d_stall=d_stall, d_ic=d_ic,
        bus_busy=bus_busy, bus_tx=bus_tx, bus_cyc=bus_cyc,
        base=regs[1], uref=regs[2], skew=skew, fin=fin, folded=folded,
        model_icache=model_icache, ic_misses=regs[8],
        ic_fetch_lines=regs[9], ic_states=ic_states, ic_tags=ic_tags)
    return regs[3], times


# ----------------------------------------------------------------------
# Miss-surface mode for parallel workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MissSurfacePoint:
    """Content-only counts of one (process, SCC size) cell."""

    reads: int
    writes: int
    read_misses: int
    write_misses: int

    @property
    def miss_rate(self) -> float:
        accesses = self.reads + self.writes
        if not accesses:
            return 0.0
        return (self.read_misses + self.write_misses) / accesses


def per_process_miss_surface(
        config: SystemConfig,
        scc_sizes: Iterable[int],
        streams: Dict[int, Sequence[int]],
) -> Dict[int, Dict[int, MissSurfacePoint]]:
    """Approximate miss surface: each process's tape against all sizes.

    For parallel workloads the interleave order depends on the machine,
    so no fused *timing* replay exists; what one pass per process can
    still deliver is the classic multi-configuration content analysis:
    per-process miss counts for every ladder size simultaneously,
    treating each process's references as a private stream (no
    coherence, no contention, no timing).  Useful for scouting a
    working-set knee before spending full simulations on it; never fed
    into :class:`~repro.experiments.runner.RunStats`.

    Returns ``{process: {scc_size: MissSurfacePoint}}``; sizes must be
    powers of two holding more than one ``config.line_size`` line.
    """
    sizes = sorted(set(scc_sizes))
    if not sizes:
        raise ValueError("need at least one SCC size")
    line_size = config.line_size
    geometry = []
    for size in sizes:
        lines = size // line_size
        if lines < 2 or lines & (lines - 1):
            raise ValueError(
                f"scc size {size} is not a power-of-two line count")
        geometry.append((lines - 1, lines.bit_length() - 1))
    line_shift = config.line_offset_bits
    n_sizes = len(sizes)
    surface: Dict[int, Dict[int, MissSurfacePoint]] = {}
    for proc in sorted(streams):
        data = streams[proc]
        tags = [[-1] * (mask + 1) for mask, _ in geometry]
        reads = writes = 0
        rmiss = [0] * n_sizes
        wmiss = [0] * n_sizes
        tags0 = tags[0]
        mask0, shift0 = geometry[0]

        def touch(line: int, is_read: bool) -> None:
            if tags0[line & mask0] == line >> shift0:
                return          # resident at the smallest size: hit all
            for s in range(n_sizes):
                mask, shift = geometry[s]
                slot = tags[s]
                index = line & mask
                tag = line >> shift
                if slot[index] == tag:
                    break       # inclusion: resident above too
                slot[index] = tag
                if is_read:
                    rmiss[s] += 1
                else:
                    wmiss[s] += 1

        i = 0
        end = len(data)
        while i < end:
            op = data[i]
            if op == OP_READ or op == OP_WRITE:
                line = data[i + 1] >> line_shift
                if op == OP_READ:
                    reads += 1
                    touch(line, True)
                else:
                    writes += 1
                    touch(line, False)
                i += 2
            elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
                span_base = data[i + 1]
                size = data[i + 2]
                stride = data[i + 3]
                is_read = op == OP_READ_SPAN
                for offset in range(0, size, stride):
                    line = (span_base + offset) >> line_shift
                    if is_read:
                        reads += 1
                        touch(line, True)
                    else:
                        writes += 1
                        touch(line, False)
                i += 4
            elif op in (OP_COMPUTE, OP_LOCK_ACQ, OP_LOCK_REL, OP_DEQUEUE):
                i += 2
            elif op in (OP_IFETCH, OP_BARRIER, OP_ENQUEUE):
                i += 3
            else:
                raise ValueError(f"unknown packed opcode {op} at {i}")
        surface[proc] = {
            sizes[s]: MissSurfacePoint(reads=reads, writes=writes,
                                       read_misses=rmiss[s],
                                       write_misses=wmiss[s])
            for s in range(n_sizes)
        }
    return surface
