"""Timing-accurate interleaving of application processes.

Tango-Lite's job in the paper (Section 2.2.2) is "to supply properly
interleaved reference events to a detailed multiprocessor cache simulator".
:class:`TimingInterleaver` is that component.  Every application process is
a generator of :mod:`repro.trace.events`; the interleaver keeps each
process's local clock and always advances the globally *earliest* runnable
process, so the order in which references reach the caches reflects
simulated time -- including the feedback of memory stalls into instruction
interleaving, which is what distinguishes timing-accurate simulation from
fixed-interleave trace replay.

Exactness note: the scheduler lets the earliest process keep running while
its local clock has not passed the next-earliest process's clock.  No other
process can emit an event in that window, so this batching is *exactly*
equivalent to strict global time ordering while avoiding one heap operation
per event.

Packed fast path: a generator may yield a
:class:`~repro.trace.packed.PackedChunk` of integer-encoded events instead
of individual event objects (see :mod:`repro.trace.packed` for the
validity contract).  Chunks are consumed without resuming the generator or
allocating an event object per reference, with the same per-event
scheduling checks as the object path; on machines with a direct-mapped
power-of-two SCC, the default snoopy protocol, and no observer or probe
attached, the common read-hit/write-hit memory path is additionally
inlined here (statistics are accumulated in flat delta arrays and flushed
once when the run ends, preserving bit-identical totals).

Synchronization (ANL macro equivalents):

* locks are FIFO-granted; uncontended acquire/release costs
  ``lock_overhead`` busy cycles, contended waiting counts as sync stall;
* barriers release all arrivals at the maximum arrival time plus
  ``barrier_overhead``;
* task queues are shared FIFOs; ``TaskDequeue`` returns ``None`` to the
  generator when empty (workloads spin or retire, their choice).
  Enqueueing ``None`` is a protocol error: the empty-queue response could
  not be told apart from the item.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from ..core.cache import DirectMappedArray, MODIFIED
from ..core.coherence import CoherenceController
from ..core.system import MultiprocessorSystem
from ..instrument.probes import NULL_PROBE
from .engine import native_available, resolve_backend
from .events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                     Read, TaskDequeue, TaskEnqueue, TraceEvent, Write)
from .packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE, OP_ENQUEUE,
                     OP_IFETCH, OP_LOCK_ACQ, OP_LOCK_REL, OP_READ,
                     OP_READ_SPAN, OP_WRITE, OP_WRITE_SPAN, PackedChunk)

__all__ = ["TimingInterleaver", "DeadlockError", "SyncProtocolError",
           "fused_replay_ok"]

ProcessGenerator = Generator[TraceEvent, Any, None]

_NO_LIMIT = (1 << 63) - 1   # max_cycles sentinel (one int compare per event)


class DeadlockError(RuntimeError):
    """All unfinished processes are blocked on synchronization."""


class SyncProtocolError(RuntimeError):
    """A process misused a lock, barrier, or task queue (e.g. released a
    lock it does not hold, or enqueued ``None``)."""


def fused_replay_ok(config) -> bool:
    """Whether one recorded tape on ``config`` can drive the fused
    multi-configuration engine (:mod:`repro.trace.multiconfig`).

    Stricter than the interleaver's own ``_fast_ok``: the fused engine
    inlines the single-process scheduling loop, so it needs exactly one
    processor (interleave order is then configuration-independent and the
    size-ladder inclusion argument holds), the plain shared-SCC snoopy
    machine, direct-mapped power-of-two geometry, write buffering enabled
    (``stall_on_writes`` changes the write path shape), and
    ``bank_cycle_time == 1`` (a single processor then provably never
    conflicts on a bank, so the engine can skip bank arbitration).
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


class _Process:
    __slots__ = ("pid", "generator", "time", "response", "blocked",
                 "finished", "block_start", "in_heap", "chunk", "chunk_pos",
                 "chunk_sub")

    def __init__(self, pid: int, generator: ProcessGenerator):
        self.pid = pid
        self.generator = generator
        self.time = 0
        self.response: Any = None
        self.blocked = False
        self.finished = False
        self.block_start = 0
        self.in_heap = False
        # Packed-chunk consumption state: the int sequence being drained,
        # the next position in it, and the byte offset inside a partially
        # drained span opcode.
        self.chunk: Optional[Any] = None
        self.chunk_pos = 0
        self.chunk_sub = 0


class _Lock:
    __slots__ = ("holder", "waiters")

    def __init__(self) -> None:
        self.holder: Optional[int] = None
        self.waiters: Deque[int] = deque()


class TimingInterleaver:
    """Drives application processes against a memory system."""

    def __init__(self, system: MultiprocessorSystem,
                 lock_overhead: Optional[int] = None,
                 barrier_overhead: Optional[int] = None,
                 observer=None, force_generic: bool = False,
                 backend: Optional[str] = None):
        self.system = system
        self.observer = observer
        """Optional event observer (e.g.
        :class:`repro.trace.racecheck.RaceDetector`); receives
        ``on_access``/``on_acquire``/``on_release``/``on_barrier_*``/
        ``on_enqueue``/``on_dequeue`` callbacks as events are granted."""
        config = system.config
        self.lock_overhead = (config.lock_overhead if lock_overhead is None
                              else lock_overhead)
        self.barrier_overhead = (config.barrier_overhead
                                 if barrier_overhead is None
                                 else barrier_overhead)
        self._processes: Dict[int, _Process] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self._seq = 0
        self._locks: Dict[int, _Lock] = {}
        self._barriers: Dict[int, List[int]] = {}
        self._queues: Dict[int, Deque[Any]] = {}
        self.events_processed = 0
        # The inline memory fast path is only exact for the plain
        # shared-SCC machine: snoopy MSI/MESI protocol, direct-mapped
        # arrays with a power-of-two line count (mask/shift indexing), no
        # observer and no instrumentation probe.  Everything else drains
        # chunks through the generic per-event dispatch (still without
        # per-event generator resumes or event objects).
        # ``force_generic`` opts out even when the machine qualifies --
        # the differential verifier (repro.verify) uses it to run the
        # same tape through both loops.
        lines = config.scc_lines
        self._fast_ok = (
            not force_generic
            and observer is None
            and type(system) is MultiprocessorSystem
            and type(system.coherence) is CoherenceController
            and system.probe is NULL_PROBE
            and lines & (lines - 1) == 0
            and all(type(cluster.scc.array) is DirectMappedArray
                    for cluster in system.clusters))
        if self._fast_ok:
            self._proc_cluster = [config.cluster_of(p)
                                  for p in range(config.total_processors)]
            self._idx_mask = lines - 1
            self._tag_shift = lines.bit_length() - 1
        # Replay backend for the fast path (repro.trace.engine): an
        # execution knob, never an identity knob -- every backend is
        # fingerprint-identical, so results and cache keys do not depend
        # on it.  ``None`` defers to $REPRO_ENGINE (default ``auto``).
        self.backend_requested = backend
        self.backend = resolve_backend(backend)
        self.engine_used: Optional[str] = None
        """Concrete engine the last :meth:`run` executed on
        (``generic``/``python``/``native``)."""
        self.engine_returns: Dict[str, int] = {}
        """How often the native engine's C loop handed control back to
        python during the last :meth:`run`, by reason (``refill``/
        ``sync``/``object``); empty on the other engines."""

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def add_process(self, proc_id: int, generator: ProcessGenerator,
                    start_time: int = 0) -> None:
        """Register ``generator`` as the event stream of processor
        ``proc_id`` (a machine-global id known to the system config)."""
        if proc_id in self._processes:
            raise ValueError(f"process {proc_id} already registered")
        if not 0 <= proc_id < self.system.config.total_processors:
            raise ValueError(f"process id {proc_id} outside the machine")
        process = _Process(proc_id, generator)
        process.time = start_time
        self._processes[proc_id] = process
        self._push(process)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Run every process to completion; returns the execution time
        (the cycle the last process finished).

        ``max_cycles`` aborts a runaway simulation with ``RuntimeError``
        (useful in tests) -- it bounds simulated time, not wall time.
        """
        if not self._processes:
            raise RuntimeError("no processes registered")
        if self._fast_ok:
            if self.backend == "native" and native_available():
                from .engine import native as native_backend
                self.engine_used = "native"
                finish_time = native_backend.run(self, max_cycles)
            else:
                # Also where a native resolution lands when the
                # extension disappeared afterwards (e.g. cache cleared
                # mid-process).
                self.backend = self.engine_used = "python"
                finish_time = self._run_fast(max_cycles)
        else:
            self.engine_used = "generic"
            finish_time = self._run_generic(max_cycles)
        unfinished = [p.pid for p in self._processes.values()
                      if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"processes {unfinished} blocked forever "
                f"(locks={self._lock_summary()})")
        return finish_time

    def _run_generic(self, max_cycles: Optional[int]) -> int:
        finish_time = 0
        heap = self._heap
        pop = heapq.heappop
        processes = self._processes
        while heap:
            _time, _, pid = pop(heap)
            process = processes[pid]
            process.in_heap = False
            finish = self._advance(process, max_cycles)
            if finish is not None:
                finish_time = max(finish_time, finish)
        return finish_time

    def _advance(self, process: _Process,
                 max_cycles: Optional[int]) -> Optional[int]:
        """Run ``process`` until it blocks, finishes, or falls behind the
        next-earliest process.  Returns its finish time if it ended.

        On the fast path this only ever runs *object* events: chunks are
        drained by :meth:`_run_fast`, so a freshly yielded chunk is
        installed on the process and control returns to the caller."""
        heap = self._heap
        fast = self._fast_ok
        while True:
            if process.chunk is not None:
                # Only the generic path resumes a partially drained chunk
                # here; _run_fast never enters with one pending.
                if not self._consume_chunk_generic(process, max_cycles):
                    return None
                process.chunk = None
                process.chunk_pos = 0
                process.chunk_sub = 0
            if max_cycles is not None and process.time > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles")
            try:
                if process.response is not None:
                    event = process.generator.send(process.response)
                    process.response = None
                else:
                    # next() also serves plain iterators (replayed traces).
                    event = next(process.generator)
            except StopIteration:
                process.finished = True
                return process.time
            if type(event) is PackedChunk:
                process.chunk = event.data
                process.chunk_pos = 0
                process.chunk_sub = 0
                if fast:
                    return None
                continue
            self.events_processed += 1
            self._dispatch(process, event)
            if process.blocked:
                return None
            if process.in_heap:
                # The process unblocked itself while handling its own event
                # (it was the releasing arrival of a barrier) and is already
                # scheduled; running on would double-schedule it.
                return None
            if heap and process.time > heap[0][0]:
                self._push(process)
                return None

    # ------------------------------------------------------------------
    # Packed-chunk consumption
    # ------------------------------------------------------------------

    def _run_fast(self, max_cycles: Optional[int]) -> int:
        """Scheduler main loop fused with the inline chunk consumer.

        With many processors the scheduler preempts after nearly every
        event, so the cost that matters is the *process switch*, not the
        per-event work.  This loop keeps everything a switch needs in
        locals -- per-cluster tag arrays, bank tables and in-flight maps
        in small lists indexed by cluster id -- and performs the common
        switch (current process preempted by the heap top, next process
        also mid-chunk) with a single ``heappushpop`` and a handful of
        list lookups, never leaving this frame.  Object events (sync
        handshakes, generator resumes) drop out to :meth:`_advance`.

        Per-event semantics -- preemption against the heap top,
        ``max_cycles``, statistics -- are identical to the object path.
        The heap top is cached in ``next_time``: while a chunk drains,
        every other process is suspended, so only this process's own
        pushes and sync handlers can change it, and those points refresh
        the cache.  Statistic deltas accumulate in flat arrays indexed by
        processor/cluster and flush once in the ``finally`` (also on
        abort); nothing reads the affected counters mid-run on the fast
        path (no probe, no observer).
        """
        heap = self._heap
        processes = self._processes
        system = self.system
        config = system.config
        n_cl = config.clusters
        cl_scc = [cluster.scc for cluster in system.clusters]
        cl_states = [scc.array._states for scc in cl_scc]
        cl_tags = [scc.array._tags for scc in cl_scc]
        cl_icn = [scc.interconnect for scc in cl_scc]
        cl_bank_free = [icn._bank_free for icn in cl_icn]
        cl_inflight = [scc._inflight for scc in cl_scc]
        cl_reserve = [icn.reserve_write_slot for icn in cl_icn]
        nbanks = cl_icn[0].num_banks
        bank_cycle = cl_icn[0].bank_cycle_time
        idx_mask = self._idx_mask
        tag_shift = self._tag_shift
        line_shift = config.line_offset_bits
        coherence = system.coherence
        read_miss = coherence.read_miss
        write_line = coherence.write_line
        stall_on_writes = config.stall_on_writes
        proc_cluster = self._proc_cluster
        procs = system._procs
        nproc = config.total_processors
        queues = self._queues
        ifetch = system.ifetch
        # Instruction-fetch inline.  Without an icache the event is pure
        # accounting; with one, the every-line-resident case skips the
        # system call, the per-line method dispatches, and the stats
        # walk, falling back to system.ifetch whenever any line misses
        # (bus refills, installs).  Only power-of-two icache geometries
        # qualify (every paper configuration).
        model_icache = config.model_icache
        ic_objs = None
        iline_shift = 0
        if model_icache:
            iline = config.icache_line_size
            if iline > 0 and iline & (iline - 1) == 0:
                iline_shift = iline.bit_length() - 1
                caches = [system.clusters[proc_cluster[p]]
                          .icaches[config.port_of(p)]
                          for p in range(nproc)]
                if all(ic.array._index_mask for ic in caches):
                    ic_objs = caches
                    ic_states = [ic.array._states for ic in caches]
                    ic_tags = [ic.array._tags for ic in caches]
                    ic_mask = [ic.array._index_mask for ic in caches]
                    ic_shift = [ic.array._tag_shift for ic in caches]
        pop = heapq.heappop
        pushpop = heapq.heappushpop
        advance = self._advance
        limit = _NO_LIMIT if max_cycles is None else max_cycles
        # Statistic deltas (busy == instructions on this path: both grow
        # by 1 per reference and by the cycle count per compute).
        ev = 0
        d_reads = [0] * n_cl
        d_writes = [0] * n_cl
        d_conf = [0] * n_cl
        d_wbuf = [0] * n_cl
        d_refs = [0] * nproc
        d_busy = [0] * nproc
        d_stall = [0] * nproc
        d_finish = [-1] * nproc
        finish_time = 0
        pending = -1    # pid handed over by a preempt switch, not yet run
        try:
            while True:
                if pending >= 0:
                    pid = pending
                    pending = -1
                    process = processes[pid]
                else:
                    if not heap:
                        break
                    pid = pop(heap)[2]
                    process = processes[pid]
                    process.in_heap = False
                if process.chunk is None:
                    finish = advance(process, max_cycles)
                    if finish is not None and finish > finish_time:
                        finish_time = finish
                    if process.chunk is None:
                        continue
                # ---- drain chunks inline, switching processes in-frame --
                data = process.chunk
                i = process.chunk_pos
                sub = process.chunk_sub
                end = len(data)
                time = process.time
                cl = proc_cluster[pid]
                states = cl_states[cl]
                tags = cl_tags[cl]
                bank_free = cl_bank_free[cl]
                inflight = cl_inflight[cl]
                scc = cl_scc[cl]
                reserve = cl_reserve[cl]
                next_time = heap[0][0] if heap else _NO_LIMIT
                while True:
                    yielded = False
                    while i < end:
                        op = data[i]
                        if (op == OP_READ or op == OP_WRITE
                                or op == OP_COMPUTE):
                            if time > limit:
                                raise RuntimeError(
                                    f"simulation exceeded {max_cycles} "
                                    f"cycles")
                            operand = data[i + 1]
                            i += 2
                            ev += 1
                            if op == OP_COMPUTE:
                                if operand:
                                    d_busy[pid] += operand
                                    time += operand
                                    if time > next_time:
                                        yielded = True
                                        break
                                continue
                            line = operand >> line_shift
                            bank = line % nbanks
                            free = bank_free[bank]
                            if free > time:
                                d_conf[cl] += free - time
                                start = free
                            else:
                                start = time
                            bank_free[bank] = start + bank_cycle
                            idx = line & idx_mask
                            if op == OP_READ:
                                if (states[idx]
                                        and tags[idx] == line >> tag_shift):
                                    d_reads[cl] += 1
                                    if inflight:
                                        ready = inflight.get(line)
                                        if ready is None:
                                            done = start + 1
                                        elif ready <= start:
                                            del inflight[line]
                                            done = start + 1
                                        else:
                                            done = ready + 1
                                    else:
                                        done = start + 1
                                else:
                                    done = read_miss(scc, line, start)
                            else:
                                if (states[idx] >= MODIFIED
                                        and tags[idx] == line >> tag_shift):
                                    # MODIFIED write hit (or the MESI
                                    # silent EXCLUSIVE -> MODIFIED
                                    # upgrade): no bus.
                                    states[idx] = MODIFIED
                                    d_writes[cl] += 1
                                    if inflight:
                                        ready = inflight.get(line)
                                        if ready is None:
                                            done = start + 1
                                        elif ready <= start:
                                            del inflight[line]
                                            done = start + 1
                                        else:
                                            done = ready + 1
                                    else:
                                        done = start + 1
                                    if not stall_on_writes:
                                        stall = reserve(bank, done, done)
                                        d_wbuf[cl] += stall
                                        done += stall
                                else:
                                    outcome = write_line(scc, line, start)
                                    done = outcome.complete
                                    if stall_on_writes:
                                        if outcome.retire > done:
                                            done = outcome.retire
                                    else:
                                        stall = reserve(bank, done,
                                                        outcome.retire)
                                        d_wbuf[cl] += stall
                                        done += stall
                            d_refs[pid] += 1
                            d_busy[pid] += 1
                            d_stall[pid] += done - time - 1
                            d_finish[pid] = done
                            time = done
                            if time > next_time:
                                yielded = True
                                break
                        elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
                            base = data[i + 1]
                            size = data[i + 2]
                            stride = data[i + 3]
                            offset = sub
                            sub = 0
                            preempted = False
                            is_read = op == OP_READ_SPAN
                            while offset < size:
                                if time > limit:
                                    raise RuntimeError(
                                        f"simulation exceeded {max_cycles}"
                                        f" cycles")
                                ev += 1
                                line = (base + offset) >> line_shift
                                bank = line % nbanks
                                free = bank_free[bank]
                                if free > time:
                                    d_conf[cl] += free - time
                                    start = free
                                else:
                                    start = time
                                bank_free[bank] = start + bank_cycle
                                idx = line & idx_mask
                                if is_read:
                                    if (states[idx] and tags[idx]
                                            == line >> tag_shift):
                                        d_reads[cl] += 1
                                        if inflight:
                                            ready = inflight.get(line)
                                            if ready is None:
                                                done = start + 1
                                            elif ready <= start:
                                                del inflight[line]
                                                done = start + 1
                                            else:
                                                done = ready + 1
                                        else:
                                            done = start + 1
                                    else:
                                        done = read_miss(scc, line, start)
                                else:
                                    if (states[idx] >= MODIFIED
                                            and tags[idx]
                                            == line >> tag_shift):
                                        states[idx] = MODIFIED
                                        d_writes[cl] += 1
                                        if inflight:
                                            ready = inflight.get(line)
                                            if ready is None:
                                                done = start + 1
                                            elif ready <= start:
                                                del inflight[line]
                                                done = start + 1
                                            else:
                                                done = ready + 1
                                        else:
                                            done = start + 1
                                        if not stall_on_writes:
                                            stall = reserve(bank, done,
                                                            done)
                                            d_wbuf[cl] += stall
                                            done += stall
                                    else:
                                        outcome = write_line(scc, line,
                                                             start)
                                        done = outcome.complete
                                        if stall_on_writes:
                                            if outcome.retire > done:
                                                done = outcome.retire
                                        else:
                                            stall = reserve(bank, done,
                                                            outcome.retire)
                                            d_wbuf[cl] += stall
                                            done += stall
                                d_refs[pid] += 1
                                d_busy[pid] += 1
                                d_stall[pid] += done - time - 1
                                d_finish[pid] = done
                                time = done
                                offset += stride
                                if time > next_time:
                                    preempted = True
                                    break
                            if offset >= size:
                                i += 4
                            else:
                                sub = offset
                            if preempted:
                                yielded = True
                                break
                        elif op == OP_IFETCH:
                            if time > limit:
                                raise RuntimeError(
                                    f"simulation exceeded {max_cycles} "
                                    f"cycles")
                            ev += 1
                            count = data[i + 2]
                            if not model_icache:
                                # account_ifetch(count, 0) inline.
                                d_busy[pid] += count
                                time += count
                            elif ic_objs is not None:
                                addr = data[i + 1]
                                iline_no = addr >> iline_shift
                                ilast = (addr + count * 4
                                         - 1) >> iline_shift
                                istates = ic_states[pid]
                                itags = ic_tags[pid]
                                imask = ic_mask[pid]
                                ishift = ic_shift[pid]
                                while iline_no <= ilast:
                                    idxi = iline_no & imask
                                    if (istates[idxi] and itags[idxi]
                                            == iline_no >> ishift):
                                        iline_no += 1
                                    else:
                                        break
                                if iline_no > ilast:
                                    # Every line resident: no installs,
                                    # no bus, no refill stall.
                                    ic_objs[pid].fetch_lines += (
                                        ilast - (addr >> iline_shift) + 1)
                                    d_busy[pid] += count
                                    time += count
                                else:
                                    time = ifetch(pid, addr, count, time)
                            else:
                                time = ifetch(pid, data[i + 1], count,
                                              time)
                            i += 3
                            if time > next_time:
                                yielded = True
                                break
                        elif op == OP_ENQUEUE:
                            if time > limit:
                                raise RuntimeError(
                                    f"simulation exceeded {max_cycles} "
                                    f"cycles")
                            ev += 1
                            queues.setdefault(data[i + 1],
                                              deque()).append(data[i + 2])
                            i += 3
                        elif op == OP_DEQUEUE:
                            if time > limit:
                                raise RuntimeError(
                                    f"simulation exceeded {max_cycles} "
                                    f"cycles")
                            ev += 1
                            # Replay-only (see repro.trace.packed): the
                            # recorded stream already took the branch, so
                            # the item is popped and discarded.
                            queue = queues.get(data[i + 1])
                            if queue:
                                queue.popleft()
                            i += 2
                        else:
                            # Synchronization opcode: run the object-path
                            # handler (rare relative to memory events).
                            if time > limit:
                                raise RuntimeError(
                                    f"simulation exceeded {max_cycles} "
                                    f"cycles")
                            ev += 1
                            process.time = time
                            if op == OP_LOCK_ACQ:
                                self._lock_acquire(process, data[i + 1])
                                i += 2
                            elif op == OP_LOCK_REL:
                                self._lock_release(process, data[i + 1])
                                i += 2
                            elif op == OP_BARRIER:
                                self._barrier(process, data[i + 1],
                                              data[i + 2])
                                i += 3
                            else:
                                raise ValueError(
                                    f"unknown packed opcode {op} at {i}")
                            time = process.time
                            if process.blocked or process.in_heap:
                                yielded = True
                                break
                            # The handler may have pushed woken processes.
                            next_time = heap[0][0] if heap else _NO_LIMIT
                            if time > next_time:
                                yielded = True
                                break
                    if not yielded:
                        # Chunk exhausted: resume the generator; it may
                        # hand back another chunk for the same process.
                        process.time = time
                        process.chunk = None
                        process.chunk_pos = 0
                        process.chunk_sub = 0
                        finish = advance(process, max_cycles)
                        if finish is not None:
                            if finish > finish_time:
                                finish_time = finish
                            break
                        if process.chunk is None:
                            break   # blocked, rescheduled, or finished
                        data = process.chunk
                        i = 0
                        sub = 0
                        end = len(data)
                        time = process.time
                        next_time = heap[0][0] if heap else _NO_LIMIT
                        continue
                    process.time = time
                    process.chunk_pos = i
                    process.chunk_sub = sub
                    if process.blocked or process.in_heap:
                        break
                    # Preempted by the heap top.  Because time exceeds the
                    # cached top, the pushed entry cannot be the one that
                    # comes back out, so push-and-pop fuse into one sift.
                    self._seq += 1
                    process.in_heap = True
                    npid = pushpop(heap, (time, self._seq, pid))[2]
                    process = processes[npid]
                    process.in_heap = False
                    if process.chunk is None:
                        pending = npid
                        break   # object path runs through the outer loop
                    pid = npid
                    data = process.chunk
                    i = process.chunk_pos
                    sub = process.chunk_sub
                    end = len(data)
                    time = process.time
                    cl = proc_cluster[pid]
                    states = cl_states[cl]
                    tags = cl_tags[cl]
                    bank_free = cl_bank_free[cl]
                    inflight = cl_inflight[cl]
                    scc = cl_scc[cl]
                    reserve = cl_reserve[cl]
                    next_time = heap[0][0] if heap else _NO_LIMIT
        finally:
            self.events_processed += ev
            for c in range(n_cl):
                sstats = cl_scc[c].stats
                if d_reads[c]:
                    sstats.reads += d_reads[c]
                if d_writes[c]:
                    sstats.writes += d_writes[c]
                if d_conf[c]:
                    sstats.bank_conflict_cycles += d_conf[c]
                    cl_icn[c].conflict_cycles += d_conf[c]
                if d_wbuf[c]:
                    sstats.write_buffer_stall_cycles += d_wbuf[c]
            for p in range(nproc):
                refs = d_refs[p]
                busy = d_busy[p]
                if refs or busy:
                    pstats = procs[p].stats
                    pstats.references += refs
                    pstats.instructions += busy
                    pstats.busy_cycles += busy
                    pstats.memory_stall_cycles += d_stall[p]
                if d_finish[p] > procs[p].finish_time:
                    # Reference completions are monotonic per processor,
                    # so "time of the last reference" is a max -- and max
                    # does not go stale if a process's final references
                    # came through the object path after its last chunk.
                    procs[p].finish_time = d_finish[p]
        return finish_time

    def _consume_chunk_generic(self, process: _Process,
                               max_cycles: Optional[int]) -> bool:
        """Drain ``process.chunk`` through the per-event dispatch.

        Used whenever the inline fast path is not exact (observer or
        probe attached, set-associative or non-power-of-two arrays,
        directory transport, private-cache organization).  Still avoids
        the per-event generator resume and, for spans, most event-object
        allocations' framing overhead.
        """
        data = process.chunk
        i = process.chunk_pos
        sub = process.chunk_sub
        end = len(data)
        heap = self._heap
        dispatch = self._dispatch
        while i < end:
            if max_cycles is not None and process.time > max_cycles:
                process.chunk_pos = i
                process.chunk_sub = sub
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles")
            op = data[i]
            if op == OP_READ_SPAN or op == OP_WRITE_SPAN:
                base = data[i + 1]
                size = data[i + 2]
                stride = data[i + 3]
                cls = Read if op == OP_READ_SPAN else Write
                offset = sub
                sub = 0
                preempted = False
                while offset < size:
                    if (max_cycles is not None
                            and process.time > max_cycles):
                        process.chunk_pos = i
                        process.chunk_sub = offset
                        raise RuntimeError(
                            f"simulation exceeded {max_cycles} cycles")
                    self.events_processed += 1
                    dispatch(process, cls(base + offset))
                    offset += stride
                    if heap and process.time > heap[0][0]:
                        preempted = True
                        break
                if offset >= size:
                    i += 4
                else:
                    sub = offset
                if preempted:
                    process.chunk_pos = i
                    process.chunk_sub = sub
                    self._push(process)
                    return False
                continue
            if op == OP_READ:
                event: TraceEvent = Read(data[i + 1])
                i += 2
            elif op == OP_WRITE:
                event = Write(data[i + 1])
                i += 2
            elif op == OP_COMPUTE:
                event = Compute(data[i + 1])
                i += 2
            elif op == OP_IFETCH:
                event = Ifetch(data[i + 1], data[i + 2])
                i += 3
            elif op == OP_LOCK_ACQ:
                event = LockAcquire(data[i + 1])
                i += 2
            elif op == OP_LOCK_REL:
                event = LockRelease(data[i + 1])
                i += 2
            elif op == OP_BARRIER:
                event = Barrier(data[i + 1], data[i + 2])
                i += 3
            elif op == OP_ENQUEUE:
                event = TaskEnqueue(data[i + 1], data[i + 2])
                i += 3
            elif op == OP_DEQUEUE:
                # Replay-only: pop and discard (the recorded stream
                # already contains the branch the response selected).
                self.events_processed += 1
                queue = self._queues.get(data[i + 1])
                item = queue.popleft() if queue else None
                if self.observer is not None:
                    self.observer.on_dequeue(process.pid, data[i + 1],
                                             item is not None)
                i += 2
                continue
            else:
                raise ValueError(f"unknown packed opcode {op} at {i}")
            self.events_processed += 1
            dispatch(process, event)
            if process.blocked or process.in_heap:
                process.chunk_pos = i
                process.chunk_sub = 0
                return False
            if heap and process.time > heap[0][0]:
                process.chunk_pos = i
                process.chunk_sub = 0
                self._push(process)
                return False
        return True

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _dispatch(self, process: _Process, event: TraceEvent) -> None:
        system = self.system
        pid = process.pid
        if type(event) is Read:
            if self.observer is not None:
                self.observer.on_access(pid, event.addr, False)
            process.time = system.data_access(pid, event.addr, False,
                                              process.time)
        elif type(event) is Write:
            if self.observer is not None:
                self.observer.on_access(pid, event.addr, True)
            process.time = system.data_access(pid, event.addr, True,
                                              process.time)
        elif type(event) is Compute:
            if event.cycles:
                system.account_compute(pid, event.cycles,
                                       now=process.time)
                process.time += event.cycles
        elif type(event) is Ifetch:
            process.time = system.ifetch(pid, event.addr, event.count,
                                         process.time)
        elif type(event) is LockAcquire:
            self._lock_acquire(process, event.lock_id)
        elif type(event) is LockRelease:
            self._lock_release(process, event.lock_id)
        elif type(event) is Barrier:
            self._barrier(process, event.barrier_id, event.count)
        elif type(event) is TaskEnqueue:
            if event.item is None:
                # An enqueued None would be indistinguishable from the
                # empty-queue dequeue response.
                raise SyncProtocolError(
                    f"process {pid} enqueued None on queue "
                    f"{event.queue_id}; None is the empty-queue response")
            if self.observer is not None:
                self.observer.on_enqueue(pid, event.queue_id)
            self._queues.setdefault(event.queue_id, deque()).append(
                event.item)
        elif type(event) is TaskDequeue:
            # Look up before defaulting: polls on a missing queue must not
            # allocate a fresh deque per poll.
            queue = self._queues.get(event.queue_id)
            process.response = queue.popleft() if queue else None
            if self.observer is not None:
                self.observer.on_dequeue(pid, event.queue_id,
                                         process.response is not None)
        else:
            raise TypeError(f"process {pid} yielded {event!r}, "
                            f"not a trace event")

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------

    def _lock_acquire(self, process: _Process, lock_id: int) -> None:
        lock = self._locks.setdefault(lock_id, _Lock())
        if lock.holder is None:
            lock.holder = process.pid
            if self.observer is not None:
                self.observer.on_acquire(process.pid, lock_id)
            self.system.account_compute(process.pid, self.lock_overhead,
                                        now=process.time)
            process.time += self.lock_overhead
        else:
            process.blocked = True
            process.block_start = process.time
            lock.waiters.append(process.pid)

    def _lock_release(self, process: _Process, lock_id: int) -> None:
        lock = self._locks.get(lock_id)
        if lock is None or lock.holder != process.pid:
            raise SyncProtocolError(
                f"process {process.pid} released lock {lock_id} "
                f"it does not hold")
        if self.observer is not None:
            self.observer.on_release(process.pid, lock_id)
        self.system.account_compute(process.pid, self.lock_overhead,
                                    now=process.time)
        process.time += self.lock_overhead
        if lock.waiters:
            next_pid = lock.waiters.popleft()
            lock.holder = next_pid
            if self.observer is not None:
                self.observer.on_acquire(next_pid, lock_id)
            self._wake(next_pid, process.time + self.lock_overhead)
        else:
            lock.holder = None

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------

    def _barrier(self, process: _Process, barrier_id: int,
                 count: int) -> None:
        if count < 1:
            raise SyncProtocolError("barrier count must be >= 1")
        waiting = self._barriers.setdefault(barrier_id, [])
        process.blocked = True
        process.block_start = process.time
        waiting.append(process.pid)
        if self.observer is not None:
            self.observer.on_barrier_arrive(process.pid, barrier_id)
        if len(waiting) > count:
            raise SyncProtocolError(
                f"barrier {barrier_id} exceeded its count {count}")
        if len(waiting) == count:
            release = max(self._processes[pid].time for pid in waiting)
            release += self.barrier_overhead
            arrivals = list(waiting)
            waiting.clear()
            if self.observer is not None:
                self.observer.on_barrier_release(barrier_id)
            for pid in arrivals:
                self._wake(pid, release)

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------

    def _wake(self, pid: int, resume_time: int) -> None:
        process = self._processes[pid]
        resume_time = max(resume_time, process.time)
        self.system.account_sync(pid, resume_time - process.block_start,
                                 start=process.block_start)
        process.time = resume_time
        process.blocked = False
        self._push(process)

    def _push(self, process: _Process) -> None:
        if process.in_heap:
            raise RuntimeError(f"process {process.pid} scheduled twice")
        process.in_heap = True
        self._seq += 1
        heapq.heappush(self._heap, (process.time, self._seq, process.pid))

    def _lock_summary(self) -> Dict[int, Optional[int]]:
        return {lock_id: lock.holder
                for lock_id, lock in self._locks.items() if lock.waiters}
