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

Packed chunks: a generator may yield a
:class:`~repro.trace.packed.PackedChunk` of integer-encoded events instead
of individual event objects (see :mod:`repro.trace.packed` for the
validity contract).  Chunks are consumed without resuming the generator,
with the same per-event scheduling checks as the object path.

Two engines run this contract (:mod:`repro.trace.engine`).  The loop in
this module is the *reference*: one event at a time through the
:mod:`repro.core` objects, on every machine, with or without an observer
or probe.  On machines with a direct-mapped power-of-two SCC, the default
snoopy protocol, no observer, and either no probe or the standard
:class:`~repro.instrument.probes.InstrumentationProbe` without its event
log, a ``native`` resolution hands scheduling and every memory event to
the C extension instead (bit-identical statistics and probe registry,
pinned by :mod:`repro.verify`).  A native run shares none of this
module's loop: C resumes the generators and keeps the locks, barriers
and task queues itself, and ``_advance``, ``_dispatch``, the handlers
below and :meth:`~repro.core.system.MultiprocessorSystem.data_access`
are the reference loop's alone.  What the two share is the state at
rest -- the processes, ``_heap``, ``_locks``, ``_barriers``, ``_queues``
-- which either engine leaves as the other would, so a run cut short on
one can carry on on the other.

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

from ..core.cache import DirectMappedArray
from ..core.coherence import CoherenceController
from ..core.system import MultiprocessorSystem
from ..instrument.probes import NULL_PROBE, InstrumentationProbe
from .engine import native_available, resolve_backend
from .events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                     Read, TaskDequeue, TaskEnqueue, TraceEvent, Write)
from .packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE, OP_ENQUEUE,
                     OP_IFETCH, OP_LOCK_ACQ, OP_LOCK_REL, OP_READ,
                     OP_READ_SPAN, OP_WRITE, OP_WRITE_SPAN, PackedChunk)

__all__ = ["TimingInterleaver", "DeadlockError", "SyncProtocolError",
           "fused_replay_ok"]

ProcessGenerator = Generator[TraceEvent, Any, None]


class DeadlockError(RuntimeError):
    """All unfinished processes are blocked on synchronization."""


class SyncProtocolError(RuntimeError):
    """A process misused a lock, barrier, or task queue (e.g. released a
    lock it does not hold, or enqueued ``None``)."""


def fused_replay_ok(config) -> bool:
    """Whether one recorded tape on ``config`` can drive the fused
    multi-configuration engine (:mod:`repro.trace.multiconfig`).

    Stricter than the interleaver's own ``_native_eligible``: the fused
    engine inlines the single-process scheduling loop, so it needs
    exactly one processor (interleave order is then
    configuration-independent and the size-ladder inclusion argument
    holds), the plain shared-SCC snoopy machine, direct-mapped
    power-of-two geometry, write buffering enabled
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
                 observer=None, backend: Optional[str] = None):
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
        # The native engine is only exact for the plain shared-SCC
        # machine: snoopy MSI/MESI protocol, direct-mapped arrays with a
        # power-of-two line count (mask/shift indexing), no observer,
        # and a probe it can stand in for -- none, or exactly the
        # standard one with no event log (C bins what its callbacks
        # would; the log, a subclass's overrides and a duck-typed
        # probe's methods need the calls themselves).  Everything else
        # runs the reference loop whatever the backend resolves to.
        lines = config.scc_lines
        probe = system.probe
        self._native_eligible = (
            observer is None
            and type(system) is MultiprocessorSystem
            and type(system.coherence) is CoherenceController
            and (probe is NULL_PROBE
                 or (type(probe) is InstrumentationProbe
                     and probe.events is None))
            and lines & (lines - 1) == 0
            and all(type(cluster.scc.array) is DirectMappedArray
                    for cluster in system.clusters))
        if self._native_eligible:
            self._proc_cluster = [config.cluster_of(p)
                                  for p in range(config.total_processors)]
        # Engine request (repro.trace.engine): an execution knob, never
        # an identity knob -- both engines are fingerprint-identical, so
        # results and cache keys do not depend on it.  ``None`` defers
        # to $REPRO_ENGINE (default ``auto``).
        self.backend_requested = backend
        self.backend = resolve_backend(backend)
        self.engine_used: Optional[str] = None
        """Concrete engine the last :meth:`run` executed on: ``python``
        (the reference loop) or ``native``."""
        self.engine_returns: Dict[str, int] = {}
        """How often the native engine's C loop handed control back to
        python during the last :meth:`run`, by reason; empty on the
        reference loop.  ``refill``, ``sync`` and ``object`` were the
        reasons while python resumed the generators and ran the sync
        handlers; C does both now, so all three read zero (returns of
        ``_native.run`` are counted, not generator resumes)."""

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
        if (self._native_eligible and self.backend == "native"
                and native_available()):
            from .engine import native as native_backend
            self.engine_used = "native"
            finish_time = native_backend.run(self, max_cycles)
        else:
            # Also where a native resolution lands when the extension
            # disappeared afterwards (e.g. cache cleared mid-process).
            self.engine_used = "python"
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
        next-earliest process.  Returns its finish time if it ended."""
        heap = self._heap
        while True:
            if process.chunk is not None:
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

    def _consume_chunk_generic(self, process: _Process,
                               max_cycles: Optional[int]) -> bool:
        """Drain ``process.chunk`` through the per-event dispatch.

        Runs every machine.  Avoids the per-event generator resume of
        the object path.
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
                if size > 0 and stride <= 0:
                    # The element loop below would spin forever; same
                    # error as the native ladder.
                    raise ValueError(f"non-positive span stride at {i}")
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
