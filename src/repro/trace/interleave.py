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
validity contract).  The loop reads opcode words and nothing else: a
chunk is installed as ``array('q')`` words (an ``array('q')`` in place,
anything else copied), an event object is packed into a chunk of one
through :data:`~repro.trace.packed.EVENT_CODES`, and one drain
(:meth:`TimingInterleaver._drain`) runs either, with no generator resume
per event and no event object built.  The task-queue pair is the
exception: ``TaskEnqueue`` / ``TaskDequeue`` objects carry python items
and move no clock, so they run on the deques at the resume.

Two engines run this contract (:mod:`repro.trace.engine`), in one shape.
The loop in this module is the *reference*: one event at a time through
the :mod:`repro.core` objects, on every machine, with or without an
observer or probe.  On machines with a direct-mapped power-of-two SCC,
the default snoopy protocol, no observer and no probe, a ``native``
resolution hands scheduling and every memory event to the C extension
instead (bit-identical statistics, pinned by :mod:`repro.verify`).  A
probe's callbacks are called by the :mod:`repro.core` objects alone, so a
probed run is always this loop's.  A native run shares none of this
module's loop: C resumes the generators, packs event objects and keeps the
locks, barriers and task queues itself, and ``_advance``, ``_drain``, the
handlers below and
:meth:`~repro.core.system.MultiprocessorSystem.data_access` are the
reference loop's alone.  What the two share is the state at rest -- the
processes, ``_heap``, ``_locks``, ``_barriers``, ``_queues`` -- which
either engine leaves as the other would, so a run cut short on one can
carry on on the other.

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
from array import array
from collections import deque
from typing import Any, Deque, Dict, Generator, List, Optional, Tuple

from ..core.cache import DirectMappedArray
from ..core.coherence import CoherenceController
from ..core.system import MultiprocessorSystem
from ..instrument.probes import NULL_PROBE
from .engine import resolve_backend
from .events import TaskDequeue, TaskEnqueue, TraceEvent
from .packed import (EVENT_CODES, OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                     OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ, OP_LOCK_REL,
                     OP_READ, OP_READ_SPAN, OP_WIDTH, OP_WRITE,
                     OP_WRITE_SPAN, PackedChunk)

__all__ = ["TimingInterleaver", "DeadlockError", "SyncProtocolError"]

ProcessGenerator = Generator[TraceEvent, Any, None]


class DeadlockError(RuntimeError):
    """All unfinished processes are blocked on synchronization."""


class SyncProtocolError(RuntimeError):
    """A process misused a lock, barrier, or task queue (e.g. released a
    lock it does not hold, or enqueued ``None``)."""


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
        # Packed-chunk consumption state: the int64 words being drained
        # (``array('q')``, or the list a native run hands back), the next
        # position in them, and the byte offset inside a partially drained
        # span opcode.
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

    def __init__(self, system: MultiprocessorSystem, observer=None,
                 backend: Optional[str] = None):
        self.system = system
        self.observer = observer
        """Optional data-reference observer (e.g.
        :class:`repro.verify.oracle.FunctionalOracle`): its one method,
        ``on_access(pid, addr, is_write)``, is called for every read and
        write before the machine sees it."""
        config = system.config
        self.lock_overhead = config.lock_overhead
        self.barrier_overhead = config.barrier_overhead
        self._processes: Dict[int, _Process] = {}
        self._heap: List[Tuple[int, int, int]] = []
        self._seq = 0
        self._locks: Dict[int, _Lock] = {}
        self._barriers: Dict[int, List[int]] = {}
        self._queues: Dict[int, Deque[Any]] = {}
        self.events_processed = 0
        self.generator_resumes = 0
        """Resumes through the iterator protocol, by either engine: every
        ``next`` / ``send`` of the reference loop, every ``PyIter_Send``
        of a native run.  A process the native engine steps itself (an
        MP3D process, ``_native.c``) writes its chunks without one."""
        # The native engine is only exact for the plain shared-SCC
        # machine: snoopy MSI/MESI protocol, direct-mapped arrays with a
        # power-of-two line count (mask/shift indexing), lines of more
        # than one byte (C's lost-line table marks an empty slot with the
        # one line only a one-byte line can be), no observer and no probe
        # (a probe needs its callbacks called, and only the repro.core
        # objects call them).  Everything else runs the reference loop
        # whatever the backend resolves to.
        lines = config.scc_lines
        self._native_eligible = (
            observer is None
            and config.line_size > 1
            and type(system) is MultiprocessorSystem
            and type(system.coherence) is CoherenceController
            and system.probe is NULL_PROBE
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
        self.backend = resolve_backend(backend)
        self.engine_used: Optional[str] = None
        """Concrete engine the last :meth:`run` executed on: ``python``
        (the reference loop) or ``native``."""

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
        if self._native_eligible and self.backend == "native":
            from .engine import native as native_backend
            self.engine_used = "native"
            finish_time = native_backend.run(self, max_cycles)
        else:
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
        while True:
            if process.chunk is not None:
                if not self._drain(process, max_cycles):
                    return None
                process.chunk = None
                process.chunk_pos = process.chunk_sub = 0
            if max_cycles is not None and process.time > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles")
            self.generator_resumes += 1
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
            kind = type(event)
            if kind is PackedChunk:
                data = event.data
                if type(data) is not array or data.typecode != "q":
                    data = array("q", data)
                process.chunk = data
            elif kind is TaskEnqueue:
                self.events_processed += 1
                if event.item is None:
                    # An enqueued None would be indistinguishable from the
                    # empty-queue dequeue response.
                    raise SyncProtocolError(
                        f"process {process.pid} enqueued None on queue "
                        f"{event.queue_id}; None is the empty-queue "
                        f"response")
                self._queues.setdefault(event.queue_id, deque()).append(
                    event.item)
            elif kind is TaskDequeue:
                self.events_processed += 1
                # Look up before defaulting: polls on a missing queue must
                # not allocate a fresh deque per poll.
                queue = self._queues.get(event.queue_id)
                process.response = queue.popleft() if queue else None
            else:
                code = EVENT_CODES.get(kind)
                if code is None:
                    self.events_processed += 1
                    raise TypeError(f"process {process.pid} yielded "
                                    f"{event!r}, not a trace event")
                op, names = code
                process.chunk = array(
                    "q", [op, *[getattr(event, name) for name in names]])
                try:
                    running = self._drain(process, max_cycles)
                finally:
                    # A chunk of one is spent before anything can stop
                    # the run: none is left at rest.
                    process.chunk = None
                    process.chunk_pos = process.chunk_sub = 0
                if not running:
                    return None

    def _drain(self, process: _Process, max_cycles: Optional[int]) -> bool:
        """Run ``process.chunk``'s opcode words from where the process
        stands, one event per iteration (C's drain loop in ``run``).
        ``True`` once every word is done; ``False`` when the process
        blocked, was scheduled again, or fell behind the earliest ready
        process.  Whatever happens, a raise included, the process is left
        standing at its next event."""
        data = process.chunk
        i = process.chunk_pos
        sub = process.chunk_sub
        end = len(data)
        heap = self._heap
        system = self.system
        observer = self.observer
        pid = process.pid
        try:
            while i < end:
                op = data[i]
                span = op == OP_READ_SPAN or op == OP_WRITE_SPAN
                if span and sub >= data[i + 2]:
                    # an empty span: no event to count, or to stop at
                    i += 4
                    sub = 0
                    continue
                if max_cycles is not None and process.time > max_cycles:
                    raise RuntimeError(
                        f"simulation exceeded {max_cycles} cycles")
                if span and data[i + 3] <= 0:
                    # the element walk would never end
                    raise ValueError(f"non-positive span stride at {i}")
                if op not in OP_WIDTH:
                    raise ValueError(f"unknown packed opcode {op} at {i}")
                self.events_processed += 1
                if span or op == OP_READ or op == OP_WRITE:
                    if span:
                        addr = data[i + 1] + sub
                        is_write = op == OP_WRITE_SPAN
                    else:
                        addr = data[i + 1]
                        is_write = op == OP_WRITE
                        i += 2
                    if observer is not None:
                        observer.on_access(pid, addr, is_write)
                    process.time = system.data_access(pid, addr, is_write,
                                                      process.time)
                    if span:
                        sub += data[i + 3]
                        if sub >= data[i + 2]:
                            i += 4
                            sub = 0
                elif op == OP_COMPUTE:
                    cycles = data[i + 1]
                    i += 2
                    if cycles:
                        system.account_compute(pid, cycles, now=process.time)
                        process.time += cycles
                elif op == OP_IFETCH:
                    process.time = system.ifetch(pid, data[i + 1],
                                                 data[i + 2], process.time)
                    i += 3
                elif op == OP_ENQUEUE:
                    self._queues.setdefault(data[i + 1], deque()).append(
                        data[i + 2])
                    i += 3
                elif op == OP_DEQUEUE:
                    # Replay-only: pop and discard (the recorded stream
                    # already contains the branch the response selected).
                    queue = self._queues.get(data[i + 1])
                    if queue:
                        queue.popleft()
                    i += 2
                else:
                    if op == OP_BARRIER:
                        i += 3
                        self._barrier(process, data[i - 2], data[i - 1])
                    elif op == OP_LOCK_ACQ:
                        i += 2
                        self._lock_acquire(process, data[i - 1])
                    else:
                        i += 2
                        self._lock_release(process, data[i - 1])
                    if process.blocked or process.in_heap:
                        # (the releasing arrival of a barrier is scheduled
                        # already; running on would schedule it twice)
                        return False
                if heap and process.time > heap[0][0]:
                    self._push(process)
                    return False
            return True
        finally:
            process.chunk_pos = i
            process.chunk_sub = sub

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------

    def _lock_acquire(self, process: _Process, lock_id: int) -> None:
        lock = self._locks.setdefault(lock_id, _Lock())
        if lock.holder is None:
            lock.holder = process.pid
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
        self.system.account_compute(process.pid, self.lock_overhead,
                                    now=process.time)
        process.time += self.lock_overhead
        if lock.waiters:
            next_pid = lock.waiters.popleft()
            lock.holder = next_pid
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
        if len(waiting) > count:
            raise SyncProtocolError(
                f"barrier {barrier_id} exceeded its count {count}")
        if len(waiting) == count:
            release = max(self._processes[pid].time for pid in waiting)
            release += self.barrier_overhead
            arrivals = list(waiting)
            waiting.clear()
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
