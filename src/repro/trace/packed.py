"""Packed (allocation-free) encoding of the trace-event vocabulary.

Frozen-dataclass events (:mod:`repro.trace.events`) are convenient to
author but expensive to simulate: a quick Barnes-Hut run allocates one
object and one ``generator.send`` round trip per reference, and that
Python churn -- not the cache model -- dominates wall-clock time.  This
module encodes the same vocabulary as integer opcodes in flat ``int``
sequences (``list`` while being built, ``array('q')`` at rest).  Both
engines consume a chunk without resuming the generator per event; the
native engine also allocates no event object (the reference loop decodes
each one for its per-event dispatch -- see ``TimingInterleaver``'s chunk
consumer and :mod:`repro.trace.engine`).

Encoding (one row per opcode; all operands are non-negative ints):

=================  =============================  =========================
opcode             operands                       event(s)
=================  =============================  =========================
``OP_READ``        ``addr``                       ``Read(addr)``
``OP_WRITE``       ``addr``                       ``Write(addr)``
``OP_COMPUTE``     ``cycles``                     ``Compute(cycles)``
``OP_IFETCH``      ``addr count``                 ``Ifetch(addr, count)``
``OP_LOCK_ACQ``    ``lock_id``                    ``LockAcquire(lock_id)``
``OP_LOCK_REL``    ``lock_id``                    ``LockRelease(lock_id)``
``OP_BARRIER``     ``barrier_id count``           ``Barrier(id, count)``
``OP_ENQUEUE``     ``queue_id item``              ``TaskEnqueue(qid, item)``
``OP_DEQUEUE``     ``queue_id``                   ``TaskDequeue(qid)``
``OP_READ_SPAN``   ``base size stride``           ``Read(base+k*stride)``
``OP_WRITE_SPAN``  ``base size stride``           ``Write(base+k*stride)``
=================  =============================  =========================

The span opcodes compress the streaming loops every workload has (read a
record, write a column) into three ints regardless of length.

Chunk-validity contract
-----------------------

A generator may yield a :class:`PackedChunk` of consecutive events instead
of yielding them one by one **iff** moving the Python-side computation to
the chunk boundaries cannot change what any process observes:

1. every address/cycle operand in the chunk is computable from state that
   cannot change while the chunk drains (other processes may run between
   chunk events -- simulated time still interleaves exactly as before);
2. no shared-Python-state mutation moves relative to the original yield
   positions in a way another process could observe (mutations are fine
   at chunk boundaries, where the generator actually runs).

A chunk may carry synchronization opcodes (a process blocked at one
carries on, when woken, from the chunk's next event), so a
timing-dependent section -- lock-racing tree inserts, reads of data a
peer mutates mid-phase -- is packed by the same two rules: its chunks
*end at every touch of the racy state*, which the generator reads or
mutates at the resume (Barnes-Hut's ``_insert_phase`` is the worked
example).  Event objects stay valid anywhere, side by side with chunks.

``OP_DEQUEUE`` is special: a live workload needs the dequeue *response*
to branch on, which a pre-encoded chunk cannot receive, so the opcode is
only valid in whole-stream recordings replayed under the determinism
guard (:meth:`repro.workloads.base.TracedApplication
.stream_is_deterministic`); the interleaver pops the queue and discards
the item, because the recorded stream already contains the branch taken.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Sequence, Union

from .events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                     Read, TaskDequeue, TaskEnqueue, TraceEvent, Write)

__all__ = [
    "OP_READ", "OP_WRITE", "OP_COMPUTE", "OP_IFETCH", "OP_LOCK_ACQ",
    "OP_LOCK_REL", "OP_BARRIER", "OP_ENQUEUE", "OP_DEQUEUE",
    "OP_READ_SPAN", "OP_WRITE_SPAN", "OP_WIDTH",
    "PackedChunk", "PackedEncodingError",
    "append_event", "encode_events", "decode_events", "event_count",
    "record_width",
    "packed_to_bytes", "packed_from_bytes",
]

OP_READ = 1
OP_WRITE = 2
OP_COMPUTE = 3
OP_IFETCH = 4
OP_LOCK_ACQ = 5
OP_LOCK_REL = 6
OP_BARRIER = 7
OP_ENQUEUE = 8
OP_DEQUEUE = 9
OP_READ_SPAN = 10
OP_WRITE_SPAN = 11

OP_WIDTH = {
    OP_READ: 2, OP_WRITE: 2, OP_COMPUTE: 2, OP_IFETCH: 3,
    OP_LOCK_ACQ: 2, OP_LOCK_REL: 2, OP_BARRIER: 3, OP_ENQUEUE: 3,
    OP_DEQUEUE: 2, OP_READ_SPAN: 4, OP_WRITE_SPAN: 4,
}
"""Ints occupied by each opcode, including the opcode itself."""

PackedData = Union[List[int], array]


class PackedEncodingError(TypeError):
    """An event cannot be represented in the packed encoding."""


class PackedChunk:
    """A run of consecutive events from one process, packed as ints.

    Yield one of these from a process generator instead of the individual
    events.  ``data`` may be any int sequence; generators that reuse a
    builder list across chunks are safe, because the interleaver fully
    consumes a chunk before resuming the generator that yielded it.
    """

    __slots__ = ("data",)

    def __init__(self, data: Sequence[int]):
        self.data = data

    def __len__(self) -> int:
        return event_count(self.data)

    def __repr__(self) -> str:
        return f"PackedChunk({event_count(self.data)} events)"


def append_event(buf: PackedData, event: TraceEvent) -> None:
    """Encode one event object onto ``buf`` (a recording adapter helper)."""
    kind = type(event)
    if kind is Read:
        buf.append(OP_READ)
        buf.append(event.addr)
    elif kind is Write:
        buf.append(OP_WRITE)
        buf.append(event.addr)
    elif kind is Compute:
        buf.append(OP_COMPUTE)
        buf.append(event.cycles)
    elif kind is Ifetch:
        buf.append(OP_IFETCH)
        buf.append(event.addr)
        buf.append(event.count)
    elif kind is LockAcquire:
        buf.append(OP_LOCK_ACQ)
        buf.append(event.lock_id)
    elif kind is LockRelease:
        buf.append(OP_LOCK_REL)
        buf.append(event.lock_id)
    elif kind is Barrier:
        buf.append(OP_BARRIER)
        buf.append(event.barrier_id)
        buf.append(event.count)
    elif kind is TaskEnqueue:
        if not isinstance(event.item, int) or isinstance(event.item, bool):
            raise PackedEncodingError(
                f"packed TaskEnqueue items must be plain ints, "
                f"got {event.item!r}")
        buf.append(OP_ENQUEUE)
        buf.append(event.queue_id)
        buf.append(event.item)
    elif kind is TaskDequeue:
        buf.append(OP_DEQUEUE)
        buf.append(event.queue_id)
    else:
        raise PackedEncodingError(f"{event!r} is not a trace event")


def encode_events(events) -> array:
    """Pack an iterable of event objects into a fresh ``array('q')``."""
    buf = array("q")
    for event in events:
        append_event(buf, event)
    return buf


def decode_events(data: PackedData) -> Iterator[TraceEvent]:
    """Expand packed ints back into event objects (spans element-wise).

    The objects compare equal to the ones a generator-path workload would
    have yielded, which is what the golden-equivalence suite leans on.
    A malformed record raises :func:`record_width`'s ``ValueError``.
    """
    i = 0
    end = len(data)
    while i < end:
        width = record_width(data, i)
        op = data[i]
        if op == OP_READ:
            yield Read(data[i + 1])
        elif op == OP_WRITE:
            yield Write(data[i + 1])
        elif op == OP_COMPUTE:
            yield Compute(data[i + 1])
        elif op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            cls = Read if op == OP_READ_SPAN else Write
            base, size, stride = data[i + 1], data[i + 2], data[i + 3]
            if size > 0:
                for offset in range(0, size, stride):
                    yield cls(base + offset)
        elif op == OP_IFETCH:
            yield Ifetch(data[i + 1], data[i + 2])
        elif op == OP_LOCK_ACQ:
            yield LockAcquire(data[i + 1])
        elif op == OP_LOCK_REL:
            yield LockRelease(data[i + 1])
        elif op == OP_BARRIER:
            yield Barrier(data[i + 1], data[i + 2])
        elif op == OP_ENQUEUE:
            yield TaskEnqueue(data[i + 1], data[i + 2])
        else:   # OP_DEQUEUE, the last opcode ``record_width`` knows
            yield TaskDequeue(data[i + 1])
        i += width


def record_width(data: PackedData, index: int) -> int:
    """Ints the record at ``index`` occupies, once it is known to be
    walkable: a known opcode, every operand inside ``data``, and -- a
    non-empty span -- a positive stride.  For walkers of tapes that may
    come from disk; raises ``ValueError`` in the engines' words."""
    op = data[index]
    width = OP_WIDTH.get(op)
    if width is None:
        raise ValueError(f"unknown packed opcode {op} at word {index}")
    if index + width > len(data):
        raise ValueError(f"truncated packed record at word {index}")
    if ((op == OP_READ_SPAN or op == OP_WRITE_SPAN)
            and data[index + 2] > 0 and data[index + 3] <= 0):
        raise ValueError(f"non-positive span stride at {index}")
    return width


def event_count(data: PackedData) -> int:
    """Events a packed sequence expands to (spans counted element-wise);
    a malformed record raises :func:`record_width`'s ``ValueError``."""
    i = 0
    end = len(data)
    count = 0
    while i < end:
        width = record_width(data, i)
        op = data[i]
        if op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            size, stride = data[i + 2], data[i + 3]
            if size > 0:
                count += (size + stride - 1) // stride
        else:
            count += 1
        i += width
    return count


def packed_to_bytes(data: PackedData) -> bytes:
    """Serialize a packed sequence (trace-cache storage)."""
    if not isinstance(data, array):
        data = array("q", data)
    return data.tobytes()


def packed_from_bytes(raw) -> array:
    """Inverse of :func:`packed_to_bytes` (``raw``: any bytes-like
    object, a ``memoryview`` slice included)."""
    data = array("q")
    data.frombytes(raw)
    return data
