"""Packed (allocation-free) encoding of the trace-event vocabulary.

Frozen-dataclass events (:mod:`repro.trace.events`) are convenient to
author but expensive to simulate: a quick Barnes-Hut run allocates one
object and one ``generator.send`` round trip per reference, and that
Python churn -- not the cache model -- dominates wall-clock time.  This
module encodes the same vocabulary as integer opcodes in flat ``int``
sequences (``list`` while being built, ``array('q')`` at rest).  Both
engines drain int64 words alone, without resuming the generator per event
and without building an event object: an event object a generator yields
is packed into a chunk of one (:data:`EVENT_CODES`, the one class ->
opcode table) before either engine runs it.

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
from dataclasses import fields
from typing import Iterator, List, Sequence, Union

from .events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                     Read, TaskDequeue, TaskEnqueue, TraceEvent, Write)

__all__ = [
    "OP_READ", "OP_WRITE", "OP_COMPUTE", "OP_IFETCH", "OP_LOCK_ACQ",
    "OP_LOCK_REL", "OP_BARRIER", "OP_ENQUEUE", "OP_DEQUEUE",
    "OP_READ_SPAN", "OP_WRITE_SPAN", "OP_WIDTH", "EVENT_CODES",
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

EVENT_CODES = {
    cls: (op, tuple(field.name for field in fields(cls)))
    for cls, op in ((Read, OP_READ), (Write, OP_WRITE),
                    (Compute, OP_COMPUTE), (Ifetch, OP_IFETCH),
                    (LockAcquire, OP_LOCK_ACQ), (LockRelease, OP_LOCK_REL),
                    (Barrier, OP_BARRIER), (TaskEnqueue, OP_ENQUEUE),
                    (TaskDequeue, OP_DEQUEUE))}
"""Each event class's opcode and the attributes its operands are read
from, in word order: how :func:`append_event`, :func:`decode_events`,
the reference loop and the native engine all pack an event object."""

_EVENT_CLASSES = {op: cls for cls, (op, _) in EVENT_CODES.items()}

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
    code = EVENT_CODES.get(type(event))
    if code is None:
        raise PackedEncodingError(f"{event!r} is not a trace event")
    op, names = code
    if op == OP_ENQUEUE and (not isinstance(event.item, int)
                             or isinstance(event.item, bool)):
        raise PackedEncodingError(
            f"packed TaskEnqueue items must be plain ints, "
            f"got {event.item!r}")
    buf.append(op)
    for name in names:
        buf.append(getattr(event, name))


def encode_events(events) -> array:
    """Pack an iterable of event objects into a fresh ``array('q')``."""
    buf = array("q")
    for event in events:
        append_event(buf, event)
    return buf


def decode_events(data: PackedData) -> Iterator[TraceEvent]:
    """Expand packed ints back into event objects (spans element-wise).

    Workloads yield only packed words for their references; this is the
    way back to objects, for the shrinker (:mod:`repro.verify.shrink`),
    the fuzz tapes' event-object pieces (:mod:`repro.verify.tapes`) and
    the golden suite's run of a workload's decoded stream.  A malformed
    record raises :func:`record_width`'s ``ValueError``.
    """
    i = 0
    end = len(data)
    while i < end:
        width = record_width(data, i)
        op = data[i]
        if op == OP_READ_SPAN or op == OP_WRITE_SPAN:
            cls = _EVENT_CLASSES[OP_READ if op == OP_READ_SPAN else OP_WRITE]
            base, size, stride = data[i + 1], data[i + 2], data[i + 3]
            if size > 0:
                for offset in range(0, size, stride):
                    yield cls(base + offset)
        else:
            yield _EVENT_CLASSES[op](*data[i + 1:i + width])
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
