"""Tango-Lite-equivalent tracing substrate.

A reference stream has one representation at rest: packed words
(:mod:`~repro.trace.packed`), which workloads yield as chunks and
:class:`StreamRecorder` tapes into the one on-disk format,
:class:`TraceCache`'s.  Beside it sit the event objects both engines
also accept (:mod:`~repro.trace.events`), the timing-feedback
interleaver (:mod:`~repro.trace.interleave`), whole-stream record/replay
(:mod:`~repro.trace.record`), the fused ladder
(:mod:`~repro.trace.multiconfig`) and reuse-distance analysis
(:mod:`~repro.trace.analysis`).
"""

from .._lazy import lazy_exports

__all__ = [
    "Barrier", "Compute", "Ifetch", "LockAcquire", "LockRelease", "Read",
    "TaskDequeue", "TaskEnqueue", "TraceEvent", "Write", "is_memory_event",
    "DeadlockError", "SyncProtocolError", "TimingInterleaver",
    "PackedChunk", "PackedEncodingError", "append_event", "decode_events",
    "encode_events", "event_count", "packed_from_bytes", "packed_to_bytes",
    "ReplayApplication", "StreamRecorder", "TraceCache",
    "default_trace_cache",
    "data_lines", "miss_ratio_curve", "stack_distances",
    "working_set_lines",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": ("data_lines", "miss_ratio_curve", "stack_distances",
                  "working_set_lines"),
    ".events": ("Barrier", "Compute", "Ifetch", "LockAcquire", "LockRelease",
                "Read", "TaskDequeue", "TaskEnqueue", "TraceEvent", "Write",
                "is_memory_event"),
    ".interleave": ("DeadlockError", "SyncProtocolError", "TimingInterleaver"),
    ".packed": ("PackedChunk", "PackedEncodingError", "append_event",
                "decode_events", "encode_events", "event_count",
                "packed_from_bytes", "packed_to_bytes"),
    ".record": ("ReplayApplication", "StreamRecorder", "TraceCache",
                "default_trace_cache"),
})
