"""Tests for the packed (integer-opcode) event encoding."""

from array import array

import pytest

from repro.core.config import SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.events import (Barrier, Compute, Ifetch, LockAcquire,
                                LockRelease, Read, TaskDequeue, TaskEnqueue,
                                Write)
from repro.trace.interleave import TimingInterleaver
from repro.trace.packed import (OP_COMPUTE, OP_READ, OP_READ_SPAN, OP_WRITE,
                                OP_WRITE_SPAN, PackedChunk,
                                PackedEncodingError, append_event,
                                decode_events, encode_events, event_count,
                                packed_from_bytes, packed_to_bytes)

from ..model.test_profile import HOSTILE_TAPES

ALL_EVENTS = [
    Read(0x100), Write(0x108), Compute(25), Ifetch(0x4000, 8),
    LockAcquire(3), LockRelease(3), Barrier(1, 4), TaskEnqueue(2, 17),
    TaskDequeue(2),
]


class TestRoundTrip:
    def test_encode_decode_identity(self):
        packed = encode_events(ALL_EVENTS)
        assert list(decode_events(packed)) == ALL_EVENTS

    def test_event_count_matches_decode(self):
        packed = encode_events(ALL_EVENTS)
        assert event_count(packed) == len(ALL_EVENTS)

    def test_spans_decode_elementwise(self):
        data = [OP_READ_SPAN, 1000, 24, 8, OP_WRITE_SPAN, 2000, 16, 8]
        assert list(decode_events(data)) == [
            Read(1000), Read(1008), Read(1016), Write(2000), Write(2008)]
        assert event_count(data) == 5

    def test_bytes_round_trip(self):
        packed = encode_events(ALL_EVENTS)
        again = packed_from_bytes(packed_to_bytes(packed))
        assert isinstance(again, array)
        assert list(again) == list(packed)

    def test_bytes_accepts_plain_lists(self):
        data = [OP_READ, 64, OP_COMPUTE, 5]
        assert list(packed_from_bytes(packed_to_bytes(data))) == data


class TestEncodingErrors:
    def test_non_int_enqueue_item_rejected(self):
        with pytest.raises(PackedEncodingError):
            append_event([], TaskEnqueue(0, "task"))

    def test_bool_enqueue_item_rejected(self):
        # bools are ints in Python but would decode as 0/1 ints.
        with pytest.raises(PackedEncodingError):
            append_event([], TaskEnqueue(0, True))

    def test_non_event_rejected(self):
        with pytest.raises(PackedEncodingError):
            append_event([], "not an event")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            list(decode_events([99, 0]))
        with pytest.raises(ValueError):
            event_count([99, 0])

    @pytest.mark.parametrize("stream, message", [
        *HOSTILE_TAPES,
        pytest.param([OP_READ_SPAN, 0, 8, 0],
                     "non-positive span stride at 0", id="zero-stride-first"),
        pytest.param([OP_READ, 5, OP_WRITE],
                     "truncated packed record at word 2", id="cut-last-write"),
    ])
    def test_malformed_records_raise_the_engines_words(self, stream,
                                                       message):
        """Both walkers read a tape record by record through
        ``record_width``: the ``ValueError`` every other walker raises,
        where they used to divide by a zero stride, count a cut-off
        record, count a negative stride as nothing or raise ``range``'s
        and ``IndexError``'s words."""
        for data in (stream, array("q", stream)):
            for walk in (event_count, lambda tape: list(decode_events(tape))):
                with pytest.raises(ValueError) as caught:
                    walk(data)
                assert str(caught.value) == message

    def test_an_empty_span_is_no_events_whatever_its_stride(self):
        for stride in (0, -8, 8):
            data = [OP_WRITE_SPAN, 64, 0, stride, OP_READ_SPAN, 0, -8, stride]
            assert event_count(data) == 0
            assert list(decode_events(data)) == []


class TestPackedChunk:
    def test_len_counts_events(self):
        chunk = PackedChunk([OP_READ, 0, OP_READ_SPAN, 0, 24, 8])
        assert len(chunk) == 4
        assert "4 events" in repr(chunk)


def run_both_ways(events, **config_overrides):
    """Simulate the same stream as objects and as one packed chunk."""
    times = []
    for packed in (False, True):
        defaults = dict(clusters=1, processors_per_cluster=1)
        defaults.update(config_overrides)
        config = SystemConfig(**defaults)
        system = MultiprocessorSystem(config)
        interleaver = TimingInterleaver(system)
        if packed:
            def generator():
                yield PackedChunk(encode_events(events))
            interleaver.add_process(0, generator())
        else:
            interleaver.add_process(0, iter(list(events)))
        times.append((interleaver.run(), interleaver.events_processed))
    return times


class TestChunkEquivalence:
    def test_chunk_equals_object_stream(self):
        events = [Read(0x100), Compute(10), Write(0x100), Read(0x140),
                  Write(0x2000), Compute(3), Read(0x100)]
        object_run, packed_run = run_both_ways(events)
        assert packed_run == object_run

    def test_chunk_equals_object_stream_with_sync(self):
        events = [LockAcquire(0), Read(0x80), Write(0x80), LockRelease(0),
                  Barrier(0, 1), Compute(7)]
        object_run, packed_run = run_both_ways(events)
        assert packed_run == object_run

    def test_chunk_equals_object_stream_with_icache(self):
        events = [Ifetch(0x1000, 8), Read(0x80), Ifetch(0x1020, 8),
                  Ifetch(0x9000, 4), Compute(5)]
        object_run, packed_run = run_both_ways(events, model_icache=True)
        assert packed_run == object_run
