"""Tests for the seeded adversarial tape generator."""

import random

import pytest

from repro.trace.events import Barrier, LockAcquire, LockRelease
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WIDTH, PackedChunk, decode_events)
from repro.verify import (Tape, TapeApplication, generate_tape,
                          tape_from_json, tape_to_json)
from repro.verify.tapes import chunk_cuts

SEEDS = [f"tapes:{i}" for i in range(25)]


class TestGeneration:
    def test_generation_is_deterministic(self):
        first = generate_tape("determinism")
        second = generate_tape("determinism")
        assert first.config_kwargs == second.config_kwargs
        assert first.streams == second.streams

    def test_distinct_seeds_give_distinct_tapes(self):
        tapes = [generate_tape(f"distinct:{i}") for i in range(8)]
        fingerprints = {(tuple(sorted(t.config_kwargs.items())),
                         tuple((p, tuple(s))
                               for p, s in sorted(t.streams.items())))
                        for t in tapes}
        assert len(fingerprints) == len(tapes)

    def test_seed_is_stringified(self):
        assert generate_tape(42).seed == "42"
        assert generate_tape(42).streams == generate_tape("42").streams

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_tapes_are_well_formed(self, seed):
        tape = generate_tape(seed)
        config = tape.config()  # raises if the sampled geometry is bad
        assert set(tape.streams) == set(range(config.total_processors))
        assert tape.total_events() > 0
        for stream in tape.streams.values():
            assert stream  # no empty streams
            list(decode_events(stream))  # every opcode decodes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_locks_are_balanced_within_each_stream(self, seed):
        tape = generate_tape(seed)
        for stream in tape.streams.values():
            held = set()
            for event in decode_events(stream):
                if isinstance(event, LockAcquire):
                    assert event.lock_id not in held
                    held.add(event.lock_id)
                elif isinstance(event, LockRelease):
                    assert event.lock_id in held
                    held.remove(event.lock_id)
            assert not held

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_barriers_are_global_and_matched(self, seed):
        """Every stream arrives at the same barrier episodes with the
        full processor count, so generated tapes cannot deadlock."""
        tape = generate_tape(seed)
        procs = tape.config().total_processors
        episodes = []
        for _pid, stream in sorted(tape.streams.items()):
            barriers = [(e.barrier_id, e.count)
                        for e in decode_events(stream)
                        if isinstance(e, Barrier)]
            assert all(count == procs for _, count in barriers)
            episodes.append(barriers)
        assert all(eps == episodes[0] for eps in episodes)

    def test_generator_reaches_the_whole_envelope(self):
        """Across a modest seed range the sampler hits multiprocessor,
        set-associative, icache-modelling, and MESI machines."""
        configs = [generate_tape(f"envelope:{i}").config()
                   for i in range(60)]
        assert any(c.total_processors > 1 for c in configs)
        assert any(c.total_processors == 1 for c in configs)
        assert any(c.associativity == 2 for c in configs)
        assert any(c.model_icache for c in configs)
        assert any(c.protocol == "mesi" for c in configs)
        assert any(c.protocol == "msi" for c in configs)

    def test_multiprocessor_tapes_contend(self):
        """The closing round of a tape with three processors or more,
        watched on the reference loop: a lock released with two or more
        waiters queued (and so handed from release to waiter at least
        twice), a poll of a queue nobody fills, a barrier id released
        three times -- and one-processor tapes carry no such round."""
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver

        class Polls(dict):
            """The interleaver's task queues, counting the polls of
            queue 2 that find nothing."""
            unfilled = 0

            def get(self, queue_id, default=None):
                queue = super().get(queue_id, default)
                self.unfilled += queue_id == 2 and not queue
                return queue

        class Watcher(TimingInterleaver):
            def __init__(self, system):
                super().__init__(system, backend="python")
                self._queues = Polls()
                self.deepest = self.handed_over = 0
                self.releases = []

            def _lock_release(self, process, lock_id):
                waiting = len(self._locks[lock_id].waiters)
                self.deepest = max(self.deepest, waiting)
                self.handed_over += bool(waiting)
                super()._lock_release(process, lock_id)

            def _barrier(self, process, barrier_id, count):
                super()._barrier(process, barrier_id, count)
                if not self._barriers[barrier_id]:
                    self.releases.append(barrier_id)

        tapes = [generate_tape(f"contend:{i}") for i in range(30)]
        wide = [tape for tape in tapes
                if tape.config().total_processors >= 3][:5]
        assert len(wide) == 5
        for tape in wide:
            watcher = Watcher(MultiprocessorSystem(tape.config()))
            for pid, pieces in TapeApplication(tape).processes(
                    tape.config()).items():
                watcher.add_process(pid, pieces)
            watcher.run()
            procs = tape.config().total_processors
            assert watcher.deepest >= 2 and watcher.handed_over >= 2
            assert watcher._queues.unfilled >= procs
            assert watcher.releases.count(0) == 3
        solo = next(tape for tape in tapes
                    if tape.config().total_processors == 1)
        assert [event.barrier_id for event in decode_events(solo.streams[0])
                if isinstance(event, Barrier)].count(0) == 1


class TestTapeContainer:
    def test_replaced_keeps_machine_and_seed(self):
        tape = generate_tape("replace")
        slim = tape.replaced({0: list(tape.streams[0])})
        assert slim.seed == tape.seed
        assert slim.config_kwargs == tape.config_kwargs
        assert set(slim.streams) == {0}

    def test_application_yields_packed_chunks(self):
        """Each stream arrives whole and in order, as chunks and (for
        some pieces) the event objects they decode to."""
        kinds = set()
        for seed in SEEDS:
            tape = generate_tape(seed)
            processes = TapeApplication(tape).processes(tape.config())
            assert set(processes) == set(tape.streams)
            for pid, iterator in processes.items():
                decoded = []
                for piece in iterator:
                    kinds.add(type(piece) is PackedChunk)
                    decoded.extend(decode_events(piece.data)
                                   if type(piece) is PackedChunk
                                   else [piece])
                assert decoded == list(decode_events(tape.streams[pid]))
        assert kinds == {True, False}

    def test_application_is_a_function_of_the_tape(self):
        tape = generate_tape("application")

        def pieces():
            return {pid: [list(p.data) if type(p) is PackedChunk else p
                          for p in iterator]
                    for pid, iterator in TapeApplication(tape).processes(
                        tape.config()).items()}

        first = pieces()
        random.seed(1234)   # global RNG state must not matter
        assert pieces() == first


def _starts(stream):
    starts, i = [], 0
    while i < len(stream):
        starts.append(i)
        i += OP_WIDTH[stream[i]]
    return starts


class TestChunkCuts:
    STREAMS = [(seed, pid, stream) for seed in SEEDS
               for pid, stream in generate_tape(seed).streams.items()]

    def _cuts(self, seed, pid, stream):
        return chunk_cuts(stream, random.Random(f"{seed}/chunks/{pid}"))

    def test_cuts_are_sorted_opcode_boundaries(self):
        for seed, pid, stream in self.STREAMS:
            cuts = self._cuts(seed, pid, stream)
            assert cuts == sorted(cuts)
            assert set(cuts) <= set(_starts(stream)) | {len(stream)}

    def test_corpus_covers_the_hand_off_shapes(self):
        """Single-chunk streams, empty chunks, a cut on both sides of a
        sync opcode and one between two adjacent computes all occur."""
        seen = set()
        for seed, pid, stream in self.STREAMS:
            cuts = self._cuts(seed, pid, stream)
            if not cuts:
                seen.add("whole")
            edges = [0, *cuts, len(stream)]
            if any(lo == hi for lo, hi in zip(edges, edges[1:])):
                seen.add("empty")
            for at in cuts:
                if at == len(stream):
                    continue
                op = stream[at]
                if (op in (OP_LOCK_ACQ, OP_LOCK_REL, OP_BARRIER)
                        and at + OP_WIDTH[op] in cuts):
                    seen.add("around-sync")
                if op == OP_COMPUTE and at >= 2 \
                        and stream[at - 2] == OP_COMPUTE \
                        and at - 2 in _starts(stream):
                    seen.add("inside-compute-run")
        assert seen == {"whole", "empty", "around-sync",
                        "inside-compute-run"}

    def test_spans_and_unknown_opcodes_are_never_cut_into(self):
        stream = [OP_READ_SPAN, 0, 64, 16, OP_READ, 0, 99, 1, 2,
                  OP_READ, 16]
        for k in range(50):
            cuts = chunk_cuts(stream, random.Random(k))
            assert set(cuts) <= {0, 4, len(stream)}

    def test_empty_stream_has_no_cuts(self):
        assert chunk_cuts([], random.Random(0)) == []


class TestPersistence:
    def test_json_roundtrip(self):
        tape = generate_tape("roundtrip")
        restored = tape_from_json(tape_to_json(tape))
        assert restored.seed == tape.seed
        assert restored.config_kwargs == tape.config_kwargs
        assert restored.streams == tape.streams

    def test_unsupported_version_rejected(self):
        text = tape_to_json(generate_tape("versioned"))
        with pytest.raises(ValueError):
            tape_from_json(text.replace('"version": 1', '"version": 99'))

    def test_hand_built_tape_roundtrips(self):
        tape = Tape(seed="hand", config_kwargs={"clusters": 1,
                                                "scc_size": 512},
                    streams={0: [1, 0, 2, 16]})
        assert tape_from_json(tape_to_json(tape)).streams == tape.streams
