"""Tests for tape repair, delta-debugging, and repro persistence."""

import json

import pytest

from repro.trace.events import (Barrier, LockAcquire, LockRelease, Read,
                                Write)
from repro.trace.packed import decode_events
from repro.verify import (PathResult, Tape, TapeDivergence, generate_tape,
                          shrink_tape, tape_from_json, write_repro)
from repro.verify.shrink import default_repro_dir, repair


class TestRepair:
    def test_balanced_streams_pass_through(self):
        events = [LockAcquire(1), Write(0), LockRelease(1), Read(16)]
        assert repair({0: list(events)}) == {0: events}

    def test_reacquire_of_held_lock_dropped(self):
        repaired = repair({0: [LockAcquire(1), LockAcquire(1), Write(0),
                               LockRelease(1)]})
        assert repaired[0] == [LockAcquire(1), Write(0), LockRelease(1)]

    def test_release_of_unheld_lock_dropped(self):
        repaired = repair({0: [LockRelease(1), Write(0)]})
        assert repaired[0] == [Write(0)]

    def test_unmatched_acquire_dropped(self):
        repaired = repair({0: [Read(0), LockAcquire(1), Write(16)]})
        assert repaired[0] == [Read(0), Write(16)]

    def test_barrier_counts_truncated_to_minimum(self):
        repaired = repair({
            0: [Barrier(0, 2), Write(0), Barrier(0, 2)],
            1: [Barrier(0, 2)],
        })
        assert repaired[0] == [Barrier(0, 2), Write(0)]
        assert repaired[1] == [Barrier(0, 2)]

    def test_barrier_missing_from_one_stream_dropped_everywhere(self):
        repaired = repair({
            0: [Write(0), Barrier(3, 2)],
            1: [Read(0)],
        })
        assert repaired[0] == [Write(0)]
        assert repaired[1] == [Read(0)]

    def test_generated_tapes_are_repair_fixpoints(self):
        tape = generate_tape("repair:0")
        decoded = {pid: list(decode_events(stream))
                   for pid, stream in tape.streams.items()}
        assert repair(decoded) == decoded


def _has_target_write(candidate: Tape, pid: int, addr: int) -> bool:
    return any(isinstance(event, Write) and event.addr == addr
               for event in decode_events(candidate.streams.get(pid, [])))


class TestShrink:
    def test_shrinks_to_the_single_relevant_event(self):
        """ddmin against a synthetic predicate ("stream still contains
        the marked write") reduces a full generated tape to ~1 event."""
        tape = generate_tape("shrink:0")
        pid = min(tape.streams)
        target = next(event.addr
                      for event in decode_events(tape.streams[pid])
                      if isinstance(event, Write))
        predicate = lambda t: _has_target_write(t, pid, target)
        shrunk, checks = shrink_tape(tape, predicate=predicate)
        assert predicate(shrunk)
        assert shrunk.total_events() <= 2
        assert 1 <= checks <= 400

    def test_result_streams_stay_valid(self):
        tape = generate_tape("shrink:1")
        pid = min(tape.streams)
        target = next(event.addr
                      for event in decode_events(tape.streams[pid])
                      if isinstance(event, Write))
        shrunk, _ = shrink_tape(
            tape, predicate=lambda t: _has_target_write(t, pid, target))
        # Lock balance and barrier matching survive arbitrary deletion.
        assert repair({p: list(decode_events(s))
                       for p, s in shrunk.streams.items()}) == \
            {p: list(decode_events(s)) for p, s in shrunk.streams.items()}

    def test_non_reproducing_tape_returned_unchanged(self):
        tape = generate_tape("shrink:2")
        shrunk, checks = shrink_tape(tape, predicate=lambda t: False)
        assert shrunk is tape
        assert checks == 1

    def test_check_budget_is_respected(self):
        tape = generate_tape("shrink:3")
        calls = []

        def predicate(candidate):
            calls.append(candidate)
            return True

        _, checks = shrink_tape(tape, predicate=predicate, max_checks=5)
        assert checks <= 5
        assert len(calls) <= 6  # the initial full-tape check + budget


class TestWriteRepro:
    def _divergence(self, tape):
        return TapeDivergence(
            tape=tape, kind="native",
            base=PathResult(name="generic"),
            other=PathResult(name="native"),
            detail=["stats.execution_time: 849 != 866"])

    def test_repro_file_is_self_contained(self, tmp_path):
        tape = generate_tape("repro:0")
        path = write_repro(tape, self._divergence(tape), tmp_path)
        assert path.exists()
        assert path.name.startswith("repro-native-")
        payload = json.loads(path.read_text())
        assert payload["seed"] == tape.seed
        assert payload["events"] == tape.total_events()
        restored = tape_from_json(json.dumps(payload["tape"]))
        assert restored.streams == tape.streams
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up

    def test_identical_tapes_dedupe_by_digest(self, tmp_path):
        tape = generate_tape("repro:1")
        first = write_repro(tape, self._divergence(tape), tmp_path)
        second = write_repro(tape, self._divergence(tape), tmp_path)
        assert first == second
        assert len(list(tmp_path.glob("repro-*.json"))) == 1

    def test_default_dir_honours_env_override(self, monkeypatch,
                                              tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_repro_dir() == tmp_path / "elsewhere" / "repros"
