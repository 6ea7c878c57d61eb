"""Tests for the timing-feedback interleaver (the Tango-Lite equivalent)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                                Read, TaskDequeue, TaskEnqueue, Write)
from repro.trace.interleave import (DeadlockError, SyncProtocolError,
                                    TimingInterleaver)


def make_interleaver(**config_overrides):
    defaults = dict(clusters=1, processors_per_cluster=2)
    defaults.update(config_overrides)
    config = SystemConfig(**defaults)
    system = MultiprocessorSystem(config)
    return system, TimingInterleaver(system)


class TestBasicExecution:
    def test_single_process_compute(self):
        _, interleaver = make_interleaver(processors_per_cluster=1)
        interleaver.add_process(0, iter([Compute(100)]))
        assert interleaver.run() == 100

    def test_single_process_memory(self):
        system, interleaver = make_interleaver(processors_per_cluster=1)
        interleaver.add_process(0, iter([Read(0x100), Read(0x100)]))
        # miss (101) then hit (+1)
        assert interleaver.run() == 102

    def test_execution_time_is_the_latest_finisher(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter([Compute(10)]))
        interleaver.add_process(1, iter([Compute(500)]))
        assert interleaver.run() == 500

    def test_empty_interleaver_refuses_to_run(self):
        _, interleaver = make_interleaver()
        with pytest.raises(RuntimeError):
            interleaver.run()

    def test_duplicate_process_id_rejected(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter([Compute(1)]))
        with pytest.raises(ValueError):
            interleaver.add_process(0, iter([Compute(1)]))

    def test_out_of_range_process_id_rejected(self):
        _, interleaver = make_interleaver()  # 2 processors
        with pytest.raises(ValueError):
            interleaver.add_process(2, iter([Compute(1)]))

    def test_max_cycles_aborts_runaway(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter([Compute(10_000)]))
        with pytest.raises(RuntimeError):
            interleaver.run(max_cycles=1000)

    def test_non_event_yield_raises(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter(["not an event"]))
        with pytest.raises(TypeError):
            interleaver.run()

    def test_events_processed_counter(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter([Compute(1), Read(0), Write(0)]))
        interleaver.add_process(1, iter([Compute(5)]))
        interleaver.run()
        assert interleaver.events_processed == 4


class TestTimingFeedback:
    def test_interleaving_respects_memory_stalls(self):
        """Process 0 misses (stalls 100 cycles) while process 1 computes;
        their subsequent references reach the cache in stall-adjusted
        order: process 1's second read comes first and warms the line."""
        system, interleaver = make_interleaver()
        interleaver.add_process(0, iter([Read(0x2000), Read(0x3000)]))
        interleaver.add_process(1, iter([Compute(30), Read(0x3000)]))
        interleaver.run()
        # Process 1 read 0x3000 at ~30 (a miss); process 0 reads it at
        # ~101 and must hit on the shared line.
        stats = system.clusters[0].scc.stats
        assert stats.read_misses == 2  # 0x2000 once, 0x3000 once
        assert stats.reads == 3

    def test_earliest_process_runs_first(self):
        """References from different processors hit the caches in local
        time order, so a long computation delays later references."""
        system, interleaver = make_interleaver()
        order = []

        def proc_a():
            yield Compute(10)
            order.append("a")
            yield Write(0x100)

        def proc_b():
            yield Compute(1000)
            order.append("b")
            yield Write(0x200)

        interleaver.add_process(0, proc_a())
        interleaver.add_process(1, proc_b())
        interleaver.run()
        assert order == ["a", "b"]


class TestLocks:
    def test_uncontended_lock_costs_overhead(self):
        _, interleaver = make_interleaver(processors_per_cluster=1)
        interleaver.add_process(0, iter([LockAcquire(1), LockRelease(1)]))
        config_overhead = interleaver.lock_overhead
        assert interleaver.run() == 2 * config_overhead

    def test_contended_lock_serializes(self):
        system, interleaver = make_interleaver()

        def critical(pid):
            yield LockAcquire(9)
            yield Compute(100)
            yield LockRelease(9)

        interleaver.add_process(0, critical(0))
        interleaver.add_process(1, critical(1))
        time = interleaver.run()
        # Two back-to-back critical sections of >= 100 cycles each.
        assert time >= 200
        stats = system.stats(time)
        total_sync = sum(p.sync_stall_cycles for p in stats.processors)
        assert total_sync >= 100

    def test_lock_grants_are_fifo(self):
        _, interleaver = make_interleaver(processors_per_cluster=4,
                                          clusters=1)
        order = []

        def worker(pid, start_delay):
            yield Compute(start_delay)
            yield LockAcquire(0)
            order.append(pid)
            yield Compute(50)
            yield LockRelease(0)

        for pid in range(4):
            interleaver.add_process(pid, worker(pid, pid + 1))
        interleaver.run()
        assert order == [0, 1, 2, 3]

    def test_releasing_unheld_lock_raises(self):
        _, interleaver = make_interleaver()
        interleaver.add_process(0, iter([LockRelease(5)]))
        with pytest.raises(SyncProtocolError):
            interleaver.run()

    def test_deadlock_is_detected(self):
        _, interleaver = make_interleaver()

        def holder():
            yield LockAcquire(1)
            yield LockAcquire(2)
            yield LockRelease(2)
            yield LockRelease(1)

        def other():
            yield LockAcquire(2)
            yield LockAcquire(1)
            yield LockRelease(1)
            yield LockRelease(2)

        interleaver.add_process(0, holder())
        interleaver.add_process(1, other())
        with pytest.raises(DeadlockError):
            interleaver.run()


class TestBarriers:
    def test_barrier_releases_at_max_arrival(self):
        _, interleaver = make_interleaver()
        finish = {}

        def worker(pid, work):
            yield Compute(work)
            yield Barrier(0, 2)
            finish[pid] = True
            yield Compute(1)

        interleaver.add_process(0, worker(0, 10))
        interleaver.add_process(1, worker(1, 300))
        time = interleaver.run()
        overhead = interleaver.barrier_overhead
        assert time == 300 + overhead + 1
        assert finish == {0: True, 1: True}

    def test_barrier_is_reusable(self):
        _, interleaver = make_interleaver()

        def worker(pid):
            for _ in range(3):
                yield Compute(10)
                yield Barrier(7, 2)

        interleaver.add_process(0, worker(0))
        interleaver.add_process(1, worker(1))
        overhead = interleaver.barrier_overhead
        assert interleaver.run() == 3 * (10 + overhead)

    def test_single_process_barrier_passes_through(self):
        _, interleaver = make_interleaver(processors_per_cluster=1)
        interleaver.add_process(0, iter([Barrier(0, 1), Compute(5)]))
        assert interleaver.run() == interleaver.barrier_overhead + 5

    def test_overfull_barrier_raises(self):
        _, interleaver = make_interleaver(processors_per_cluster=4,
                                          clusters=1)

        def worker():
            yield Barrier(0, 2)

        # Barrier opens when 2 arrive; a third arrival at the same barrier
        # id before re-arming is a new waiting set, which is legal; but a
        # count of zero is not.
        interleaver.add_process(0, iter([Barrier(0, 0)]))
        with pytest.raises(SyncProtocolError):
            interleaver.run()

    def test_waiting_time_counts_as_sync_stall(self):
        system, interleaver = make_interleaver()

        def fast():
            yield Compute(10)
            yield Barrier(0, 2)

        def slow():
            yield Compute(500)
            yield Barrier(0, 2)

        interleaver.add_process(0, fast())
        interleaver.add_process(1, slow())
        time = interleaver.run()
        stats = system.stats(time)
        assert stats.processors[0].sync_stall_cycles >= 490


class TestTaskQueues:
    def test_enqueue_dequeue_roundtrip(self):
        _, interleaver = make_interleaver(processors_per_cluster=1)
        received = []

        def worker():
            yield TaskEnqueue(0, "a")
            yield TaskEnqueue(0, "b")
            received.append((yield TaskDequeue(0)))
            received.append((yield TaskDequeue(0)))
            received.append((yield TaskDequeue(0)))

        interleaver.add_process(0, worker())
        interleaver.run()
        assert received == ["a", "b", None]

    def test_queue_is_shared_between_processes(self):
        _, interleaver = make_interleaver()
        got = []

        def producer():
            yield Compute(10)
            yield TaskEnqueue(3, 42)

        def consumer():
            item = None
            while item is None:
                yield Compute(5)
                item = yield TaskDequeue(3)
            got.append(item)

        interleaver.add_process(0, producer())
        interleaver.add_process(1, consumer())
        interleaver.run()
        assert got == [42]


class TestTaskQueueProtocol:
    def test_enqueue_none_is_a_protocol_error(self):
        """None is the empty-queue dequeue response; letting it into a
        queue would make it indistinguishable from 'no work'."""
        _, interleaver = make_interleaver()

        def worker():
            yield TaskEnqueue(0, None)

        interleaver.add_process(0, worker())
        interleaver.add_process(1, iter([Compute(1)]))
        with pytest.raises(SyncProtocolError):
            interleaver.run()

    def test_polling_an_untouched_queue_allocates_nothing(self):
        """A dequeue poll on a queue nothing ever enqueued to must not
        materialize the queue (pollers used to leak one deque per id)."""
        _, interleaver = make_interleaver()
        responses = []

        def poller():
            responses.append((yield TaskDequeue(9)))
            responses.append((yield TaskDequeue(10)))

        interleaver.add_process(0, poller())
        interleaver.add_process(1, iter([Compute(1)]))
        interleaver.run()
        assert responses == [None, None]
        assert interleaver._queues == {}


class TestObserver:
    def test_an_access_only_observer_runs_a_contended_tape(self):
        """``on_access`` is the whole observer protocol: an observer with
        no other method sees every data reference of a tape full of
        locks, barriers and queue polls, on the reference loop, and
        changes no cycle of it."""
        from repro.trace.packed import decode_events
        from repro.verify import TapeApplication, generate_tape

        class Accesses:
            def __init__(self):
                self.seen = 0

            def on_access(self, pid, addr, is_write):
                self.seen += 1

        tape = next(tape for tape in (generate_tape(f"contend:{i}")
                                      for i in range(30))
                    if tape.config().total_processors >= 3)
        events = [event for stream in tape.streams.values()
                  for event in decode_events(stream)]
        assert any(isinstance(event, LockAcquire) for event in events)
        assert any(isinstance(event, Barrier) for event in events)
        assert any(isinstance(event, TaskDequeue) for event in events)

        def run(observer):
            interleaver = TimingInterleaver(
                MultiprocessorSystem(tape.config()), observer=observer)
            for pid, pieces in TapeApplication(tape).processes(
                    tape.config()).items():
                interleaver.add_process(pid, pieces)
            return interleaver.run(), interleaver.engine_used

        observer = Accesses()
        assert run(observer) == (run(None)[0], "python")
        assert observer.seen == sum(isinstance(event, (Read, Write))
                                    for event in events)
