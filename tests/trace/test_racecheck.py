"""Tests for the happens-before race detector."""

import pytest

from repro.core.config import KB, SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                                Read, TaskDequeue, TaskEnqueue, Write)
from repro.trace.interleave import TimingInterleaver
from repro.trace.racecheck import RaceDetector


def run_with_detector(streams, procs=2):
    config = SystemConfig(clusters=1, processors_per_cluster=procs,
                          scc_size=4 * KB)
    detector = RaceDetector()
    system = MultiprocessorSystem(config)
    interleaver = TimingInterleaver(system, observer=detector)
    for pid, events in enumerate(streams):
        interleaver.add_process(pid, iter(events))
    interleaver.run()
    return detector


class TestSyntheticScenarios:
    def test_unsynchronized_write_write_is_a_race(self):
        detector = run_with_detector([[Write(0x100)], [Write(0x100)]])
        assert detector.races
        assert detector.races[0].kind == "write-write"

    def test_unsynchronized_read_write_is_a_race(self):
        detector = run_with_detector(
            [[Read(0x100)], [Compute(50), Write(0x100)]])
        assert any(r.kind == "read-write" for r in detector.races)

    def test_concurrent_reads_are_fine(self):
        detector = run_with_detector([[Read(0x100)], [Read(0x100)]])
        assert not detector.races

    def test_disjoint_lines_are_fine(self):
        detector = run_with_detector([[Write(0x100)], [Write(0x200)]])
        assert not detector.races

    def test_same_line_different_words_still_races(self):
        """Line granularity on purpose: unsynchronized false sharing
        also makes timing scheduling-dependent."""
        detector = run_with_detector([[Write(0x100)], [Write(0x108)]])
        assert detector.races

    def test_lock_orders_the_accesses(self):
        def critical():
            return [LockAcquire(1), Write(0x100), LockRelease(1)]
        detector = run_with_detector([critical(), critical()])
        assert not detector.races

    def test_lock_on_a_different_lock_does_not_order(self):
        detector = run_with_detector(
            [[LockAcquire(1), Write(0x100), LockRelease(1)],
             [LockAcquire(2), Write(0x100), LockRelease(2)]])
        assert detector.races

    def test_barrier_orders_phases(self):
        detector = run_with_detector(
            [[Write(0x100), Barrier(0, 2)],
             [Barrier(0, 2), Read(0x100), Write(0x100)]])
        assert not detector.races

    def test_queue_handoff_orders_producer_and_consumer(self):
        producer = [Write(0x100), TaskEnqueue(0, 1)]

        def consumer():
            item = None
            while item is None:
                yield Compute(10)
                item = yield TaskDequeue(0)
            yield Read(0x100)

        detector = run_with_detector([producer, consumer()])
        assert not detector.races

    def test_race_report_is_printable(self):
        detector = run_with_detector([[Write(0x100)], [Write(0x100)]])
        text = str(detector.races[0])
        assert "race" in text and "0x10" in text

    def test_max_races_caps_reports(self):
        streams = [[Write(line * 16) for line in range(100)],
                   [Write(line * 16) for line in range(100)]]
        detector = run_with_detector(streams)
        assert len(detector.races) <= detector.max_races

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            RaceDetector(line_size=24)


class TestBarrierSymmetry:
    """Regression: barrier release must join the merged arrival clocks
    into *every* participant, so pre-barrier work is ordered before
    post-barrier work in both directions, not just one."""

    def test_barrier_orders_both_directions(self):
        detector = run_with_detector(
            [[Write(0x100), Barrier(0, 2), Write(0x200)],
             [Write(0x200), Barrier(0, 2), Write(0x100)]])
        assert not detector.races

    def test_release_joins_every_arrival_directly(self):
        detector = RaceDetector(16)
        detector.on_access(0, 0x100, True)
        detector.on_access(1, 0x200, True)
        detector.on_access(2, 0x300, True)
        for proc in (0, 1, 2):
            detector.on_barrier_arrive(proc, 5)
        detector.on_barrier_release(5)
        # Every participant may now touch every other's pre-barrier line.
        detector.on_access(1, 0x100, True)
        detector.on_access(2, 0x200, True)
        detector.on_access(0, 0x300, True)
        assert not detector.races

    def test_barrier_does_not_order_non_participants(self):
        detector = RaceDetector(16)
        detector.on_access(0, 0x100, True)
        detector.on_barrier_arrive(0, 2)
        detector.on_barrier_arrive(1, 2)
        detector.on_barrier_release(2)
        detector.on_access(3, 0x100, True)  # proc 3 never arrived
        assert detector.races

    def test_successive_episodes_reuse_a_barrier_id(self):
        detector = run_with_detector(
            [[Write(0x100), Barrier(0, 2), Barrier(0, 2), Read(0x200)],
             [Write(0x200), Barrier(0, 2), Barrier(0, 2), Read(0x100)]])
        assert not detector.races


class TestWorkloadCharacterization:
    """The detector documents the workloads' synchronization structure:
    Cholesky is fully ordered; Barnes-Hut and MP3D contain the same
    *intentional* races their SPLASH originals have (optimistic tree
    descent, unsynchronized cell accumulators)."""

    def _detect(self, app, config):
        detector = RaceDetector()
        system = MultiprocessorSystem(config)
        interleaver = TimingInterleaver(system, observer=detector)
        for pid, gen in app.processes(config).items():
            interleaver.add_process(pid, gen)
        interleaver.run()
        return detector

    def test_cholesky_is_race_free(self):
        from repro.workloads import Cholesky
        detector = self._detect(Cholesky(n=96),
                                SystemConfig.paper_parallel(2, 4 * KB))
        assert not detector.races

    def test_barnes_races_only_on_cell_records(self):
        """The optimistic insert descent reads child slots unlocked (as
        SPLASH does); body records must be fully synchronized."""
        from repro.workloads.barnes_hut import BarnesHut, _layout
        app = BarnesHut(n_bodies=64, steps=1)
        detector = self._detect(app, SystemConfig.paper_parallel(2, 4 * KB))
        _, cells = _layout(app)
        assert detector.races                   # (not vacuous)
        for race in detector.races:
            addr = race.line * 16
            assert cells.contains(addr), \
                f"unexpected race outside the cell pool: {race}"

    def test_mp3d_races_only_on_shared_cells_and_particles(self):
        """MP3D's cell accumulators and collision partners are updated
        without locks, as in the original benchmark; the global counters
        (lock-protected) must stay clean."""
        from repro.workloads.mp3d import MP3D, _layout
        app = MP3D(n_particles=150, steps=2)
        detector = self._detect(app, SystemConfig.paper_parallel(2, 4 * KB))
        _, _, globals_region, table = _layout(app)
        assert detector.races                   # (not vacuous)
        for race in detector.races:
            addr = race.line * 16
            assert not globals_region.contains(addr), \
                f"race on the lock-protected globals: {race}"
            assert not table.contains(addr), \
                f"race on the read-only table: {race}"
