"""Mutation check: the differential verifier must catch a deliberately
injected off-by-one in the native engine's path and shrink it to a small
repro.  The snoopy miss path lives twice -- ``CoherenceController`` for
the reference loop, ``_native.c`` for the native engine -- so the mutant
is a second build of the C source with one statement changed (the
``off_by_one_read_miss`` fixture, ``tests/conftest.py``): it diverges
exactly the ``native`` engine from the generic baseline.  So do row
profiles -- the python functions of ``repro.model.profile`` and the C
"profile" section -- where a second mutant
(``off_by_one_stack_distance``) diverges exactly the ``profile``
engine.  Two more sit in the state a native run keeps for itself for
the length of the call -- the ready queue (``READY_TIE_BREAK`` between
its window and its overflow heap, ``READY_BUCKET_LIFO`` inside a window
bucket) and the in-flight fill words (``FILL_FORGOTTEN``) -- and two in
the locks and barriers it keeps there as well (``WAITER_SKIPS_OVERHEAD``,
``BARRIER_EARLIEST``); all five are the ``native`` engine's to answer
for.  So are two in what only a run keeps as C words, the lost-line
table (``LOST_NO_BACKWARD_SHIFT``) and a preemption's one-exchange
switch (``SWITCH_PASSES_THE_HEAP``): a state-continuity parity test
fails on each whichever of its two legs the native engine runs.  The
fused ladder is a second driver of the same
C memory system -- a rung is a one-cluster machine -- so a mutant in what
a rung shares with a run (``VICTIM_FILL_KEPT`` and ``WRITEBACK_HOLDS_BUS``
in ``install``, ``WBUF_NEWEST_FIRST`` in the write-buffer helper) is both
engines' to report, and one in what only a ladder has
(``LADDER_SKEW``) is the ``fused`` engine's alone.  The ladder keeps its
one process's locks too (``LADDER_LOCK_HELD``): its error-parity test
with per-size replay is what fails.  A run's icache
refills are C's too (``ICACHE_REFILL_CHAIN``): the ``native`` engine
answers for them, and so does the directed multi-line refill tape's
parity test.  The SPEC-stream
kernel writes the multiprogramming workload's words for every engine
alike, so the differ has no baseline to hold a mutant there
(``SPEC_HOT_PARITY``) against: the kernel's parity test with its
oracle, ``burst_packed`` in ``tests/oracles/spec.py``, is what fails.
So do MP3D's C processes, which every engine runs: a mutant there
(``MP3D_PARTNER_CARRY``) fails their parity test with
``MP3DRun.process`` (``tests/oracles/mp3d.py``), and so do Barnes-Hut's
(``BH_RACED_REREAD``) theirs with ``BarnesHutRun.process``
(``tests/oracles/barnes_hut.py``).  A run steps both kinds itself,
whichever workload's: one that resumed them as generators
(``C_PROCESS_UNSEEN``) would count the same events, so what fails is
each workload's check that a native run resumes nothing.  Each driver
writes its working state back even when it raises; one that skips that
write-back after a raise (``RUN_RAISED_UNEXPORTED``,
``LADDER_RAISED_UNEXPORTED``) fails the test that carries a cut run on,
or that reads an aborted pass's rungs."""

import pytest

from repro.trace.engine import native
from repro.verify import (diff_tape, generate_tape, run_fuzz, run_tape,
                          shrink_tape)
from repro.verify.differ import _compare, engine_registry, fused_eligible

from ..conftest import (BARRIER_EARLIEST, BH_RACED_REREAD,
                        C_PROCESS_UNSEEN, FILL_FORGOTTEN,
                        ICACHE_REFILL_CHAIN, LADDER_LOCK_HELD,
                        LADDER_RAISED_UNEXPORTED, LADDER_SKEW,
                        LOST_NO_BACKWARD_SHIFT, MP3D_PARTNER_CARRY,
                        READ_MISS_DONE, READY_BUCKET_LIFO, READY_TIE_BREAK,
                        RUN_RAISED_UNEXPORTED, SPEC_HOT_PARITY,
                        SWITCH_PASSES_THE_HEAP, VICTIM_FILL_KEPT,
                        WAITER_SKIPS_OVERHEAD, WBUF_NEWEST_FIRST,
                        WRITEBACK_HOLDS_BUS)
from ..workloads import test_barnes_hut, test_mp3d
from ..workloads.test_mp3d import assert_process_matches
from ..workloads.test_spec import assert_kernel_matches

MUTANT_SEED_LIMIT = 40


def _first_diverging_tape():
    for index in range(MUTANT_SEED_LIMIT):
        tape = generate_tape(f"0:{index}")
        divergence = diff_tape(tape)
        if divergence is not None:
            return tape, divergence
    pytest.fail("no generated tape engaged the mutated native path")


class TestMutationIsCaught:
    def test_injected_off_by_one_diverges_the_fast_path(
            self, off_by_one_read_miss):
        _tape, divergence = _first_diverging_tape()
        assert divergence.kind == "native"
        assert divergence.detail  # field-level diff, not a crash

    def test_divergence_shrinks_to_a_small_repro(self,
                                                 off_by_one_read_miss):
        tape, _ = _first_diverging_tape()
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50  # acceptance bound
        assert diff_tape(shrunk) is not None  # still reproduces

    def test_fuzz_campaign_reports_and_persists_the_repro(
            self, off_by_one_read_miss, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert not report.ok
        assert report.divergences
        record = report.divergences[0]
        assert record.kind == "native"
        assert record.shrunk_events is not None
        assert record.shrunk_events <= 50
        assert record.shrunk_events <= record.original_events
        assert record.repro_path is not None and record.repro_path.exists()
        assert report.counters["diverged"] >= 1


class TestProfileMutationIsCaught:
    """A bug in the C profile kernel is the ``profile`` engine's to
    report, and nobody else's: the timing engines share the extension
    with it, not a line of code."""

    def test_stack_distance_off_by_one_diverges_only_the_profile(
            self, off_by_one_stack_distance):
        tape, divergence = _first_diverging_tape()
        assert divergence.kind == "profile"
        assert divergence.detail
        assert all("_histograms." in line for line in divergence.detail)
        clean = set()
        for index in range(20):
            tape = generate_tape(f"0:{index}")
            generic = run_tape(tape, "generic")
            for spec in engine_registry().values():
                if spec.name != "profile" and spec.applies(tape):
                    assert _compare(tape, generic,
                                    run_tape(tape, spec.name),
                                    spec.sections) is None, spec.name
                    clean.add(spec.name)
        assert clean == {"oracle", "native", "fused"}

    def test_divergence_shrinks_and_is_clean_unmutated(
            self, off_by_one_stack_distance):
        tape, _ = _first_diverging_tape()
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert diff_tape(shrunk).kind == "profile"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_mod", None)
            assert diff_tape(shrunk) is None

    def test_fuzz_campaign_reports_the_profile_engine(
            self, off_by_one_stack_distance, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert report.divergences
        assert {record.kind for record in report.divergences} \
            == {"profile"}


class TestWorkingStateMutationIsCaught:
    """The ready queue, the fill words and the wait queues have no python
    twin to disagree with during a run; what they decide, and what they
    hand back, must still be the reference loop's."""

    @pytest.mark.parametrize("mutation, only_fills", [
        (READY_TIE_BREAK, False),
        (READY_BUCKET_LIFO, False),
        # no clock moves: only the table written back differs
        (FILL_FORGOTTEN, True),
        # the locks and barriers: queues and clocks python never sees
        (WAITER_SKIPS_OVERHEAD, False),
        (BARRIER_EARLIEST, False),
    ], ids=["ready_heap_ignores_seq", "ready_bucket_lifo",
            "fill_forgotten_a_cycle_late",
            "woken_waiter_skips_the_lock_overhead",
            "barrier_opens_at_its_earliest_arrival"])
    def test_divergence_is_native_shrinks_and_is_clean_unmutated(
            self, mutation, only_fills, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod", mutant_native(*mutation))
        tape, divergence = _first_diverging_tape()
        assert divergence.kind == "native"
        assert divergence.detail
        if only_fills:
            assert all(line.startswith("fills.")
                       for line in divergence.detail)
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert diff_tape(shrunk).kind == "native"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_mod", None)
            assert diff_tape(shrunk) is None


class TestRunWordsMutationIsCaught:
    """The lost-line table and the one-exchange switch are ``run``'s
    alone -- a ladder rung has nobody to invalidate its lines and one
    process to schedule.  A mutant in either fails a state-continuity
    parity test whichever of its two legs the native engine runs."""

    @staticmethod
    def diverges_on_each_leg(observe):
        reference = observe(("python", "python"))
        for engines in [("native", "python"), ("python", "native")]:
            assert observe(engines) != reference, engines

    def test_a_deletion_that_shifts_nothing_back_fails_the_lost_lines(
            self, mutant_native, monkeypatch):
        from ..trace.test_engine import _lost_line_cut, _lost_line_runs
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*LOST_NO_BACKWARD_SHIFT))
        self.diverges_on_each_leg(_lost_line_runs)
        cut = _lost_line_cut()
        self.diverges_on_each_leg(
            lambda engines: _lost_line_runs(engines, cut=cut))

    def test_a_switch_past_the_heap_fails_the_cut_mp3d_run(
            self, mutant_native, monkeypatch):
        """A run begins with every process in the overflow heap: the
        mutant's first exchange takes the window's head past them."""
        from ..trace.test_engine import _mp3d_cut_run, _two_runs
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*SWITCH_PASSES_THE_HEAP))
        self.diverges_on_each_leg(lambda engines: _mp3d_cut_run(engines)[1])
        self.diverges_on_each_leg(lambda engines: _two_runs(*engines))

    def test_the_native_engine_reports_the_switch(self, mutant_native,
                                                  monkeypatch):
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*SWITCH_PASSES_THE_HEAP))
        tape, divergence = _first_diverging_tape()
        assert divergence.kind == "native"
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert _clean_unmutated(shrunk)


def _diff_of(tape, engine):
    spec = engine_registry()[engine]
    return _compare(tape, run_tape(tape, "generic"), run_tape(tape, engine),
                    spec.sections)


def _first_dirty_ladder_tape(engine):
    """The first generated tape the ladder takes whose ``engine`` run
    differs from the reference loop's, and the predicate that says so."""
    def dirty(tape):
        return bool(fused_eligible(tape)) and _diff_of(tape, engine) \
            is not None

    for index in range(100):
        tape = generate_tape(f"0:{index}")
        if dirty(tape):
            return tape, dirty
    pytest.fail(f"no fused-eligible tape engaged the mutated path "
                f"on {engine}")


def _clean_unmutated(tape):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_mod", None)
        return diff_tape(tape) is None


class TestLadderStateMutationIsCaught:
    """A ladder rung is a ``Machine`` of one SCC: its misses, its fill
    words and its write buffers are worked by the code a run's are, so
    on a tape both engines take a mutant there diverges both; only a
    mutant in the ladder's own clock arithmetic is ``fused``'s alone."""

    @staticmethod
    def diverges_both(lead):
        """A tape dirty on ``lead``, shrunk while it stays so, is dirty
        on the other of ``native`` / ``fused`` too -- and clean
        unmutated.  Returns the shrunk tape."""
        other = {"native": "fused", "fused": "native"}[lead]
        tape, dirty = _first_dirty_ladder_tape(lead)
        shrunk, checks = shrink_tape(tape, dirty)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert _diff_of(shrunk, other) is not None
        assert _clean_unmutated(shrunk)
        return shrunk

    def test_a_victims_fill_kept_fails_the_fill_tracking_check(
            self, mutant_native, monkeypatch):
        """A rung's clocks rarely notice (its one process waits out most
        fills): the pass hands back a fill for a line it evicted, and
        ``check_invariants`` on what was written back says so.  The run
        answers for the same statement in ``install``."""
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*VICTIM_FILL_KEPT))
        shrunk = self.diverges_both("fused")
        error = run_tape(shrunk, "fused").error
        assert error[0] == "AssertionError"
        assert "fill-tracking leak" in error[1]

    @pytest.mark.parametrize("mutation", [
        WBUF_NEWEST_FIRST,
        # the miss path exists once: before a rung was a ``Machine`` the
        # same text diverged ``native`` alone
        WRITEBACK_HOLDS_BUS,
    ], ids=["write_buffer_pops_its_newest", "write_back_holds_the_bus"])
    def test_a_write_buffer_popping_its_newest_entry_diverges_both(
            self, mutation, mutant_native, monkeypatch):
        """Code under the run and the ladder: whichever engine the
        registry asks first reports it, and the other's diff of the
        shrunk tape is dirty too."""
        monkeypatch.setattr(native, "_mod", mutant_native(*mutation))
        first = next(name for name in engine_registry()
                     if name in ("native", "fused"))
        shrunk = self.diverges_both(first)
        assert diff_tape(shrunk).kind == first

    def test_a_skew_off_by_one_diverges_the_ladder_alone(
            self, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*LADDER_SKEW))
        tape, dirty = _first_dirty_ladder_tape("fused")
        assert diff_tape(tape).kind == "fused"      # not the run's code
        shrunk, checks = shrink_tape(tape, dirty)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert diff_tape(shrunk).kind == "fused"
        assert _clean_unmutated(shrunk)


class TestLadderSyncMutationIsCaught:
    def test_a_held_lock_taken_again_fails_the_error_parity_test(
            self, mutant_native, monkeypatch):
        """The mutant takes a lock its one process holds as if it were
        free: per-size replay deadlocks there, the pass runs on."""
        # (imported here: at module level pytest would collect it again)
        from repro.trace.interleave import DeadlockError
        from repro.trace.packed import OP_LOCK_ACQ
        from ..trace.test_multiconfig import TestNativeLadderErrorParity
        parity = TestNativeLadderErrorParity()
        parity.test_error_tapes_agree([OP_LOCK_ACQ, 1, OP_LOCK_ACQ, 1],
                                      DeadlockError)
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*LADDER_LOCK_HELD))
        with pytest.raises(AssertionError):
            parity.test_error_tapes_agree([OP_LOCK_ACQ, 1, OP_LOCK_ACQ, 1],
                                          DeadlockError)


class TestIcacheRefillMutationIsCaught:
    """A refill stall that forgets the bus queue and the refills before
    it changes clocks only where a fetch misses more than one line, or
    behind other traffic."""

    @pytest.mark.parametrize("protocol", ["msi", "mesi"])
    def test_the_multi_line_refill_tape_fails_its_parity_test(
            self, protocol, mutant_native, monkeypatch):
        # (imported here: at module level pytest would collect it again)
        from ..trace.test_engine import \
            test_a_probe_bins_on_the_reference_loop_and_moves_no_clock \
            as parity
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*ICACHE_REFILL_CHAIN))
        with pytest.raises(AssertionError):
            parity(
                "multi-line-refill-queued-behind-a-data-miss", protocol)

    def test_the_native_engine_reports_it(self, mutant_native,
                                          monkeypatch):
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*ICACHE_REFILL_CHAIN))

        def dirty(tape):
            return _diff_of(tape, "native") is not None

        tape = next((tape for tape in (generate_tape(f"0:{index}")
                                       for index in range(MUTANT_SEED_LIMIT))
                     if dirty(tape)), None)
        assert tape is not None, "no generated tape fetched past a refill"
        assert tape.config().model_icache
        shrunk, checks = shrink_tape(tape, dirty)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert _clean_unmutated(shrunk)


class TestSpecKernelMutationIsCaught:
    def test_hot_line_parity_flip_fails_the_kernel_parity_test(
            self, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*SPEC_HOT_PARITY))
        with pytest.raises(AssertionError):
            assert_kernel_matches(0, 8)


class TestMp3dProcessMutationIsCaught:
    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_dropped_partner_carry_fails_the_process_parity_test(
            self, backend, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*MP3D_PARTNER_CARRY))
        with pytest.raises(AssertionError):
            assert_process_matches(7, 2, 1024, backend)


class TestBarnesHutProcessMutationIsCaught:
    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_a_lock_taken_without_its_re_read_fails_the_parity_test(
            self, backend, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod", mutant_native(*BH_RACED_REREAD))
        with pytest.raises(AssertionError):
            test_barnes_hut.assert_process_matches(
                *test_barnes_hut.quick_point(8, 8192), backend)


class TestProcessKindMutationIsCaught:
    @pytest.mark.parametrize("workload", [
        test_mp3d.TestMp3dProcess, test_barnes_hut.TestBarnesHutProcess],
        ids=["mp3d", "barnes-hut"])
    def test_a_c_process_resumed_as_a_generator_fails_the_resume_count(
            self, workload, mutant_native, monkeypatch):
        monkeypatch.setattr(native, "_mod", mutant_native(*C_PROCESS_UNSEEN))
        with pytest.raises(AssertionError):
            workload().test_a_native_run_resumes_nothing()


class TestWriteBackAfterARaiseMutationIsCaught:
    def test_a_run_that_skips_it_fails_the_cut_continuity_test(
            self, mutant_native, monkeypatch):
        # (imported here: at module level pytest would collect it again)
        from ..trace.test_engine import TestStateContinuity
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*RUN_RAISED_UNEXPORTED))
        # (a ValueError where the cut run looks for the one process the
        # limit stopped: the ready ones are not back on the heap either)
        with pytest.raises((AssertionError, ValueError)):
            TestStateContinuity().test_locks_and_barriers_held_across_a_cut()

    def test_a_ladder_that_skips_it_fails_the_aborted_pass_test(
            self, mutant_native, monkeypatch):
        from ..trace.test_multiconfig import TestRungState
        monkeypatch.setattr(native, "_mod",
                            mutant_native(*LADDER_RAISED_UNEXPORTED))
        with pytest.raises(AssertionError):
            TestRungState(
            ).test_a_pass_that_raises_mid_tape_still_writes_its_state()


class TestUnmutatedBaseline:
    def test_same_seeds_are_clean_without_the_mutation(self, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.counters["clean"] == 10
        assert not list(tmp_path.iterdir())  # no repro files written

    def test_shrunk_mutant_repro_is_clean_on_the_fixed_tree(
            self, mutant_native):
        """The tape that reproduces under the mutation must not diverge
        on the real implementation -- proving the shrink predicate
        tracked the injected bug, not generator noise."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_mod", mutant_native(*READ_MISS_DONE))
            tape, _ = _first_diverging_tape()
            shrunk, _ = shrink_tape(tape)
        assert diff_tape(shrunk) is None
