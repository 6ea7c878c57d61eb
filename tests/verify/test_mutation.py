"""Mutation check: the differential verifier must catch a deliberately
injected off-by-one in the native engine's path and shrink it to a small
repro.  The snoopy miss path lives twice -- ``CoherenceController`` for
the reference loop, ``_native.c`` for the native engine -- so the mutant
is a second build of the C source with one statement changed (the
``off_by_one_read_miss`` fixture, ``tests/conftest.py``): it diverges
exactly the ``native`` engine from the generic baseline.  So do the
probe's callbacks -- ``InstrumentationProbe`` and the C "metrics"
section -- and a second mutant (``off_by_one_last_bin``) changes one
statement there: it diverges exactly the ``instrumented`` engine.  And
so do row profiles -- the python functions of ``repro.model.profile``
and the C "profile" section -- where a third mutant
(``off_by_one_stack_distance``) diverges exactly the ``profile``
engine.  Two more sit in the state a native run keeps for itself between
``setup`` and ``release`` -- the ready heap (``READY_TIE_BREAK``) and the
in-flight fill words (``FILL_FORGOTTEN``) -- and two in the locks and
barriers it keeps there as well (``WAITER_SKIPS_OVERHEAD``,
``BARRIER_EARLIEST``); all four are the ``native`` engine's to answer
for.  The fused ladder is a second driver of the same
C memory system -- a rung is a one-cluster machine -- so a mutant in what
a rung shares with a run (``VICTIM_FILL_KEPT`` and ``WRITEBACK_HOLDS_BUS``
in ``install``, ``WBUF_NEWEST_FIRST`` in the write-buffer helper) is both
engines' to report, and one in what only a ladder has
(``LADDER_SKEW``) is the ``fused`` engine's alone."""

import pytest

from repro.trace.engine import native
from repro.verify import (diff_tape, generate_tape, run_fuzz, run_tape,
                          shrink_tape)
from repro.verify.differ import _compare, engine_registry, fused_eligible

from ..conftest import (BARRIER_EARLIEST, FILL_FORGOTTEN, LADDER_SKEW,
                        READ_MISS_DONE, READY_TIE_BREAK, VICTIM_FILL_KEPT,
                        WAITER_SKIPS_OVERHEAD, WBUF_NEWEST_FIRST,
                        WRITEBACK_HOLDS_BUS)

# The mutant cannot be built without a compiler; skip with the loader's
# reason rather than pass vacuously.
from .test_differ import needs_native

MUTANT_SEED_LIMIT = 40


def _first_diverging_tape():
    for index in range(MUTANT_SEED_LIMIT):
        tape = generate_tape(f"0:{index}")
        divergence = diff_tape(tape)
        if divergence is not None:
            return tape, divergence
    pytest.fail("no generated tape engaged the mutated native path")


@needs_native
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


@needs_native
class TestMetricsMutationIsCaught:
    """A bug in the metrics section cannot hide in the timing path, or
    leak into it: the unprobed ``native`` engine stays clean on the
    mutant, the ``instrumented`` one is the kind reported."""

    def test_last_bin_off_by_one_diverges_only_the_metrics(
            self, off_by_one_last_bin):
        tape, divergence = _first_diverging_tape()
        assert divergence.kind == "instrumented"
        assert divergence.detail
        assert all(line.startswith("metrics.timelines.")
                   for line in divergence.detail)
        assert run_tape(tape, "native").fingerprint == {
            section: value for section, value
            in run_tape(tape, "generic").fingerprint.items()
            if section not in ("metrics", "profile")}

    def test_divergence_shrinks_and_is_clean_unmutated(
            self, off_by_one_last_bin):
        tape, _ = _first_diverging_tape()
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert diff_tape(shrunk).kind == "instrumented"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_mod", native._UNSET)
            assert diff_tape(shrunk) is None

    def test_fuzz_campaign_reports_the_instrumented_engine(
            self, off_by_one_last_bin, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert report.divergences
        assert {record.kind for record in report.divergences} \
            == {"instrumented"}


@needs_native
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
        assert clean == {"oracle", "native", "instrumented", "fused"}

    def test_divergence_shrinks_and_is_clean_unmutated(
            self, off_by_one_stack_distance):
        tape, _ = _first_diverging_tape()
        shrunk, checks = shrink_tape(tape)
        assert checks >= 1
        assert shrunk.total_events() <= 50
        assert diff_tape(shrunk).kind == "profile"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "_mod", native._UNSET)
            assert diff_tape(shrunk) is None

    def test_fuzz_campaign_reports_the_profile_engine(
            self, off_by_one_stack_distance, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert report.divergences
        assert {record.kind for record in report.divergences} \
            == {"profile"}


@needs_native
class TestWorkingStateMutationIsCaught:
    """The heap, the fill words and the wait queues have no python twin
    to disagree with during a run; what they decide, and what they hand
    back, must still be the reference loop's."""

    @pytest.mark.parametrize("mutation, only_fills", [
        (READY_TIE_BREAK, False),
        # no clock moves: only the table written back differs
        (FILL_FORGOTTEN, True),
        # the locks and barriers: queues and clocks python never sees
        (WAITER_SKIPS_OVERHEAD, False),
        (BARRIER_EARLIEST, False),
    ], ids=["ready_heap_ignores_seq", "fill_forgotten_a_cycle_late",
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
            patch.setattr(native, "_mod", native._UNSET)
            assert diff_tape(shrunk) is None


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
        patch.setattr(native, "_mod", native._UNSET)
        return diff_tape(tape) is None


@needs_native
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


class TestUnmutatedBaseline:
    def test_same_seeds_are_clean_without_the_mutation(self, tmp_path):
        report = run_fuzz(seed=0, budget=10, out_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.counters["clean"] == 10
        assert not list(tmp_path.iterdir())  # no repro files written

    @needs_native
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
