"""Tests for the checkpointed, fault-tolerant sweep session."""

import json

import pytest

from repro.core.config import KB
from repro.experiments import runner
from repro.experiments.runner import (ResultCache, RunStats,
                                      _shutdown_pool)
from repro.experiments.session import (FAULT_INJECT_ENV,
                                       QuarantinedPointError,
                                       SessionJournal, SweepSession,
                                       _maybe_inject_fault,
                                       prune_stale_journals, run_sweep)
from repro.experiments.spec import ExperimentProfile, SweepSpec
from repro.trace.record import ReplayApplication, TraceCache


@pytest.fixture
def tiny_profile():
    return ExperimentProfile(
        name="tiny", ladder_scale=8,
        barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1,
        cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)


@pytest.fixture
def no_trace_stage(monkeypatch):
    """Disable record/replay resolution so every uncached point reaches
    the supervised-execution stage (where retries/faults live)."""
    monkeypatch.setattr(SweepSession, "_resolve_via_traces",
                        lambda self, missing, sweep: missing)


@pytest.fixture
def fresh_pool():
    """Tear the persistent worker pool down around the test, so pool
    workers are created after the test's environment tweaks."""
    _shutdown_pool()
    yield
    _shutdown_pool()


def _stats(value: int = 1) -> RunStats:
    return RunStats(execution_time=value, read_miss_rate=0.25,
                    miss_rate=0.25, invalidations=0, reads=4, writes=4,
                    events=8)


def _grid_spec(tiny_profile, **knobs) -> SweepSpec:
    knobs.setdefault("ladder", (4 * KB, 8 * KB))
    knobs.setdefault("procs", (1, 2))
    knobs.setdefault("retry_backoff", 0.0)
    return SweepSpec.parallel("mp3d", profile=tiny_profile, **knobs)


class RecordingCompute:
    """Picklable compute stub: constant stats, scripted failures."""

    def __init__(self, fail=(), hang=()):
        self.fail = dict(fail)  # point -> times to raise before success
        self.calls = []

    def __call__(self, benchmark, profile, config, point):
        self.calls.append(point)
        if self.fail.get(point, 0) > 0:
            self.fail[point] -= 1
            raise RuntimeError(f"scripted failure at {point}")
        return _stats(point[0] * 1000 + point[1])


def _lines(journal: SessionJournal) -> list:
    return [json.loads(line)
            for line in journal.path.read_bytes().splitlines()]


def _rewrite_header(journal: SessionJournal, **changes) -> None:
    header, *entries = journal.path.read_bytes().splitlines(keepends=True)
    header = json.dumps({**json.loads(header), **changes}).encode()
    journal.path.write_bytes(b"".join([header + b"\n", *entries]))


NON_OBJECTS = (b"[]", b'"s"', b"3")


class TestJournal:
    def test_roundtrip(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "done", stats=_stats(7), attempts=2)
        journal.record((2, 8 * KB), "quarantined", attempts=3,
                       reason="boom")
        assert journal.path.name == f"{spec.signature()}.jsonl"
        header, *entries = _lines(journal)
        assert header == {"version": 2, "signature": spec.signature(),
                          "spec": spec.describe()}
        assert [entry["point"] for entry in entries] == [
            f"1/{4 * KB}", f"2/{8 * KB}"]
        reloaded = SessionJournal(spec, tmp_path)
        assert reloaded.load()
        done = reloaded.entry((1, 4 * KB))
        assert done == {"status": "done", "attempts": 2,
                        "stats": _stats(7).as_dict()}
        bad = reloaded.entry((2, 8 * KB))
        assert bad == {"status": "quarantined", "attempts": 3,
                       "reason": "boom"}

    def test_corrupt_journal_discarded(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "done", stats=_stats())
        journal.path.write_text("{torn write\n")
        fresh = SessionJournal(spec, tmp_path)
        assert not fresh.load()
        assert not journal.path.exists()

    def test_torn_tail_keeps_earlier_lines(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        for point in ((1, 4 * KB), (1, 8 * KB), (2, 4 * KB)):
            journal.record(point, "done", stats=_stats(point[1]))
        intact = journal.path.read_bytes()
        journal.path.write_bytes(intact[:-20])
        resumed = SessionJournal(spec, tmp_path)
        assert resumed.load()
        assert set(resumed.points) == {f"1/{4 * KB}", f"1/{8 * KB}"}
        # The torn line is cut off, so the next record appends after
        # the last complete one and every line reads back.
        resumed.record((2, 4 * KB), "done", stats=_stats(9))
        assert journal.path.read_bytes().startswith(
            intact[:intact.rindex(b"\n", 0, -1) + 1])
        again = SessionJournal(spec, tmp_path)
        assert again.load()
        assert again.points == resumed.points

    def test_entry_that_is_not_an_object_ends_the_read(self, tmp_path,
                                                       tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "done", stats=_stats())
        with open(journal.path, "ab") as fh:
            fh.write(b"[1, 2]\n")
        journal.record((1, 8 * KB), "done", stats=_stats())
        resumed = SessionJournal(spec, tmp_path)
        assert resumed.load()
        assert set(resumed.points) == {f"1/{4 * KB}"}

    def test_last_line_wins(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "quarantined", attempts=3,
                       reason="boom")
        journal.record((1, 8 * KB), "done", stats=_stats(1))
        journal.record((1, 4 * KB), "done", stats=_stats(2))
        assert len(_lines(journal)) == 4
        resumed = SessionJournal(spec, tmp_path)
        assert resumed.load()
        assert resumed.entry((1, 4 * KB))["stats"] == _stats(2).as_dict()

    def test_signature_mismatch_starts_fresh(self, tmp_path,
                                             tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "done", stats=_stats())
        _rewrite_header(journal, signature="somebody-else")
        assert not SessionJournal(spec, tmp_path).load()

    def test_version_mismatch_starts_fresh(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.record((1, 4 * KB), "done", stats=_stats())
        _rewrite_header(journal, version=1)
        assert not SessionJournal(spec, tmp_path).load()

    @pytest.mark.parametrize("header", NON_OBJECTS)
    def test_header_that_is_not_an_object_starts_fresh(
            self, tmp_path, tiny_profile, header):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        journal.path.write_bytes(header + b"\n")
        assert not journal.load()
        assert prune_stale_journals(tmp_path) == []

    def test_first_record_after_non_adopting_load_truncates(
            self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        journal = SessionJournal(spec, tmp_path)
        for point in spec.configs():
            journal.record(point, "done", stats=_stats())
        _rewrite_header(journal, version=1)
        fresh = SessionJournal(spec, tmp_path)
        assert not fresh.load()
        fresh.record((1, 4 * KB), "done", stats=_stats(5))
        header, entry = _lines(fresh)
        assert header["version"] == 2
        assert entry["point"] == f"1/{4 * KB}"

    def test_journals_keyed_by_signature(self, tmp_path, tiny_profile):
        a = _grid_spec(tiny_profile)
        b = _grid_spec(tiny_profile, ladder=(4 * KB,))
        assert SessionJournal(a, tmp_path).path != \
            SessionJournal(b, tmp_path).path
        # Execution knobs share the journal.
        c = _grid_spec(tiny_profile, jobs=4, max_attempts=1)
        assert SessionJournal(a, tmp_path).path == \
            SessionJournal(c, tmp_path).path

    def test_directoryless_journal_is_ephemeral(self, tiny_profile):
        journal = SessionJournal(_grid_spec(tiny_profile), None)
        assert journal.path is None
        journal.record((1, 4 * KB), "done", stats=_stats())
        assert not journal.load()


class TestJournalPruning:
    """Session-directory GC: finished logs are removed on session open; anything --resume could still want is
    kept."""

    def _journal(self, spec, directory, *, quarantine=None,
                 points=None) -> SessionJournal:
        journal = SessionJournal(spec, directory)
        for point in (points if points is not None else spec.configs()):
            if quarantine and point in quarantine:
                journal.record(point, "quarantined", reason="boom")
            else:
                journal.record(point, "done", stats=_stats())
        return journal

    def test_finished_foreign_journal_removed(self, tmp_path,
                                              tiny_profile):
        finished = self._journal(_grid_spec(tiny_profile), tmp_path)
        removed = prune_stale_journals(tmp_path)
        assert removed == [finished.path]
        assert not finished.path.exists()

    def test_own_journal_kept_even_when_finished(self, tmp_path,
                                                 tiny_profile):
        spec = _grid_spec(tiny_profile)
        own = self._journal(spec, tmp_path)
        assert prune_stale_journals(
            tmp_path, keep_signature=spec.signature()) == []
        assert own.path.exists()

    def test_incomplete_journal_kept(self, tmp_path, tiny_profile):
        spec = _grid_spec(tiny_profile)
        partial = self._journal(spec, tmp_path,
                                points=list(spec.configs())[:1])
        assert prune_stale_journals(tmp_path) == []
        assert partial.path.exists()

    def test_quarantine_bearing_journal_kept(self, tmp_path,
                                             tiny_profile):
        spec = _grid_spec(tiny_profile)
        poisoned = self._journal(spec, tmp_path,
                                 quarantine={(1, 4 * KB)})
        assert prune_stale_journals(tmp_path) == []
        assert poisoned.path.exists()

    def test_last_entry_decides_whether_finished(self, tmp_path,
                                                 tiny_profile):
        spec = _grid_spec(tiny_profile)
        healed = self._journal(spec, tmp_path, quarantine={(1, 4 * KB)})
        healed.record((1, 4 * KB), "done", stats=_stats())
        assert prune_stale_journals(tmp_path) == [healed.path]
        poisoned = self._journal(spec, tmp_path)
        poisoned.record((1, 4 * KB), "quarantined", reason="boom")
        assert prune_stale_journals(tmp_path) == []

    def test_corrupt_journal_left_for_load_to_report(self, tmp_path):
        torn = tmp_path / "deadbeef.jsonl"
        torn.write_text("{torn write")
        assert prune_stale_journals(tmp_path) == []
        assert torn.exists()

    def test_missing_or_absent_directory_is_a_noop(self, tmp_path):
        assert prune_stale_journals(tmp_path / "never-created") == []
        assert prune_stale_journals(None) == []

    def test_session_open_prunes_previous_sweeps(self, tmp_path,
                                                 tiny_profile,
                                                 no_trace_stage):
        old_spec = _grid_spec(tiny_profile, ladder=(2 * KB,))
        finished = self._journal(old_spec, tmp_path)
        spec = _grid_spec(tiny_profile)
        result = SweepSession(spec, cache=None, session_dir=tmp_path,
                              compute=RecordingCompute()).run()
        assert result.complete
        assert not finished.path.exists()  # GC ran on open
        assert SessionJournal(spec, tmp_path).path.exists()


class TestSessionStages:
    def test_all_points_computed_and_journaled(self, tmp_path,
                                               tiny_profile,
                                               no_trace_stage):
        spec = _grid_spec(tiny_profile)
        compute = RecordingCompute()
        session = SweepSession(spec, cache=None, session_dir=tmp_path,
                               compute=compute)
        result = session.run()
        assert set(result.sweep) == set(spec.configs())
        assert result.complete
        assert result.counters["total"] == 4
        assert result.counters["computed"] == 4
        assert session.journal.path.exists()

    def test_resume_restores_from_journal(self, tmp_path, tiny_profile,
                                          no_trace_stage):
        spec = _grid_spec(tiny_profile)
        first = SweepSession(spec, cache=None, session_dir=tmp_path,
                             compute=RecordingCompute()).run()
        untouchable = RecordingCompute()
        resumed = SweepSession(spec, cache=None, session_dir=tmp_path,
                               resume=True, compute=untouchable).run()
        assert untouchable.calls == []
        assert resumed.counters["journaled"] == 4
        assert {p: s.as_dict() for p, s in resumed.sweep.items()} == \
            {p: s.as_dict() for p, s in first.sweep.items()}
        # Restoring a point appends nothing: the log keeps one line each.
        assert len(_lines(SessionJournal(spec, tmp_path))) == 1 + 4

    def test_fresh_run_resets_journal(self, tmp_path, tiny_profile,
                                      no_trace_stage):
        spec = _grid_spec(tiny_profile)
        SweepSession(spec, cache=None, session_dir=tmp_path,
                     compute=RecordingCompute()).run()
        compute = RecordingCompute()
        again = SweepSession(spec, cache=None, session_dir=tmp_path,
                             resume=False, compute=compute).run()
        assert len(compute.calls) == 4
        assert again.counters["computed"] == 4

    def test_result_cache_stage(self, tmp_path, tiny_profile,
                                no_trace_stage):
        spec = _grid_spec(tiny_profile)
        cache = ResultCache(tmp_path / "cache")
        for point, config in spec.configs().items():
            cache.put(spec.point_key(config), _stats(point[1]))
        compute = RecordingCompute()
        result = SweepSession(spec, cache=cache,
                              session_dir=tmp_path / "sessions",
                              compute=compute).run()
        assert compute.calls == []
        assert result.counters["cached"] == 4

    def test_resume_heals_wiped_result_cache(self, tmp_path,
                                             tiny_profile,
                                             no_trace_stage):
        spec = _grid_spec(tiny_profile)
        cache_dir = tmp_path / "cache"
        SweepSession(spec, cache=ResultCache(cache_dir),
                     session_dir=tmp_path / "sessions",
                     compute=RecordingCompute()).run()
        for path in cache_dir.glob("*.json"):
            path.unlink()
        cache = ResultCache(cache_dir)
        resumed = SweepSession(spec, cache=cache,
                               session_dir=tmp_path / "sessions",
                               resume=True,
                               compute=RecordingCompute()).run()
        assert resumed.counters["journaled"] == 4
        for point, config in spec.configs().items():
            assert cache.get(spec.point_key(config)) is not None

    def test_an_interrupted_stage_keeps_the_points_it_computed(
            self, tmp_path, tiny_profile, no_trace_stage):
        """Journal-less, like a fabric worker's session: the result cache
        is all that outlives a ^C, and each simulated point is in it as
        soon as it is computed -- and before anybody hears of it."""
        spec = _grid_spec(tiny_profile)
        cache = ResultCache(tmp_path / "cache")
        keys = {point: spec.point_key(config)
                for point, config in spec.configs().items()}
        heard = []

        def compute(benchmark, profile, config, point):
            if len(heard) == 2:
                raise KeyboardInterrupt
            return _stats(point[1])

        def progress(point, status, done, total, counters):
            heard.append((point, cache.get(keys[point]) is not None))

        with pytest.raises(KeyboardInterrupt):
            SweepSession(spec, cache=cache, compute=compute,
                         progress=progress).run()
        assert [banked for _, banked in heard] == [True, True]
        assert sorted(point for point in keys
                      if cache.get(keys[point]) is not None) \
            == sorted(point for point, _ in heard)

    def test_progress_callback_sees_every_point(self, tmp_path,
                                                tiny_profile,
                                                no_trace_stage):
        spec = _grid_spec(tiny_profile)
        seen = []
        SweepSession(
            spec, cache=None, session_dir=tmp_path,
            compute=RecordingCompute(),
            progress=lambda point, status, done, total, counters:
                seen.append((point, status, done, total))).run()
        assert len(seen) == 4
        assert [done for _, _, done, _ in seen] == [1, 2, 3, 4]
        assert all(status == "computed" for _, status, _, _ in seen)


@pytest.fixture
def simulations(monkeypatch):
    """Every application the sweep machinery hands the simulator, in
    call order -- counted at ``runner.run_simulation``, the seam
    ``bench/spans.py`` and the CI smoke scripts also count on.  Set
    ``die_on`` to *n* and the *n*-th call raises instead of running."""
    real, seen = runner.run_simulation, []

    def counting(config, application, **kwargs):
        seen.append(application)
        if len(seen) == counting.die_on:
            raise RuntimeError("killed mid-stage")
        return real(config, application, **kwargs)

    counting.die_on, counting.seen = None, seen
    monkeypatch.setattr(runner, "run_simulation", counting)
    return counting


class TestEngineDoor:
    def test_kill_mid_replay_stage_loses_only_the_rung_in_flight(
            self, tmp_path, tiny_profile, simulations):
        """A uniprocessor row the fused ladder does not admit (two-way
        associative SCCs) replays rung by rung; dying in rung 3 leaves
        rungs 1-2 journaled and cached, and the resumed run replays the
        other two off the recorded tape."""
        ladder = (2 * KB, 4 * KB, 8 * KB, 16 * KB)
        spec = SweepSpec.multiprogramming(
            profile=tiny_profile, procs=(1,), ladder=ladder,
            variants=(("associativity", 2),))
        cache = ResultCache(tmp_path / "cache")
        stores = dict(cache=cache, trace_cache=TraceCache(tmp_path / "t"),
                      session_dir=tmp_path / "sessions")
        simulations.die_on = 3
        with pytest.raises(RuntimeError, match="killed mid-stage"):
            run_sweep(spec, **stores)
        journal = SessionJournal(spec, tmp_path / "sessions")
        assert journal.load()
        assert {label: entry["status"]
                for label, entry in journal.points.items()} == {
            f"1/{2 * KB}": "done", f"1/{4 * KB}": "done"}
        assert [cache.get(spec.point_key(config)) is not None
                for config in spec.configs().values()] == [
            True, True, False, False]

        simulations.die_on = None
        del simulations.seen[:]
        resumed = SweepSession(spec, resume=True, **stores).run()
        assert resumed.counters["journaled"] == 2
        assert resumed.counters["replayed"] == 2
        assert [type(application) for application in simulations.seen] \
            == [ReplayApplication, ReplayApplication]
        pristine = run_sweep(spec, cache=None,
                             trace_cache=TraceCache(tmp_path / "t2"))
        assert {p: s.as_dict() for p, s in resumed.sweep.items()} == \
            {p: s.as_dict() for p, s in pristine.items()}


class TestRetriesAndQuarantine:
    def test_transient_failure_is_retried(self, tmp_path, tiny_profile,
                                          no_trace_stage):
        spec = _grid_spec(tiny_profile, max_attempts=3)
        flaky = (1, 4 * KB)
        compute = RecordingCompute(fail={flaky: 1})
        result = SweepSession(spec, cache=None, session_dir=tmp_path,
                              compute=compute).run()
        assert result.complete
        assert result.counters["retried"] == 1
        assert compute.calls.count(flaky) == 2
        assert SweepSession(spec, cache=None, session_dir=tmp_path,
                            resume=True,
                            compute=RecordingCompute()).run().sweep
        journal = SessionJournal(spec, tmp_path)
        journal.load()
        assert journal.entry(flaky)["attempts"] == 2

    def test_poisoned_point_is_quarantined(self, tmp_path, tiny_profile,
                                           no_trace_stage):
        spec = _grid_spec(tiny_profile, max_attempts=2)
        poisoned = (2, 8 * KB)
        compute = RecordingCompute(fail={poisoned: 99})
        session = SweepSession(spec, cache=None, session_dir=tmp_path,
                               compute=compute)
        result = session.run()
        assert set(result.quarantined) == {poisoned}
        assert "RuntimeError" in result.quarantined[poisoned]
        assert "after 2 attempts" in result.quarantined[poisoned]
        # The rest of the grid still resolved.
        assert set(result.sweep) == set(spec.configs()) - {poisoned}
        assert result.counters["quarantined"] == 1
        assert "1 quarantined" in result.summary()

    def test_run_sweep_raises_after_resolving_grid(self, tmp_path,
                                                   tiny_profile,
                                                   no_trace_stage,
                                                   monkeypatch):
        from repro.experiments import session as session_module
        spec = _grid_spec(tiny_profile, max_attempts=1)
        poisoned = (1, 8 * KB)
        compute = RecordingCompute(fail={poisoned: 99})
        monkeypatch.setattr(session_module, "_point_task", compute)
        with pytest.raises(QuarantinedPointError) as err:
            run_sweep(spec, cache=None, session_dir=tmp_path)
        assert set(err.value.quarantined) == {poisoned}
        assert "scc=8192B" in str(err.value)

    def test_resume_gives_quarantined_points_a_fresh_chance(
            self, tmp_path, tiny_profile, no_trace_stage):
        spec = _grid_spec(tiny_profile, max_attempts=1)
        poisoned = (1, 4 * KB)
        SweepSession(spec, cache=None, session_dir=tmp_path,
                     compute=RecordingCompute(fail={poisoned: 99})).run()
        healed = SweepSession(spec, cache=None, session_dir=tmp_path,
                              resume=True,
                              compute=RecordingCompute()).run()
        assert healed.complete
        assert healed.counters["journaled"] == 3
        assert healed.counters["computed"] == 1
        assert poisoned in healed.sweep


class TestFaultInjection:
    def test_injected_raise_quarantines_point(self, tmp_path,
                                              tiny_profile,
                                              no_trace_stage,
                                              monkeypatch):
        target = (1, 4 * KB)
        monkeypatch.setenv(FAULT_INJECT_ENV, "1:4096:raise")
        spec = _grid_spec(tiny_profile, ladder=(4 * KB,), procs=(1, 2),
                          max_attempts=2)
        session = SweepSession(spec, cache=None, session_dir=tmp_path)
        result = session.run()
        assert set(result.quarantined) == {target}
        assert "injected fault" in result.quarantined[target]
        assert (2, 4 * KB) in result.sweep
        assert result.counters["retried"] == 1

    def test_injection_targets_one_point(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "1:4096:raise")
        _maybe_inject_fault((2, 4096))  # not the target: no-op
        with pytest.raises(RuntimeError):
            _maybe_inject_fault((1, 4096))

    def test_malformed_injection_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "nonsense")
        with pytest.raises(ValueError):
            _maybe_inject_fault((1, 4096))
        monkeypatch.setenv(FAULT_INJECT_ENV, "1:4096:explode")
        with pytest.raises(ValueError):
            _maybe_inject_fault((1, 4096))


class TestPooledExecution:
    def test_pooled_points_compute_and_journal(self, tmp_path,
                                               tiny_profile,
                                               no_trace_stage,
                                               fresh_pool):
        spec = _grid_spec(tiny_profile, ladder=(4 * KB, 8 * KB),
                          procs=(1,), jobs=2)
        result = SweepSession(spec, cache=None,
                              session_dir=tmp_path).run()
        assert result.complete
        assert result.counters["computed"] == 2
        journal = SessionJournal(spec, tmp_path)
        assert journal.load()
        assert journal.entry((1, 4 * KB))["status"] == "done"

    def test_hung_point_times_out_and_quarantines(self, tmp_path,
                                                  tiny_profile,
                                                  no_trace_stage,
                                                  fresh_pool,
                                                  monkeypatch):
        """A worker stuck in a simulation is killed at the deadline and
        the point quarantined; the rest of the grid still resolves on
        the rebuilt pool."""
        monkeypatch.setenv(FAULT_INJECT_ENV, "1:4096:hang")
        spec = _grid_spec(tiny_profile, ladder=(4 * KB, 8 * KB),
                          procs=(1,), jobs=2, max_attempts=1,
                          point_timeout=1.0)
        result = SweepSession(spec, cache=None,
                              session_dir=tmp_path).run()
        assert set(result.quarantined) == {(1, 4 * KB)}
        assert "no result within" in result.quarantined[(1, 4 * KB)]
        assert (1, 8 * KB) in result.sweep

    def test_timeout_alone_forces_pool(self, tmp_path, tiny_profile,
                                       no_trace_stage, fresh_pool):
        """A serial spec with a timeout still gets supervised execution
        (timeouts need a killable worker process)."""
        spec = _grid_spec(tiny_profile, ladder=(4 * KB,), procs=(1,),
                          jobs=None, point_timeout=30.0)
        result = SweepSession(spec, cache=None,
                              session_dir=tmp_path).run()
        assert result.complete
        assert result.counters["computed"] == 1
