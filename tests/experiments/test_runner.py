"""Tests for the sweep runner and result cache."""

import pytest

from repro.core.config import KB
from repro.experiments.runner import (PAPER_LADDER, PROFILES, ResultCache,
                                      RunStats, active_profile)
from repro.experiments.session import run_sweep
from repro.experiments.spec import SweepSpec
from repro.trace.record import TraceCache


def mp3d_grid(profile, cache, **knobs):
    """A fail-fast MP3D grid (one attempt, no journal)."""
    return run_sweep(SweepSpec.parallel("mp3d", profile=profile,
                                        max_attempts=1, **knobs),
                     cache=cache)


def mp3d_point(profile, cache, **knobs):
    """One MP3D configuration (or its cache entry): a one-point spec."""
    return mp3d_grid(profile, cache, procs=(1,), ladder=(8 * KB,),
                     **knobs)[(1, 8 * KB)]


@pytest.fixture
def tiny_profile():
    from repro.experiments.runner import ExperimentProfile
    return ExperimentProfile(
        name="tiny", ladder_scale=8,
        barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1,
        cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"quick", "paper"}
        for profile in PROFILES.values():
            assert profile.ladder_scale >= 1

    def test_scaled_ladder(self):
        ladder = PROFILES["quick"].scaled_ladder()
        assert ladder[0] == 4 * KB // 8
        assert ladder[-1] == 512 * KB // 8
        assert len(ladder) == len(PAPER_LADDER)

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "quick")
        assert active_profile().name == "quick"
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            active_profile()

    def test_workload_dispatch(self, tiny_profile):
        for name in ("barnes-hut", "mp3d", "cholesky",
                     "multiprogramming"):
            assert tiny_profile.workload(name) is not None
        with pytest.raises(ValueError):
            tiny_profile.workload("linpack")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = RunStats(execution_time=100, read_miss_rate=0.5,
                         miss_rate=0.4, invalidations=7, reads=10,
                         writes=5, events=20)
        assert cache.get("key") is None
        cache.put("key", stats)
        assert cache.get("key") == stats

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = RunStats(1, 0.0, 0.0, 0, 0, 0, 0)
        cache.put("a", stats)
        assert cache.get("b") is None

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = RunStats(1, 0.0, 0.0, 0, 0, 0, 0)
        cache.put("a", stats)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        assert cache.get("a") is None


class TestRunPoint:
    def test_run_point_populates_cache(self, tmp_path, tiny_profile):
        cache = ResultCache(tmp_path)
        first = mp3d_point(tiny_profile, cache)
        assert first.execution_time > 0
        assert first.reads > 0
        # A second call is served from the cache (same values).
        second = mp3d_point(tiny_profile, cache)
        assert second == first
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_sweep_covers_the_grid(self, tmp_path, tiny_profile):
        sweep = mp3d_grid(tiny_profile, ResultCache(tmp_path),
                          ladder=(4 * KB, 64 * KB), procs=(1, 2))
        assert set(sweep) == {(1, 4 * KB), (2, 4 * KB),
                              (1, 64 * KB), (2, 64 * KB)}

    def test_run_point_carries_instrument_digest(self, tmp_path,
                                                 tiny_profile):
        cache = ResultCache(tmp_path)
        stats = mp3d_point(tiny_profile, cache)
        assert stats.instrument is not None
        assert stats.instrument["bus_transactions"] > 0
        assert "bus_peak_utilization" in stats.instrument
        # The digest survives the JSON cache round trip.
        cached = mp3d_point(tiny_profile, cache)
        assert cached.instrument == stats.instrument

    def test_instrument_digest_excluded_from_equality(self):
        """Pre-v4 cache payloads deserialize to instrument=None and must
        still compare equal on the physics."""
        a = RunStats(1, 0.0, 0.0, 0, 0, 0, 0, instrument=None)
        b = RunStats(1, 0.0, 0.0, 0, 0, 0, 0, instrument={"x": 1.0})
        assert a == b


class TestParallelJobs:
    def test_parallel_matches_serial_and_shares_cache(self, tmp_path,
                                                      tiny_profile):
        """jobs=2 computes the same stats as a serial sweep and writes
        cache entries a later serial sweep is fully served from."""
        cache = ResultCache(tmp_path)
        grid = dict(ladder=(2 * KB, 4 * KB), procs=(1, 2))
        parallel = mp3d_grid(tiny_profile, cache, jobs=2, **grid)
        entries = len(list(tmp_path.glob("*.json")))
        assert entries == 4
        serial = mp3d_grid(tiny_profile, cache, jobs=None, **grid)
        assert serial == parallel
        # Fully cache-served: no new entries were written.
        assert len(list(tmp_path.glob("*.json"))) == entries

    def test_jobs_one_is_serial(self, tmp_path, tiny_profile):
        sweep = mp3d_grid(tiny_profile, ResultCache(tmp_path), jobs=1,
                          ladder=(2 * KB,), procs=(1,))
        assert sweep[(1, 2 * KB)].execution_time > 0


class TestInstrumentFlag:
    def test_instrument_false_skips_digest(self, tmp_path, tiny_profile):
        cache = ResultCache(tmp_path)
        bare = mp3d_point(tiny_profile, cache, instrument=False)
        assert bare.instrument is None
        # The digest-less payload must not shadow the instrumented one.
        instrumented = mp3d_point(tiny_profile, cache)
        assert instrumented.instrument is not None
        # Physics identical either way (probes must not perturb stats).
        assert instrumented == bare
        assert instrumented.events == bare.events


class TestTraceCachedSweep:
    def test_deterministic_row_records_once_and_replays(self, tmp_path,
                                                        tiny_profile):
        """The single-processor multiprogramming row is recorded at one
        ladder rung and replayed at the others -- with statistics equal
        to simulating each point directly."""
        ladder = (2 * KB, 8 * KB, 32 * KB)
        trace_dir = tmp_path / "traces"
        sweep = run_sweep(
            SweepSpec.multiprogramming(profile=tiny_profile, ladder=ladder,
                                       procs=(1,), max_attempts=1),
            cache=ResultCache(tmp_path / "results"),
            trace_cache=TraceCache(trace_dir))
        assert set(sweep) == {(1, size) for size in ladder}
        # One recording serves the whole row.
        assert len(list(trace_dir.glob("*.trace"))) == 1
        # Every point equals a direct, replay-free simulation.
        for (procs, paper_bytes), stats in sweep.items():
            direct = run_sweep(
                SweepSpec.multiprogramming(
                    profile=tiny_profile, procs=(procs,),
                    ladder=(paper_bytes,), fidelity="full",
                    max_attempts=1),
                cache=None)[(procs, paper_bytes)]
            assert direct == stats
            assert direct.events == stats.events

    def test_nondeterministic_rows_bypass_trace_cache(self, tmp_path,
                                                      tiny_profile):
        """Multi-processor rows race on the run queue, so they must
        simulate normally and leave no recordings behind."""
        trace_dir = tmp_path / "traces"
        sweep = run_sweep(
            SweepSpec.multiprogramming(profile=tiny_profile,
                                       ladder=(2 * KB, 8 * KB), procs=(2,),
                                       max_attempts=1),
            cache=ResultCache(tmp_path / "results"),
            trace_cache=TraceCache(trace_dir))
        assert len(sweep) == 2
        assert list(trace_dir.glob("*.trace")) == []
