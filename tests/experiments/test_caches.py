"""Cache-robustness and worker-pool tests for the sweep runner.

Covers the failure modes a long-lived on-disk cache actually meets:
corrupt, truncated or emptied files (killed writers, disk trouble),
digest collisions, concurrent ``--jobs`` writers racing on one
directory -- and files written by an earlier version, which must still
be hits.
"""

import dataclasses
import logging
import struct
import sys
from array import array

import pytest

from repro.experiments import runner
from repro.experiments.runner import (ExperimentProfile, ResultCache,
                                      RunStats, _worker_pool)
from repro.experiments.session import (SessionJournal, SweepSession,
                                       run_sweep)
from repro.experiments.spec import SweepSpec
from repro.model.profile import MODEL_VERSION, ProfileCache, RowProfile
from repro.trace.packed import OP_COMPUTE, OP_READ
from repro.trace.record import TraceCache


def make_stats(**overrides):
    base = dict(execution_time=123, read_miss_rate=0.25, miss_rate=0.125,
                invalidations=0, reads=80, writes=20, events=100)
    base.update(overrides)
    return RunStats(**base)


def tape():
    return {0: array("q", [OP_READ, 64, OP_COMPUTE, 3])}


class TestRunStatsAsDict:
    @pytest.mark.parametrize("instrument", [None, {"bus_peak": 0.5,
                                                   "conflicts": 3.0}])
    def test_equals_dataclasses_asdict(self, instrument):
        """``as_dict`` is ``dataclasses.asdict``, and ``from_dict`` reads
        it back -- with or without the ``instrument`` digest a payload
        cached while points carried a probe holds."""
        stats = make_stats()
        flat = stats.as_dict()
        assert flat == dataclasses.asdict(stats)
        assert list(flat) == list(dataclasses.asdict(stats))
        if instrument is not None:
            flat["instrument"] = instrument
        assert RunStats.from_dict(flat) == stats

    def test_instrument_is_a_copy(self):
        """Dropping the digest leaves the caller's payload as it was."""
        payload = dict(make_stats().as_dict(), instrument={"bus_peak": 0.5})
        assert RunStats.from_dict(payload) == make_stats()
        assert payload["instrument"] == {"bus_peak": 0.5}


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = make_stats()
        cache.put("key", stats)
        assert cache.get("key") == stats
        assert cache.get("other") is None

    def test_wrong_shape_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", make_stats())
        cache._path("a").write_text('{"unexpected": 1}')
        assert cache.get("a") is None
        assert not cache._path("a").exists()

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", make_stats())
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []


class TestTraceCache:
    def test_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("sig", tape())
        streams = cache.get("sig")
        assert streams is not None
        assert dict(streams)[0].tolist() == tape()[0].tolist()
        assert cache.get("other-sig") is None

    def test_garbage_file_is_deleted_and_warned(self, tmp_path, caplog):
        """A foreign file sitting at an entry's name -- one no ``put``
        ever wrote -- is damage like any other."""
        cache = TraceCache(tmp_path)
        path = cache._path("sig")
        path.write_bytes(b"not a trace at all")
        with caplog.at_level(logging.WARNING):
            assert cache.get("sig") is None
        assert not path.exists()
        assert any("corrupt" in rec.getMessage()
                   for rec in caplog.records)

    def test_signature_collision_is_a_plain_miss(self, tmp_path,
                                                 monkeypatch):
        """A well-formed file recorded under another signature is a
        digest collision, not damage: report a miss but keep the file."""
        cache = TraceCache(tmp_path)
        fixed = tmp_path / "fixed.trace"
        monkeypatch.setattr(TraceCache, "_path",
                            lambda self, signature: fixed)
        cache.put("sig-a", tape())
        assert cache.get("sig-b") is None
        assert fixed.exists()
        assert cache.get("sig-a") is not None


def _plain(value):
    """A cached value as comparable data, whichever kind it is."""
    if isinstance(value, dict):
        return {proc: list(data) for proc, data in value.items()}
    return value.as_dict()


KINDS = {
    "result": (ResultCache, make_stats()),
    "trace": (TraceCache, tape()),
    "profile": (ProfileCache,
                RowProfile({"model_version": MODEL_VERSION, "rows": [3, 1]})),
}

DAMAGE = {
    "garbage": lambda raw: b"not a cache file \xff\xfe",
    # (a tape cut by whole int64s still parses: its descriptor says no)
    "truncated": lambda raw: raw[:-8],
    "zero-length": lambda raw: b"",
    "wrong-magic": lambda raw: b"XXXX" + raw[4:],
    "wrong-shape": lambda raw: b'["valid", "json"]',
}

CASES = [(kind, damage) for kind in KINDS
         for damage in ("garbage", "truncated", "zero-length")] + [
    ("trace", "wrong-magic"), ("result", "wrong-shape"),
    ("profile", "wrong-shape")]


class TestDamagedFiles:
    """One rule for every kind of keyed file: damage is a miss, the file
    is deleted, the cache warns once however many it meets, and the next
    ``put`` heals the entry."""

    @pytest.mark.parametrize("kind, damage", CASES,
                             ids=[f"{k}-{d}" for k, d in CASES])
    def test_miss_delete_warn_heal(self, tmp_path, caplog, kind, damage):
        make, value = KINDS[kind]
        cache = make(tmp_path)
        for key in ("a", "b"):
            cache.put(key, value)
            path = cache._path(key)
            path.write_bytes(DAMAGE[damage](path.read_bytes()))
        with caplog.at_level(logging.WARNING):
            assert cache.get("a") is None
            assert cache.get("b") is None
        assert not cache._path("a").exists()
        assert not cache._path("b").exists()
        warnings = [record for record in caplog.records
                    if "corrupt" in record.getMessage()]
        assert len(warnings) == 1
        cache.put("a", value)
        assert _plain(cache.get("a")) == _plain(value)


# Written by the previous release of each writer: a change that moves a
# name or a byte here orphans every warm cache and fabric store.  (A
# version bump -- CACHE_VERSION, TRACE_FORMAT_VERSION, MODEL_VERSION,
# JOURNAL_VERSION -- is the one legitimate reason to update them.)
STATS = make_stats(invalidations=2)
TAPE = {1: array("q", [2, 200]), 0: array("q", [1, 100, 3, 25])}
PROFILE = {"model_version": 1, "rows": [3, 1], "name": "x"}
JOURNAL_PROFILE = ExperimentProfile(
    name="tiny", ladder_scale=8, barnes_bodies=24, barnes_steps=1,
    mp3d_particles=40, mp3d_steps=1, cholesky_n=48,
    multiprog_instructions=1500, multiprog_quantum=500)

PARENT_FILES = {
    "results": ("0c05fa6c1cc135633b43b103.json",
                b'{"execution_time": 123, "read_miss_rate": 0.25, '
                b'"miss_rate": 0.125, "invalidations": 2, "reads": 80, '
                b'"writes": 20, "events": 100}'),
    "traces": ("376d3507bc7b499b53f97286.trace",
               b"RPTC\x01\x00\x00\x00\x00\x00\x00\x36"
               b'{"signature": "tape-sig", "streams": [[0, 4], [1, 2]]}'
               + struct.pack("<6q", 1, 100, 3, 25, 2, 200)),
    "profiles": ("e0728201ca065c87c847267d.json",
                 b'{"model_version": 1, "name": "x", "rows": [3, 1]}'),
    "sessions": ("c4bbf909ee28b70cda7761cb.jsonl",
                 b'{"signature": "c4bbf909ee28b70cda7761cb", '
                 b'"spec": {"benchmark": "multiprogramming", '
                 b'"instrument": true, "kind": "multiprogramming", '
                 b'"ladder": [4096, 8192], "procs": [1], '
                 b'"profile": {"barnes_bodies": 24, "barnes_steps": 1, '
                 b'"cholesky_n": 48, "ladder_scale": 8, '
                 b'"mp3d_particles": 40, "mp3d_steps": 1, '
                 b'"multiprog_instructions": 1500, '
                 b'"multiprog_quantum": 500, "name": "tiny"}}, '
                 b'"version": 2}\n'
                 b'{"attempts": 1, "point": "1/4096", '
                 b'"stats": {"events": 100, "execution_time": 123, '
                 b'"invalidations": 2, '
                 b'"miss_rate": 0.125, "read_miss_rate": 0.25, '
                 b'"reads": 80, "writes": 20}, "status": "done"}\n'),
}

DIGEST = b'"instrument": {"bus_peak": 0.5, "bus_transactions": 7.0}'
"""The observability digest every simulated point carried while sweep
points ran under a probe (same cache, journal and wire versions)."""

PROBED_FILES = {
    "results": ("0c05fa6c1cc135633b43b103.json",
                b'{"execution_time": 123, "read_miss_rate": 0.25, '
                b'"miss_rate": 0.125, "invalidations": 2, "reads": 80, '
                b'"writes": 20, "events": 100, ' + DIGEST + b'}'),
    "sessions": ("c4bbf909ee28b70cda7761cb.jsonl",
                 PARENT_FILES["sessions"][1].replace(
                     b'"invalidations": 2, ',
                     DIGEST + b', "invalidations": 2, ')),
}


def _journal(directory):
    spec = SweepSpec.multiprogramming(profile=JOURNAL_PROFILE, procs=(1,),
                                      ladder=(4096, 8192))
    return SessionJournal(spec, directory)


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="tapes hold native-endian words")
class TestFilesOfThePreviousRelease:
    def test_same_names_and_bytes(self, tmp_path):
        ResultCache(tmp_path / "results").put("result-key", STATS)
        TraceCache(tmp_path / "traces").put("tape-sig", TAPE)
        ProfileCache(tmp_path / "profiles").put("profile-key",
                                                RowProfile(PROFILE))
        _journal(tmp_path / "sessions").record((1, 4096), "done",
                                               stats=STATS)
        for sub, (name, data) in PARENT_FILES.items():
            assert [path.name for path in (tmp_path / sub).iterdir()] \
                == [name], sub
            assert (tmp_path / sub / name).read_bytes() == data, sub

    def test_they_are_hits(self, tmp_path):
        for sub, (name, data) in PARENT_FILES.items():
            (tmp_path / sub).mkdir()
            (tmp_path / sub / name).write_bytes(data)
        assert ResultCache(tmp_path / "results").get("result-key") == STATS
        assert _plain(TraceCache(tmp_path / "traces").get("tape-sig")) \
            == _plain(TAPE)
        assert ProfileCache(tmp_path / "profiles").get(
            "profile-key").as_dict() == PROFILE
        journal = _journal(tmp_path / "sessions")
        assert journal.load()
        assert journal.entry((1, 4096))["stats"] == STATS.as_dict()

    def test_files_with_a_digest_are_equal_hits(self, tmp_path):
        for sub, (name, data) in PROBED_FILES.items():
            assert DIGEST in data
            (tmp_path / sub).mkdir()
            (tmp_path / sub / name).write_bytes(data)
        cached = ResultCache(tmp_path / "results").get("result-key")
        assert cached == STATS
        assert cached.as_dict() == STATS.as_dict()
        # A resumed session banks the journal's point from its digest-
        # bearing line (and simulates only the point it lacks).
        computed = []

        def compute(benchmark, profile, config, point):
            computed.append(point)
            return STATS

        spec = dataclasses.replace(_journal(tmp_path).spec,
                                   fidelity="full")
        result = SweepSession(spec, cache=None,
                              session_dir=tmp_path / "sessions",
                              resume=True, compute=compute).run()
        assert computed == [(1, 8192)]
        assert result.counters["journaled"] == 1
        assert result.sweep[(1, 4096)] == STATS


class TestWorkerPool:
    def test_pool_is_reused_across_calls(self):
        pool = _worker_pool(2)
        try:
            assert _worker_pool(2) is pool
            # Changing the job count rebuilds the pool.
            assert _worker_pool(1) is not pool
        finally:
            runner._shutdown_pool()

    def test_parallel_grid_matches_serial(self, tmp_path, tiny_profile):
        def sweep(jobs):
            spec = SweepSpec.multiprogramming(
                profile=tiny_profile, ladder=(32768, 65536), procs=(1, 2),
                jobs=jobs, max_attempts=1)
            return run_sweep(spec, cache=ResultCache(tmp_path / str(jobs)),
                             trace_cache=TraceCache(tmp_path / "traces"))
        serial = sweep(1)
        try:
            parallel = sweep(2)
        finally:
            runner._shutdown_pool()
        assert parallel == serial
