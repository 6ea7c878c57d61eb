"""The artifact store: local-cache interop and idempotent publish."""

from array import array

import pytest

from repro.experiments.runner import ResultCache
from repro.fabric.store import ArtifactStore, MemoryCache
from repro.trace.record import TraceCache, default_trace_cache

from .conftest import make_stats


class TestLocalLayoutInterop:
    """``ArtifactStore(dir)`` IS the local cache, byte for byte."""

    def test_store_writes_are_plain_result_cache_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.publish("some-key", make_stats(7))
        direct = ResultCache(tmp_path).get("some-key")
        assert direct is not None
        assert direct.as_dict() == make_stats(7).as_dict()

    def test_local_sweep_warmth_is_store_warmth(self, tmp_path):
        ResultCache(tmp_path).put("local-key", make_stats(3))
        assert (ArtifactStore(tmp_path).get_stats("local-key").as_dict()
                == make_stats(3).as_dict())

    def test_tapes_share_the_trace_cache_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        streams = {0: array("q", [1, 2, 3]), 1: array("q", [4, 5])}
        store.traces.put("sig", streams)
        direct = TraceCache(tmp_path / "traces").get("sig")
        assert direct is not None
        assert {p: list(s) for p, s in direct.items()} == \
               {p: list(s) for p, s in streams.items()}

    def test_default_honours_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = ArtifactStore.default()
        assert store.directory == tmp_path / "cache"
        # ... and its tapes are the ones local sweeps record
        assert store.traces.directory == default_trace_cache().directory


class TestIdempotentPublish:
    @pytest.fixture(params=["memory", "disk"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return ArtifactStore.in_memory()
        return ArtifactStore(tmp_path)

    def test_second_publish_is_dropped(self, store):
        assert store.publish("key", make_stats(1)) is True
        # A duplicate completion never rewrites the artifact -- even a
        # (hypothetically) different payload under the same key.
        assert store.publish("key", make_stats(99)) is False
        assert store.get_stats("key").as_dict() == make_stats(1).as_dict()

    def test_memory_cache_counts_real_writes(self):
        store = ArtifactStore.in_memory()
        store.publish("a", make_stats(1))
        store.publish("a", make_stats(2))
        store.publish("b", make_stats(3))
        assert store.results.puts == 2


class TestMemoryCaches:
    def test_trace_streams_are_copied(self):
        cache = MemoryCache()
        original = {0: array("q", [1, 2])}
        cache.put("sig", original)
        original[0][0] = 99
        fetched = cache.get("sig")
        assert list(fetched[0]) == [1, 2]
        fetched[0][0] = 77
        assert list(cache.get("sig")[0]) == [1, 2]

    def test_results_are_copied(self):
        cache = MemoryCache()
        stats = make_stats(1)
        cache.put("key", stats)
        fetched = cache.get("key")
        assert fetched == stats and fetched is not stats
        assert cache.get("key") is not fetched

    def test_missing_keys(self):
        assert MemoryCache().get("nope") is None

    def test_store_requires_some_backing(self):
        with pytest.raises(ValueError):
            ArtifactStore()
