"""Content-addressed shared artifact store.

The fabric's data plane.  Workers publish every resolved point and
every recorded tape here; the broker reads points back out to settle
work units and to serve *warm* submissions without dispatching any work
at all.

The store deliberately invents **no new key scheme**: results are
addressed by the existing
:func:`repro.experiments.spec.point_cache_key` format (via
``SweepSpec.point_key``) and tapes by the workload's
``trace_signature``, stored through the very same
:class:`~repro.experiments.runner.ResultCache` and
:class:`~repro.trace.record.TraceCache` classes local sweeps use, in the
same layout (results at the root, tapes under ``traces/``).
:meth:`ArtifactStore.default` opens it at
:func:`~repro.diskstore.cache_root`, where local sweeps keep both, so
it *is* the default local cache, byte for byte: a sweep run locally
warms the fabric, a sweep run through the fabric warms every local
session, and journals keep resolving against the same entries.  Every
file is written with :func:`~repro.diskstore.atomic_write`, so many
workers (or many hosts over a shared filesystem) can race on a key
safely.

Publishing is idempotent: :meth:`ArtifactStore.publish` writes only
when the key is absent, so a duplicate completion -- e.g. a straggler
whose lease expired finishing after its re-leased twin -- never
rewrites an artifact.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Dict, Optional

from ..diskstore import cache_root
from ..experiments.runner import ResultCache, RunStats
from ..trace.record import TraceCache

__all__ = ["ArtifactStore", "MemoryCache"]


class MemoryCache:
    """Dict-backed stand-in for a result or trace cache (the same
    ``get`` / ``put`` surface) so a single-process fabric is testable
    without disk.  Values are copied on the way in and on the way out,
    as a file would: nobody's later mutation reaches another reader."""

    def __init__(self) -> None:
        self._entries: Dict[str, object] = {}
        self.puts = 0

    def get(self, key: str):
        value = self._entries.get(key)
        return None if value is None else copy.deepcopy(value)

    def put(self, key: str, value) -> None:
        self.puts += 1
        self._entries[key] = copy.deepcopy(value)


class ArtifactStore:
    """Results + tapes under one root, in the local cache layout.

    ``directory`` is laid out exactly like the cache root: result JSON
    files at the top level, recordings under ``traces/``.  Results go
    through :meth:`get_stats` / :meth:`publish`, tapes straight through
    ``traces`` (a :class:`~repro.trace.record.TraceCache`, keyed by
    trace signature).  Pass the
    node's own root (the ``serve`` CLI default) to share warmth with
    local sweeps, or any shared mount to share it across hosts.
    """

    def __init__(self, directory: Optional[Path] = None,
                 results=None, traces=None):
        if directory is not None:
            directory = Path(directory)
            self.directory: Optional[Path] = directory
            self.results = ResultCache(directory)
            self.traces = TraceCache(directory / "traces")
        else:
            if results is None or traces is None:
                raise ValueError("ArtifactStore needs a directory or "
                                 "explicit results= and traces= caches")
            self.directory = getattr(results, "directory", None)
            self.results = results
            self.traces = traces

    @classmethod
    def in_memory(cls) -> "ArtifactStore":
        """A process-local store (tests, ephemeral fabrics)."""
        return cls(results=MemoryCache(), traces=MemoryCache())

    @classmethod
    def default(cls) -> "ArtifactStore":
        """The store at :func:`~repro.diskstore.cache_root`: the entries
        ``default_cache`` and ``default_trace_cache`` read and write."""
        return cls(cache_root())

    # ------------------------------------------------------------------
    # Results (content-addressed by the existing point_cache_key scheme)
    # ------------------------------------------------------------------

    def get_stats(self, key: str) -> Optional[RunStats]:
        return self.results.get(key)

    def publish(self, key: str, stats: RunStats) -> bool:
        """Store ``stats`` under ``key`` unless the key is already
        populated; returns ``True`` only when a write happened.

        The key is content-derived (the full parameterisation of the
        point), so an existing entry is the same result by construction
        -- a duplicate completion is dropped, not rewritten.
        """
        if self.results.get(key) is not None:
            return False
        self.results.put(key, stats)
        return True
