"""Regression tests for in-flight fill tracking across invalidations.

A remote invalidation must always drop the victim cluster's in-flight
fill entry for the line, even when the tag array no longer holds the
copy (a conflicting install may have displaced it between the fill and
the invalidation).  A stale ``fill_ready_time`` surviving that window
would satisfy a later miss to a *different* tag mapping to the same
line with a bogus ready time."""

import random

import pytest

from repro.core.bus import SnoopyBus
from repro.core.cache import (EXCLUSIVE, MODIFIED, SHARED,
                              DirectMappedArray, SetAssociativeArray)
from repro.core.coherence import CoherenceController
from repro.core.config import KB, SystemConfig
from repro.core.directory import DirectoryController
from repro.core.scc import SharedClusterCache
from repro.core.system import MultiprocessorSystem


def make_controller(clusters=2, **overrides):
    config = SystemConfig(clusters=clusters, scc_size=4 * KB, **overrides)
    sccs = [SharedClusterCache(config, c) for c in range(clusters)]
    return config, sccs, CoherenceController(config, sccs, SnoopyBus())


class TestInflightTracking:
    def test_fill_is_tracked_then_expires(self):
        config, sccs, _ctrl = make_controller()
        sccs[0].array.install(3, 1)
        sccs[0].note_fill(3, ready=50)
        assert sccs[0].inflight_lines() == (3,)
        assert sccs[0].fill_ready_time(3, now=10) == 50
        # Asking after the fill landed forgets the entry.
        assert sccs[0].fill_ready_time(3, now=50) is None
        assert sccs[0].inflight_lines() == ()

    def test_inflight_lines_are_always_resident(self):
        """The invariant stale_inflight() enforces: fills install at
        transaction-grant time, so inflight is a subset of resident."""
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, False, 0)
        assert 7 in sccs[0].inflight_lines()
        assert sccs[0].stale_inflight() == ()

    def test_remote_invalidation_drops_inflight(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, False, 0)
        assert 7 in sccs[0].inflight_lines()
        ctrl.access(1, 7, True, 2)  # invalidates cluster 0's copy
        assert 7 not in sccs[0].inflight_lines()

    def test_drop_happens_even_without_a_resident_copy(self):
        """Regression: the drop used to be gated on the tag array still
        holding the line, so an entry orphaned by a conflicting install
        survived the invalidation."""
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, False, 0)
        sccs[0].array.invalidate(7)  # displace the copy out-of-band
        assert 7 in sccs[0].inflight_lines()
        ctrl.access(1, 7, True, 2)
        assert 7 not in sccs[0].inflight_lines()

    def test_directory_invalidation_drops_inflight_unconditionally(self):
        config = SystemConfig(clusters=2, scc_size=4 * KB,
                              inter_cluster="directory")
        sccs = [SharedClusterCache(config, c) for c in range(2)]
        ctrl = DirectoryController(config, sccs)
        ctrl.access(0, 7, False, 0)
        sccs[0].array.invalidate(7)
        assert 7 in sccs[0].inflight_lines()
        ctrl.access(1, 7, True, 2)
        assert 7 not in sccs[0].inflight_lines()


class TestStaleInflightDetection:
    def test_manufactured_leak_is_reported(self):
        _, sccs, _ctrl = make_controller()
        sccs[0].note_fill(5, ready=100)  # line 5 was never installed
        assert sccs[0].stale_inflight() == (5,)

    def test_check_invariants_flags_the_leak(self):
        config = SystemConfig(clusters=2, scc_size=4 * KB)
        system = MultiprocessorSystem(config)
        system.check_invariants()  # clean machine passes
        system.clusters[1].scc.note_fill(9, ready=100)
        with pytest.raises(AssertionError, match="fill-tracking leak"):
            system.check_invariants()


class TestStaleInflightParity:
    """The direct-mapped power-of-two fast path reports exactly what
    ``array.contains`` does, and the other arrays keep that path."""

    @pytest.mark.parametrize("array", [
        lambda: DirectMappedArray(128),
        lambda: DirectMappedArray(96),
        lambda: SetAssociativeArray(128, 4),
    ], ids=["direct-pow2", "direct-96", "assoc-4"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_contains(self, array, seed):
        rng = random.Random(seed)
        _, sccs, _ctrl = make_controller()
        scc = sccs[0]
        scc.array = array()
        for _ in range(200):
            scc.array.install(rng.randrange(1024),
                              rng.choice((SHARED, MODIFIED, EXCLUSIVE)))
        for _ in range(100):
            scc.array.invalidate(rng.randrange(1024))
        resident = [line for line, _state in scc.array.resident_lines()]
        lines = rng.sample(resident, 20) + [rng.randrange(1024)
                                            for _ in range(40)]
        for line in lines:
            scc.note_fill(line, ready=rng.randrange(1, 100))
        expected = tuple(line for line in scc.inflight_lines()
                         if not scc.array.contains(line))
        assert expected and len(expected) < len(scc.inflight_lines())
        assert scc.stale_inflight() == expected


class TestWriteBufferBound:
    def test_buffered_writes_counts_and_respects_depth(self):
        config = SystemConfig(clusters=1, scc_size=4 * KB,
                              write_buffer_depth=2)
        system = MultiprocessorSystem(config)
        icn = system.clusters[0].scc.interconnect
        assert icn.buffered_writes(0) == 0
        stalled = 0
        now = 0
        for _ in range(6):
            stalled += icn.reserve_write_slot(0, now, now + 40)
            assert icn.buffered_writes(0) <= config.write_buffer_depth
        assert stalled > 0  # a full buffer stalls rather than overflows
