"""Unit and property tests for the snoopy write-invalidate protocol."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bus import SnoopyBus
from repro.core.cache import (EXCLUSIVE, INVALID, MODIFIED, SHARED,
                              DirectMappedArray)
from repro.core.coherence import CoherenceController
from repro.core.config import KB, SystemConfig
from repro.core.scc import SharedClusterCache


def make_controller(clusters=4, scc_size=4 * KB, **overrides):
    config = SystemConfig(clusters=clusters, scc_size=scc_size, **overrides)
    sccs = [SharedClusterCache(config, c) for c in range(clusters)]
    bus = SnoopyBus()
    return config, sccs, CoherenceController(config, sccs, bus)


class TestReads:
    def test_cold_read_misses_and_installs_shared(self):
        config, sccs, ctrl = make_controller()
        outcome = ctrl.access(cluster=0, line=7, is_write=False, start=0)
        assert not outcome.hit
        assert outcome.complete == config.memory_latency + 1
        assert sccs[0].array.state(7) == SHARED
        assert sccs[0].stats.read_misses == 1

    def test_second_read_hits(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, False, 0)
        outcome = ctrl.access(0, 7, False, 500)
        assert outcome.hit
        assert outcome.complete == 501
        assert sccs[0].stats.reads == 2
        assert sccs[0].stats.read_misses == 1

    def test_read_merging_with_inflight_fill(self):
        """A second processor reading an in-flight line waits for the fill
        instead of getting the data early -- the MSHR merge."""
        config, sccs, ctrl = make_controller()
        first = ctrl.access(0, 7, False, 0)   # fill arrives at 100
        second = ctrl.access(0, 7, False, 10)
        assert second.hit  # tag already installed; the fill is in flight
        assert second.complete == first.complete
        # After the fill lands, hits are single-cycle again.
        third = ctrl.access(0, 7, False, 200)
        assert third.complete == 201

    def test_read_downgrades_remote_modified(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(1, 7, True, 0)   # cluster 1 owns the line MODIFIED
        assert sccs[1].array.state(7) == MODIFIED
        ctrl.access(0, 7, False, 500)
        assert sccs[1].array.state(7) == SHARED
        assert sccs[0].array.state(7) == SHARED
        assert sccs[0].stats.interventions == 1

    def test_read_does_not_invalidate_remote_shared(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(1, 7, False, 0)
        ctrl.access(0, 7, False, 500)
        assert sccs[1].array.state(7) == SHARED
        assert sccs[0].array.state(7) == SHARED


class TestWrites:
    def test_cold_write_misses_and_installs_modified(self):
        _, sccs, ctrl = make_controller()
        outcome = ctrl.access(0, 7, True, 0)
        assert not outcome.hit
        assert sccs[0].array.state(7) == MODIFIED
        assert sccs[0].stats.write_misses == 1

    def test_write_miss_does_not_stall_processor(self):
        """The write buffer hides the fetch: complete is the next cycle,
        retire is when the line actually arrives."""
        config, _, ctrl = make_controller()
        outcome = ctrl.access(0, 7, True, 0)
        assert outcome.complete == 1
        assert outcome.retire == config.memory_latency

    def test_write_hit_modified_is_silent(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, True, 0)
        bus_before = ctrl.bus.transactions
        outcome = ctrl.access(0, 7, True, 500)
        assert outcome.hit
        assert ctrl.bus.transactions == bus_before

    def test_write_to_shared_upgrades_and_invalidates(self):
        """Section 2.2.2: a write to a line present in other SCCs
        invalidates every remote copy."""
        _, sccs, ctrl = make_controller()
        for cluster in range(4):
            ctrl.access(cluster, 7, False, 0)
        outcome = ctrl.access(0, 7, True, 500)
        assert outcome.hit
        assert outcome.invalidations == 3
        assert sccs[0].array.state(7) == MODIFIED
        for cluster in (1, 2, 3):
            assert sccs[cluster].array.state(7) == INVALID
            assert sccs[cluster].stats.invalidations_received == 1
        assert sccs[0].stats.upgrades == 1
        assert sccs[0].stats.invalidations_sent == 3

    def test_write_miss_invalidates_remote_copies(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(1, 7, False, 0)
        ctrl.access(2, 7, True, 500)
        assert sccs[1].array.state(7) == INVALID
        assert sccs[2].array.state(7) == MODIFIED
        assert sccs[2].stats.invalidations_sent == 1

    def test_reread_after_invalidation_is_coherence_miss(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(1, 7, False, 0)      # cluster 1 has the line
        ctrl.access(0, 7, True, 200)     # cluster 0 steals it
        ctrl.access(1, 7, False, 400)    # cluster 1 rereads: coherence miss
        assert sccs[1].stats.coherence_read_misses == 1

    def test_cold_miss_is_not_coherence_miss(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, False, 0)
        assert sccs[0].stats.coherence_read_misses == 0


class TestReplacement:
    def test_conflicting_line_evicts_and_counts(self):
        config, sccs, ctrl = make_controller(scc_size=4 * KB)
        lines = config.scc_lines
        ctrl.access(0, 3, False, 0)
        ctrl.access(0, 3 + lines, False, 500)  # same index, different tag
        assert sccs[0].stats.evictions == 1
        assert sccs[0].stats.writebacks == 0
        assert sccs[0].array.state(3) == INVALID

    def test_dirty_victim_writes_back(self):
        config, sccs, ctrl = make_controller(scc_size=4 * KB)
        lines = config.scc_lines
        ctrl.access(0, 3, True, 0)
        ctrl.access(0, 3 + lines, False, 500)
        assert sccs[0].stats.writebacks == 1

    def test_writeback_consumes_bus_occupancy(self):
        config, sccs, ctrl = make_controller(scc_size=4 * KB)
        lines = config.scc_lines
        before = ctrl.bus.busy_cycles
        ctrl.access(0, 3, True, 0)
        ctrl.access(0, 3 + lines, False, 500)
        # write-miss fetch + read-miss fetch + write-back
        assert ctrl.bus.busy_cycles == before + 3 * config.bus_occupancy


class TestBusContention:
    def test_concurrent_misses_from_two_clusters_serialize(self):
        config, _, ctrl = make_controller()
        first = ctrl.access(0, 1, False, 0)
        second = ctrl.access(1, 2, False, 0)
        assert second.bus_wait == config.bus_occupancy
        assert second.complete == first.complete + config.bus_occupancy


LINE_POOL = st.integers(min_value=0, max_value=600)


class TestExclusivityProperty:
    @given(st.lists(st.tuples(st.integers(0, 3), LINE_POOL, st.booleans()),
                    min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_modified_lines_are_machine_wide_exclusive(self, accesses):
        """After any access sequence, a MODIFIED line has no other copy
        anywhere, and every SHARED line has no MODIFIED copy elsewhere."""
        _, sccs, ctrl = make_controller(scc_size=4 * KB)
        time = 0
        for cluster, line, is_write in accesses:
            ctrl.access(cluster, line, is_write, time)
            time += 7
        assert ctrl.check_exclusivity() is None

    @given(st.lists(st.tuples(st.integers(0, 3), LINE_POOL, st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_counters_are_consistent(self, accesses):
        _, sccs, ctrl = make_controller(scc_size=4 * KB)
        time = 0
        for cluster, line, is_write in accesses:
            ctrl.access(cluster, line, is_write, time)
            time += 7
        total_sent = sum(s.stats.invalidations_sent for s in sccs)
        total_received = sum(s.stats.invalidations_received for s in sccs)
        assert total_sent == total_received
        for scc in sccs:
            assert scc.stats.read_misses <= scc.stats.reads
            assert scc.stats.write_misses <= scc.stats.writes
            assert scc.stats.coherence_read_misses <= scc.stats.read_misses


class TestCheckExclusivityPaths:
    """check_exclusivity holds through the two transitions that move
    ownership between clusters -- and actually fires on manufactured
    violations, so the property tests above are not vacuous."""

    @given(st.integers(0, 3),
           st.lists(st.integers(0, 3), min_size=1, max_size=10),
           LINE_POOL)
    @settings(max_examples=60, deadline=None)
    def test_dirty_sharer_downgrade_path(self, writer, readers, line):
        """A remote read of a dirty line downgrades the owner; however
        the reads interleave, no MODIFIED/EXCLUSIVE copy survives one."""
        _, sccs, ctrl = make_controller()
        ctrl.access(writer, line, True, 0)
        time = 100
        for cluster in readers:
            ctrl.access(cluster, line, False, time)
            time += 100
            assert ctrl.check_exclusivity() is None
        if any(cluster != writer for cluster in readers):
            for scc in sccs:
                assert scc.array.state(line) in (INVALID, SHARED)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=8),
           st.integers(0, 3), LINE_POOL)
    @settings(max_examples=60, deadline=None)
    def test_remote_invalidate_path(self, holders, writer, line):
        """A write over any population of SHARED copies leaves exactly
        one MODIFIED copy and every remote copy INVALID."""
        _, sccs, ctrl = make_controller()
        time = 0
        for cluster in holders:
            ctrl.access(cluster, line, False, time)
            time += 50
        ctrl.access(writer, line, True, time)
        assert ctrl.check_exclusivity() is None
        assert sccs[writer].array.state(line) == MODIFIED
        for index, scc in enumerate(sccs):
            if index != writer:
                assert scc.array.state(line) == INVALID

    def test_mesi_clean_exclusive_downgrades_on_remote_read(self):
        _, sccs, ctrl = make_controller(protocol="mesi")
        ctrl.access(0, 7, False, 0)
        assert sccs[0].array.state(7) == EXCLUSIVE
        ctrl.access(1, 7, False, 100)
        assert sccs[0].array.state(7) == SHARED
        assert sccs[1].array.state(7) == SHARED
        assert ctrl.check_exclusivity() is None

    @given(st.integers(0, 3), st.integers(0, 3), LINE_POOL)
    @settings(max_examples=40, deadline=None)
    def test_manufactured_double_owner_is_detected(self, first, second,
                                                   line):
        _, sccs, ctrl = make_controller()
        ctrl.access(first, line, True, 0)
        if second == first:
            assert ctrl.check_exclusivity() is None
        else:
            sccs[second].array.install(line, MODIFIED)
            assert ctrl.check_exclusivity() == line

    def test_dirty_copy_beside_shared_copy_is_detected(self):
        _, sccs, ctrl = make_controller()
        ctrl.access(0, 7, True, 0)
        sccs[1].array.install(7, SHARED)
        assert ctrl.check_exclusivity() == 7


class TestExclusivityIndexByIndex:
    """Direct-mapped SCCs are checked index by index on numpy views of
    their tag and state arrays; the walk over every resident line is the
    oracle, and the line returned -- the first violator sighted, SCC by
    SCC -- must be the walk's."""

    @staticmethod
    def random_machine(rng):
        clusters = rng.choice([1, 2, 3, 4, 8])
        lines = rng.choice([1, 4, 6, 16])     # 1 and 6: no index mask
        valid = rng.choice([0.05, 0.3, 0.9])
        tags = rng.choice([2, 8, 64])
        _, sccs, ctrl = make_controller(clusters=clusters)
        for scc in sccs:
            scc.array = DirectMappedArray(lines)
            for index in range(lines):
                if rng.random() < valid:
                    scc.array._states[index] = rng.choice(
                        [SHARED, MODIFIED, EXCLUSIVE])
                scc.array._tags[index] = rng.randrange(-1, tags)
        return ctrl

    def test_same_line_as_the_walk(self):
        found = set()
        for seed in range(400):
            ctrl = self.random_machine(random.Random(seed))
            line = ctrl.check_exclusivity()
            assert line == ctrl.exclusivity_walk(), seed
            found.add(line is None)
        assert found == {True, False}       # clean machines and dirty ones

    def test_set_associative_sccs_take_the_walk(self):
        _, sccs, ctrl = make_controller(associativity=2)
        ctrl.access(0, 7, True, 0)
        assert ctrl.check_exclusivity() is None
        sccs[1].array.install(7, SHARED)
        assert ctrl.check_exclusivity() == ctrl.exclusivity_walk() == 7
