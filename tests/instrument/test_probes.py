"""Tests for the probe API, the series it keeps, and the wiring that
feeds them from the simulator's contended components."""

import pytest

from repro.core.bus import SnoopyBus
from repro.core.interconnect import BankInterconnect
from repro.instrument import NULL_PROBE, InstrumentationProbe, NullProbe


class TestNullProbe:
    def test_disabled_and_silent(self):
        probe = NullProbe()
        # Every callback is a no-op; none may raise.
        probe.bus_acquire("bus", 0, 0, 4)
        probe.bank_access(0, 1, 5, 6, 1)
        probe.write_buffer(0, 1, 5, 2, 0)
        probe.cache_access(0, 3, True, False, 0, 20)
        probe.invalidation(0, 3, 2, 7)
        probe.proc_busy(0, 0, 10)
        probe.proc_stall(0, "memory", 10, 30)

    def test_singleton_is_default_everywhere(self):
        assert SnoopyBus().probe is NULL_PROBE
        assert BankInterconnect(num_banks=2).probe is NULL_PROBE

    def test_instrumentation_probe_is_a_null_probe(self):
        """Duck-typing contract: the real probe substitutes anywhere the
        null one is accepted."""
        assert isinstance(InstrumentationProbe(), NullProbe)


class TestBusProbe:
    def test_bus_emits_grants(self):
        probe = InstrumentationProbe(bin_width=100)
        bus = SnoopyBus(probe=probe, name="inter-cluster")
        bus.acquire(now=0, occupancy=40, latency=100)
        bus.acquire(now=10, occupancy=40, latency=100)
        counters = probe.counters
        assert counters["bus_transactions"] == 2
        assert counters["bus_busy_cycles"] == 80
        # Second grant waited 30 cycles for the first's occupancy.
        assert counters["bus_wait_cycles"] == 30
        assert probe.bus_occupancy.total() == 80
        assert probe.events.of_kind("bus") == [
            ("bus", 0, 40, 0, "inter-cluster"),
            ("bus", 40, 40, 30, "inter-cluster")]

    def test_bus_utilization_fraction(self):
        probe = InstrumentationProbe(bin_width=100)
        bus = SnoopyBus(probe=probe)
        bus.acquire(now=0, occupancy=50, latency=10)
        assert probe.bus_utilization() == [0.5]
        assert probe.peak_bus_utilization() == 0.5

    def test_zero_elapsed_utilization_is_zero(self):
        """Regression guard: the bus's own utilization() must not divide
        by a zero horizon, and an unprobed bus stays consistent with a
        probed one."""
        bus = SnoopyBus()
        assert bus.utilization(0) == 0.0
        bus.acquire(0, 20, 100)
        assert bus.utilization(0) == 0.0
        assert bus.utilization(40) == pytest.approx(0.5)


class TestBankProbes:
    def test_conflict_wait_lands_in_timeline(self):
        probe = InstrumentationProbe(bin_width=100)
        icn = BankInterconnect(num_banks=2, probe=probe, cluster_id=3)
        icn.access(0, now=10)
        icn.access(0, now=10)  # same bank, same cycle: 1-cycle conflict
        assert probe.counters["bank_accesses"] == 2
        assert probe.counters["bank_conflict_events"] == 1
        assert probe.bank_conflict[(3, 0)].total() == 1
        assert probe.events.of_kind("bank") == [("bank", 10, 1, 3, 0)]

    def test_a_bank_keeps_one_series_at_the_probe_width(self):
        probe = InstrumentationProbe(bin_width=64)
        probe.bank_access(1, 2, 0, 3, 3)
        first = probe.bank_conflict[(1, 2)]
        probe.bank_access(1, 2, 100, 104, 4)
        assert probe.bank_conflict == {(1, 2): first}
        assert (first.bin_width, first.mode) == (64, "sum")
        assert first.series() == [3.0, 4.0]

    def test_conflict_free_accesses_record_no_conflict(self):
        probe = InstrumentationProbe(bin_width=100)
        icn = BankInterconnect(num_banks=2, probe=probe)
        icn.access(0, now=0)
        icn.access(1, now=0)
        assert "bank_conflict_events" not in probe.counters
        assert probe.bank_conflict == {}
        assert probe.events.of_kind("bank") == []

    def test_write_buffer_stall_accounting(self):
        """A full write buffer stalls the processor until the oldest
        store drains; the probe sees the stall and the interconnect's
        own counter agrees with it."""
        probe = InstrumentationProbe(bin_width=100)
        icn = BankInterconnect(num_banks=1, write_buffer_depth=2,
                               probe=probe, cluster_id=0)
        icn.reserve_write_slot(0, now=0, retire_time=50)
        icn.reserve_write_slot(0, now=0, retire_time=60)
        stall = icn.reserve_write_slot(0, now=0, retire_time=70)
        assert stall == 50  # waited for the oldest entry
        assert icn.write_stall_cycles == 50
        assert probe.counters["write_buffer_stalls"] == 1
        assert probe.counters["write_buffer_stall_cycles"] == 50
        # Depth samples feed the high-water timeline (max mode).
        depth = probe.write_buffer_depth[0]
        assert depth.mode == "max"
        assert depth.peak() == 2
        stalls = probe.events.of_kind("wb")
        assert len(stalls) == 1
        assert stalls[0][2] == 50  # stall cycles rides in the event

    def test_unstalled_writes_record_depth_only(self):
        probe = InstrumentationProbe(bin_width=100)
        icn = BankInterconnect(num_banks=1, write_buffer_depth=4,
                               probe=probe)
        icn.reserve_write_slot(0, now=0, retire_time=50)
        assert "write_buffer_stalls" not in probe.counters
        assert probe.write_buffer_depth[0].peak() == 1


class TestProcessorProbe:
    def test_busy_and_stall_spans(self):
        probe = InstrumentationProbe(bin_width=100)
        probe.proc_busy(2, 0, 60)
        probe.proc_stall(2, "memory", 60, 100)
        probe.proc_stall(2, "sync", 100, 150)
        assert probe.proc[(2, "busy")].total() == 60
        assert probe.proc[(2, "memory")].total() == 40
        assert probe.proc[(2, "sync")].total() == 50

    def test_degenerate_spans_ignored(self):
        probe = InstrumentationProbe(bin_width=100)
        probe.proc_busy(0, 10, 0)
        probe.proc_stall(0, "memory", 10, 10)
        assert probe.proc == {}


class TestProbeLifecycle:
    def test_finalize_and_summary(self):
        probe = InstrumentationProbe(bin_width=100)
        bus = SnoopyBus(probe=probe)
        bus.acquire(0, 40, 100)
        probe.finalize(200)
        digest = probe.summary()
        assert digest["execution_time"] == 200
        assert digest["bus_transactions"] == 1
        assert digest["events_recorded"] == 1
        assert digest["events_dropped"] == 0

    def test_summary_digest(self):
        probe = InstrumentationProbe(bin_width=100)
        probe.bus_acquire("bus", 0, 0, 50)
        probe.bank_access(0, 0, 0, 4, 4)
        probe.bank_access(1, 2, 10, 13, 3)
        probe.write_buffer(0, 0, 0, 4, 0)
        probe.write_buffer(1, 0, 0, 2, 0)
        digest = probe.summary()
        assert digest["bus_transactions"] == 1
        assert digest["bus_peak_utilization"] == 0.5
        assert digest["bus_mean_utilization"] == 0.5
        assert digest["bank_conflict_cycles"] == 7
        assert digest["write_buffer_peak_depth"] == 4

    def test_summary_without_event_log(self):
        probe = InstrumentationProbe(record_events=False)
        assert probe.events is None
        probe.finalize(10)
        digest = probe.summary()
        assert "events_recorded" not in digest

    def test_rebin_collapses_every_timeline(self):
        probe = InstrumentationProbe(bin_width=10)
        bus = SnoopyBus(probe=probe)
        for start in range(0, 1000, 50):
            bus.acquire(start, 25, 10)
        before = probe.bus_occupancy.total()
        probe.rebin(8)
        occupancy = probe.bus_occupancy
        assert len(occupancy) <= 8
        assert occupancy.total() == before
        # Later events land in the rebinned timelines.
        bus2 = SnoopyBus(probe=probe)
        bus2.acquire(0, 5, 10)
        assert probe.bus_occupancy.total() == before + 5

    def test_rebin_gives_every_series_one_width(self):
        """One factor for all: a short series is coarsened as much as the
        longest, so bin i of every series covers the same cycles."""
        probe = InstrumentationProbe(bin_width=10)
        probe.bus_acquire("bus", 0, 0, 1000)            # 100 bins
        probe.bank_access(0, 1, 15, 18, 3)              # 2 bins
        probe.bank_access(2, 0, 500, 504, 4)
        probe.write_buffer(1, 0, 250, 3, 0)
        probe.proc_busy(0, 0, 300)
        probe.proc_stall(0, "memory", 300, 420)
        totals = [timeline.total() for timeline in _series(probe)]
        probe.rebin(8)
        assert probe.bin_width == 130
        for timeline in _series(probe):
            assert timeline.bin_width == probe.bin_width
            assert len(timeline) <= 8
        assert [timeline.total() for timeline in _series(probe)] == totals
        assert probe.bank_conflict[(0, 1)].series() == [3.0]
        assert probe.bank_conflict[(2, 0)].series() == [0.0, 0.0, 0.0, 4.0]

    def test_rebin_rejects_zero(self):
        with pytest.raises(ValueError):
            InstrumentationProbe().rebin(0)


def _series(probe):
    return [probe.bus_occupancy, probe.bus_wait, probe.bus_invalidations,
            *probe.bank_conflict.values(),
            *probe.write_buffer_depth.values(), *probe.proc.values()]
