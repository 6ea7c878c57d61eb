"""Tests for the probe API, the metrics registry, and the wiring that
feeds them from the simulator's contended components."""

import pytest

from repro.core.bus import SnoopyBus
from repro.core.interconnect import BankInterconnect
from repro.instrument import NULL_PROBE, InstrumentationProbe, NullProbe
from repro.instrument.registry import MetricsRegistry


class TestNullProbe:
    def test_disabled_and_silent(self):
        probe = NullProbe()
        assert probe.enabled is False
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
        assert InstrumentationProbe().enabled is True


class TestBusProbe:
    def test_bus_emits_grants(self):
        probe = InstrumentationProbe(bin_width=100)
        bus = SnoopyBus(probe=probe, name="inter-cluster")
        bus.acquire(now=0, occupancy=40, latency=100)
        bus.acquire(now=10, occupancy=40, latency=100)
        registry = probe.registry
        assert registry.counters["bus_transactions"] == 2
        assert registry.counters["bus_busy_cycles"] == 80
        # Second grant waited 30 cycles for the first's occupancy.
        assert registry.counters["bus_wait_cycles"] == 30
        assert registry.timeline("bus.occupancy").total() == 80
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
        registry = probe.registry
        assert registry.counters["bank_accesses"] == 2
        assert registry.counters["bank_conflict_events"] == 1
        assert registry.timeline("cluster3.bank0.conflict").total() == 1
        assert probe.events.of_kind("bank") == [("bank", 10, 1, 3, 0)]

    def test_conflict_free_accesses_record_no_conflict(self):
        probe = InstrumentationProbe(bin_width=100)
        icn = BankInterconnect(num_banks=2, probe=probe)
        icn.access(0, now=0)
        icn.access(1, now=0)
        assert "bank_conflict_events" not in probe.registry.counters
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
        registry = probe.registry
        assert registry.counters["write_buffer_stalls"] == 1
        assert registry.counters["write_buffer_stall_cycles"] == 50
        # Depth samples feed the high-water timeline (max mode).
        depth = registry.timeline("cluster0.write_buffer")
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
        assert "write_buffer_stalls" not in probe.registry.counters
        assert probe.registry.timeline("cluster0.write_buffer").peak() == 1


class TestProcessorProbe:
    def test_busy_and_stall_spans(self):
        probe = InstrumentationProbe(bin_width=100)
        probe.proc_busy(2, 0, 60)
        probe.proc_stall(2, "memory", 60, 100)
        probe.proc_stall(2, "sync", 100, 150)
        registry = probe.registry
        assert registry.timeline("proc2.busy").total() == 60
        assert registry.timeline("proc2.memory").total() == 40
        assert registry.timeline("proc2.sync").total() == 50

    def test_degenerate_spans_ignored(self):
        probe = InstrumentationProbe(bin_width=100)
        probe.proc_busy(0, 10, 0)
        probe.proc_stall(0, "memory", 10, 10)
        assert set(probe.registry.timelines) == {
            "bus.occupancy", "bus.wait", "bus.invalidations"}


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("x")
        registry.count("x", 4)
        assert registry.counters["x"] == 5

    def test_timeline_created_once(self):
        registry = MetricsRegistry(bin_width=64)
        first = registry.timeline("a", mode="max")
        assert registry.timeline("a") is first
        assert first.bin_width == 64

    def test_matching_and_merged(self):
        registry = MetricsRegistry(bin_width=10)
        registry.timeline("cluster0.bank0.conflict").add_span(0, 5)
        registry.timeline("cluster0.bank1.conflict").add_span(10, 18)
        registry.timeline("cluster1.bank0.conflict").add_span(0, 3)
        names = [name for name, _tl in registry.matching("cluster0.bank")]
        assert names == ["cluster0.bank0.conflict",
                         "cluster0.bank1.conflict"]
        merged = registry.merged("cluster0.bank")
        assert merged.series() == [5.0, 8.0]

    def test_merged_max_mode(self):
        registry = MetricsRegistry(bin_width=10)
        registry.timeline("cluster0.write_buffer",
                          mode="max").add_sample(5, 3)
        registry.timeline("cluster1.write_buffer",
                          mode="max").add_sample(5, 7)
        assert registry.merged("cluster").series() == [7.0]

    def test_merged_unknown_prefix_is_empty(self):
        assert MetricsRegistry().merged("nope").series() == []

    def test_summary_digest(self):
        registry = MetricsRegistry(bin_width=100)
        registry.count("bus_transactions", 3)
        registry.timeline("bus.occupancy").add_span(0, 50)
        registry.timeline("cluster0.bank0.conflict").add_span(0, 7)
        registry.timeline("cluster0.write_buffer",
                          mode="max").add_sample(0, 4)
        digest = registry.summary()
        assert digest["bus_transactions"] == 3
        assert digest["bus_peak_utilization"] == 0.5
        assert digest["bank_conflict_cycles"] == 7
        assert digest["write_buffer_peak_depth"] == 4

    def test_round_trip(self):
        registry = MetricsRegistry(bin_width=100)
        registry.count("hits", 9)
        registry.timeline("bus.occupancy").add_span(0, 40)
        clone = MetricsRegistry.from_dict(registry.as_dict())
        assert clone.counters == registry.counters
        assert (clone.timeline("bus.occupancy").series()
                == registry.timeline("bus.occupancy").series())


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
        before = probe.registry.timeline("bus.occupancy").total()
        probe.rebin(8)
        occupancy = probe.registry.timeline("bus.occupancy")
        assert len(occupancy) <= 8
        assert occupancy.total() == before
        # Cached handles must re-resolve to the rebinned timelines.
        bus2 = SnoopyBus(probe=probe)
        bus2.acquire(0, 5, 10)
        assert probe.registry.timeline("bus.occupancy").total() \
            == before + 5
