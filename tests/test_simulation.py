"""Integration tests for the top-level simulation driver."""

import pytest

from repro import KB, SystemConfig, run_simulation
from repro.trace.events import Compute, Read, Write
from repro.workloads import BarnesHut, TracedApplication


class _TwoProcessPingPong(TracedApplication):
    """Minimal hand-written workload for driver-level checks."""

    name = "pingpong"

    def processes(self, config):
        def proc_a():
            yield Write(0x1000)
            yield Compute(50)
            yield Read(0x2000)

        def proc_b():
            yield Compute(10)
            yield Read(0x1000)

        return {0: proc_a(), 1: proc_b()}


class TestRunSimulation:
    def test_returns_consistent_result(self):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=4 * KB)
        result = run_simulation(config, _TwoProcessPingPong())
        assert result.config is config
        assert result.execution_time > 0
        assert result.events_processed == 5
        assert result.stats.execution_time == result.execution_time

    def test_cross_cluster_sharing_visible_in_stats(self):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=4 * KB)
        result = run_simulation(config, _TwoProcessPingPong())
        total = result.stats.total_scc
        # proc 1 reads the line proc 0 wrote: an intervention downgrade.
        assert total.interventions == 1

    def test_max_cycles_guard(self):
        config = SystemConfig(clusters=1, processors_per_cluster=1)

        class Endless(TracedApplication):
            def processes(self, config):
                def forever():
                    while True:
                        yield Compute(1000)
                return {0: forever()}

        with pytest.raises(RuntimeError):
            run_simulation(config, Endless(), max_cycles=10_000)

    def test_invariants_checked_after_real_workload(self):
        config = SystemConfig.paper_parallel(2, 2 * KB)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1),
                                check_invariants=True)
        assert result.execution_time > 0

    def test_accounting_identity(self):
        """Total per-processor cycles equal busy + stalls, and the
        machine's execution time is at least every processor's total."""
        config = SystemConfig.paper_parallel(2, 4 * KB)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1))
        for proc in result.stats.processors:
            assert proc.total_cycles == (proc.busy_cycles
                                         + proc.memory_stall_cycles
                                         + proc.sync_stall_cycles
                                         + proc.icache_stall_cycles)
            assert proc.total_cycles <= result.execution_time

    def test_global_counters_match_per_scc_sums(self):
        config = SystemConfig.paper_parallel(2, 4 * KB)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1))
        total = result.stats.total_scc
        assert total.reads == sum(s.reads for s in result.stats.scc)
        assert total.read_misses == sum(s.read_misses
                                        for s in result.stats.scc)

    def test_references_match_reads_plus_writes(self):
        config = SystemConfig.paper_parallel(1, 4 * KB)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1))
        total = result.stats.total_scc
        references = sum(p.references for p in result.stats.processors)
        assert references == total.reads + total.writes


class TestSummary:
    def test_summary_mentions_the_headline_numbers(self):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=4 * KB)
        result = run_simulation(config, _TwoProcessPingPong())
        text = result.summary()
        assert "2 clusters" in text
        assert "execution time" in text
        assert f"{result.execution_time:,}" in text
        assert "invalidations" in text

    def test_summary_names_a_transport_or_protocol_off_the_paper(self):
        lines = {}
        for machine in ({}, {"protocol": "mesi"},
                        {"inter_cluster": "directory"}):
            config = SystemConfig(clusters=2, processors_per_cluster=1,
                                  scc_size=4 * KB, **machine)
            result = run_simulation(config, _TwoProcessPingPong())
            lines[tuple(machine.values())] = result.summary().splitlines()[0]
        assert lines[()].endswith("4096 B SCC, shared-scc")
        assert lines[("mesi",)].endswith("shared-scc, snoopy-bus, mesi")
        assert lines[("directory",)].endswith("shared-scc, directory, msi")
