"""End-to-end instrumentation: the probe threaded through a full
simulation reproduces the paper's bus-saturation story (Section 3.1.2)."""

import pytest

from repro.core.config import KB, SystemConfig
from repro.instrument import InstrumentationProbe
from repro.simulation import run_simulation
from repro.workloads.barnes_hut import BarnesHut
from repro.workloads.mp3d import MP3D


def _mp3d_peak_utilization(procs_per_cluster, scc_size):
    config = SystemConfig.paper_parallel(
        processors_per_cluster=procs_per_cluster, scc_size=scc_size)
    probe = InstrumentationProbe(bin_width=512, record_events=False)
    result = run_simulation(config, MP3D(n_particles=300, steps=2),
                            instrumentation=probe)
    assert result.instrumentation is probe
    return probe.peak_bus_utilization()


class TestBusSaturation:
    def test_small_scc_many_procs_saturates_the_bus(self):
        """The acceptance check from the issue: MP3D on 8 processors per
        cluster with 4 KB SCCs must drive the inter-cluster bus to a
        strictly higher utilization peak than 2 processors with 64 KB
        SCCs (invalidation traffic + capacity misses, Section 3.1.2)."""
        hot = _mp3d_peak_utilization(8, 4 * KB)
        cool = _mp3d_peak_utilization(2, 64 * KB)
        assert 0.0 <= cool <= 1.0
        assert 0.0 < hot <= 1.0
        assert hot > cool


@pytest.mark.parametrize("backend", ["python", "native"])
def test_probe_agrees_with_the_machines_own_statistics(backend):
    """What the probe counted and binned equals what the simulator's
    end-of-run statistics say, whichever engine is asked for (a probe
    keeps the run on the reference loop either way)."""
    config = SystemConfig.paper_parallel(processors_per_cluster=4,
                                         scc_size=4 * KB)
    probe = InstrumentationProbe(bin_width=64, record_events=False)
    result = run_simulation(config, MP3D(n_particles=120, steps=2),
                            instrumentation=probe, backend=backend)
    stats = result.stats
    scc = stats.total_scc
    counters = probe.counters
    digest = probe.summary()
    assert counters["cache_misses"] == scc.read_misses + scc.write_misses
    assert counters["cache_hits"] + counters["cache_misses"] \
        == counters["bank_accesses"] == scc.reads + scc.writes
    assert counters["invalidations"] == stats.total_invalidations > 0
    assert digest["bank_conflict_cycles"] == scc.bank_conflict_cycles > 0
    assert counters.get("write_buffer_stall_cycles", 0) \
        == scc.write_buffer_stall_cycles
    assert probe.bus_occupancy.total() == counters["bus_busy_cycles"]
    assert probe.bus_invalidations.total() == counters["invalidations"]
    for proc_id, proc in enumerate(stats.processors):
        for kind, cycles in (("busy", proc.busy_cycles),
                             ("memory", proc.memory_stall_cycles),
                             ("sync", proc.sync_stall_cycles)):
            timeline = probe.proc.get((proc_id, kind))
            assert (timeline.total() if timeline else 0) == cycles


class TestProbeThreading:
    def test_uninstrumented_result_has_no_probe(self):
        config = SystemConfig.paper_parallel(processors_per_cluster=2,
                                             scc_size=8 * KB)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1))
        assert result.instrumentation is None

    def test_probe_sees_the_whole_machine(self):
        config = SystemConfig.paper_parallel(processors_per_cluster=2,
                                             scc_size=8 * KB)
        probe = InstrumentationProbe(bin_width=256)
        result = run_simulation(config, BarnesHut(n_bodies=48, steps=1),
                                instrumentation=probe)
        assert probe.execution_time == result.execution_time
        assert probe.counters["bus_transactions"] > 0
        assert probe.counters["bank_accesses"] > 0
        # Every processor shows up with a busy timeline.
        for proc in range(config.total_processors):
            assert probe.proc[(proc, "busy")].total() > 0

    def test_probe_busy_cycles_match_bus_counters(self):
        """The probe's view must agree with the bus's own counters."""
        config = SystemConfig.paper_parallel(processors_per_cluster=2,
                                             scc_size=8 * KB)
        probe = InstrumentationProbe(bin_width=256)
        run_simulation(config, MP3D(n_particles=100, steps=1),
                       instrumentation=probe)
        assert probe.bus_occupancy.total() \
            == pytest.approx(probe.counters["bus_busy_cycles"])

    def test_private_organization_is_probed_too(self):
        config = SystemConfig.paper_parallel(
            processors_per_cluster=2,
            scc_size=8 * KB).with_updates(cluster_organization="private")
        probe = InstrumentationProbe(bin_width=256)
        run_simulation(config, BarnesHut(n_bodies=48, steps=1),
                       instrumentation=probe)
        digest = probe.summary()
        assert digest["bus_transactions"] > 0
        assert "bus_peak_utilization" in digest
