"""Chrome-trace (Perfetto) export: structure, ordering, and the
pid/tid topology mapping."""

import json

from repro.core.config import KB, SystemConfig
from repro.instrument import (InstrumentationProbe, chrome_trace,
                              write_chrome_trace)
from repro.instrument.chrometrace import (BUS_PID, SCC_TID, bank_tid,
                                          cluster_pid, proc_tid)
from repro.simulation import run_simulation
from repro.workloads.mp3d import MP3D


def _instrumented_run(procs=2, scc=8 * KB):
    config = SystemConfig.paper_parallel(processors_per_cluster=procs,
                                         scc_size=scc)
    probe = InstrumentationProbe(bin_width=256)
    run_simulation(config, MP3D(n_particles=120, steps=1),
                   instrumentation=probe)
    return config, probe


class TestTraceStructure:
    def test_round_trip_through_json(self, tmp_path):
        config, probe = _instrumented_run()
        path = write_chrome_trace(probe, tmp_path / "trace.json",
                                  config=config)
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]
        assert payload["otherData"]["execution_time_cycles"] \
            == probe.execution_time
        # Re-serializing the in-memory dict matches the file payload.
        assert chrome_trace(probe, config=config) == payload

    def test_timestamps_are_monotonic(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config)["traceEvents"]
        timestamps = [e["ts"] for e in events if "ts" in e]
        assert timestamps
        assert all(a <= b for a, b in zip(timestamps, timestamps[1:]))

    def test_metadata_precedes_events(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config)["traceEvents"]
        phases = [e["ph"] for e in events]
        last_meta = max(i for i, ph in enumerate(phases) if ph == "M")
        first_real = min(i for i, ph in enumerate(phases) if ph != "M")
        assert last_meta < first_real

    def test_counter_track_respects_bin_cap(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config,
                              max_counter_bins=16)["traceEvents"]
        utilization = [e for e in events
                       if e["ph"] == "C" and e["name"] == "bus utilization"]
        assert 0 < len(utilization) <= 16
        assert all(0.0 <= e["args"]["fraction"] <= 1.0
                   for e in utilization)


    def test_conflict_tracks_of_a_rebinned_probe_reach_the_last_conflict(
            self):
        """After ``rebin`` each cluster's bank-conflict track ends in the
        bin of its last conflict, like the bus and write-buffer tracks:
        its banks' series share the probe's one bin width."""
        config, probe = _instrumented_run(procs=8, scc=4 * KB)
        probe.rebin(16)
        width = probe.bin_width
        events = chrome_trace(probe, config=config)["traceEvents"]
        last_bin = {}
        for _kind, now, wait, cluster, _bank in probe.events.of_kind("bank"):
            last_bin[cluster] = max(last_bin.get(cluster, 0),
                                    (now + wait - 1) // width)
        assert len(last_bin) > 1
        for cluster, index in last_bin.items():
            track = [e["ts"] for e in events
                     if e["ph"] == "C" and e["name"] == "bank conflict cycles"
                     and e["pid"] == cluster_pid(cluster)]
            assert max(track) == index * width


class TestPidTidMapping:
    def test_bus_events_live_on_the_bus_pid(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config)["traceEvents"]
        slices = [e for e in events
                  if e["ph"] == "X" and e.get("cat") == "bus"]
        assert slices
        assert all(e["pid"] == BUS_PID for e in slices)

    def test_processors_map_to_cluster_pids_and_port_tids(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config)["traceEvents"]
        proc_slices = [e for e in events
                       if e["ph"] == "X" and e.get("cat") == "proc"]
        assert proc_slices
        valid_pids = {cluster_pid(c) for c in range(config.clusters)}
        valid_tids = {proc_tid(p)
                      for p in range(config.processors_per_cluster)}
        assert {e["pid"] for e in proc_slices} <= valid_pids
        assert {e["tid"] for e in proc_slices} <= valid_tids

    def test_bank_conflicts_map_to_bank_tids(self):
        config, probe = _instrumented_run(procs=4, scc=4 * KB)
        events = chrome_trace(probe, config=config)["traceEvents"]
        conflicts = [e for e in events
                     if e["ph"] == "i" and e["name"] == "bank conflict"]
        if conflicts:  # contention-dependent; mapping must hold if seen
            valid_tids = {bank_tid(b) for b in range(config.num_banks)}
            assert {e["tid"] for e in conflicts} <= valid_tids
        misses = [e for e in events
                  if e["ph"] == "i" and e["name"].endswith("miss")]
        assert misses
        assert all(e["tid"] == SCC_TID for e in misses)

    def test_every_pid_is_named(self):
        config, probe = _instrumented_run()
        events = chrome_trace(probe, config=config)["traceEvents"]
        named = {e["pid"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        used = {e["pid"] for e in events if e["ph"] != "M"}
        assert used <= named

    def test_without_config_processors_get_standalone_pids(self):
        _config, probe = _instrumented_run()
        events = chrome_trace(probe, config=None)["traceEvents"]
        proc_slices = [e for e in events
                       if e["ph"] == "X" and e.get("cat") == "proc"]
        assert proc_slices
        assert all(e["pid"] >= 1000 for e in proc_slices)
