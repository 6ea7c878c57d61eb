"""Layer probes: direct timed calls into one layer at a time.

The workloads say what a user waits for; these say what each layer can do
on its own, on two fixed points:

* ``bh8p`` -- quick Barnes-Hut on ``paper_parallel(8, 8 KB)``, the point
  ROADMAP quotes at 0.36M events/s;
* ``mp1p`` -- quick multiprogramming on ``paper_multiprogramming(1, ..)``,
  the row every committed ``BENCH_*.json`` number uses.

Each probe is the median of ``REPEATS`` calls (three for the tiers that
take seconds), scaled to the reference host speed like every other time
(``bench/calibrate.py``).  ``python3 bench/run.py --probes`` runs this
file in a fresh process and folds the numbers into its report; they are
not part of the driver protocol -- a run of one workload has no time for
them -- and carry no bounds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import _bootstrap  # (bench/ is sys.path[0] for a script)
from _bootstrap import ROOT_DIR, SCRATCH_ROOT

_bootstrap.pin_environment()

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

from bench.calibrate import Calibration  # noqa: E402

REPEATS = 5
SLOW_REPEATS = 3


def _timed(calibration: Calibration, call, repeats: int = REPEATS):
    """(median reference seconds of ``call()``, its last result)."""
    samples, result = [], None
    calibration.sample()
    for _ in range(repeats):
        begin = time.perf_counter()
        result = call()
        end = time.perf_counter()
        calibration.sample()
        samples.append((end - begin) * calibration.scale(begin, end))
    return statistics.median(samples), result


def run(smoke: bool = False) -> dict:
    """Every probe: ``{name: {"value": .., "unit": ..}}``."""
    from repro.cli import _packed_replay_stream
    from repro.core.config import KB, SystemConfig
    from repro.experiments.runner import ResultCache
    from repro.experiments.session import run_sweep
    from repro.experiments.spec import PAPER_LADDER, PROFILES, SweepSpec
    from repro.fabric import ArtifactStore, LocalFabric
    from repro.instrument import InstrumentationProbe
    from repro.model.predictor import predict_point
    from repro.model.profile import build_row_profile
    from repro.simulation import run_simulation
    from repro.trace.multiconfig import fused_ladder_results
    from repro.trace.record import (ReplayApplication, StreamRecorder,
                                    TraceCache)
    from bench.spans import stream_bytes
    from bench.workloads import SMOKE_PROFILE, TWO_RUNGS

    warnings.simplefilter("ignore")
    profile = SMOKE_PROFILE if smoke else PROFILES["quick"]
    ladder = TWO_RUNGS if smoke else PAPER_LADDER
    calibration = Calibration()
    out = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="probes-", dir=SCRATCH_ROOT))
    try:
        multiprog = SweepSpec.multiprogramming(
            profile=profile, procs=(1,), ladder=ladder, instrument=False)
        points = {
            "bh8p": ("barnes-hut", SystemConfig.paper_parallel(8, 8 * KB)),
            "mp1p": ("multiprogramming",
                     multiprog.configs()[(1, ladder[0])]),
        }
        for tag, (benchmark, config) in points.items():
            def build():
                application = profile.workload(benchmark)
                application.processes(config)
                return application
            seconds, application = _timed(calibration, build)
            put(f"workloads.build_s.{tag}", seconds, "s")

            live_s, live = _timed(
                calibration, lambda: run_simulation(
                    config, profile.workload(benchmark)))
            events = live.events_processed
            put(f"trace.interleave.live_eps.{tag}", events / live_s, "1/s")

            def record():
                recorder = StreamRecorder(profile.workload(benchmark))
                run_simulation(config, recorder)
                return recorder.streams
            seconds, streams = _timed(calibration, record)
            put(f"trace.record.record_eps.{tag}", events / seconds, "1/s")

            tapes = TraceCache(scratch / f"tapes-{tag}")
            seconds, _ = _timed(calibration,
                                lambda: tapes.put(tag, streams))
            put(f"trace.record.tape_put_s.{tag}", seconds, "s")
            seconds, loaded = _timed(calibration, lambda: tapes.get(tag))
            put(f"trace.record.tape_get_s.{tag}", seconds, "s")
            put(f"trace.record.tape_bytes.{tag}", stream_bytes(loaded),
                "bytes")

            # A tape replays exactly on the configuration that recorded
            # it, so every tier must reproduce the live run's statistics.
            replay = ReplayApplication(streams, name=benchmark)
            reference = live.stats.as_dict()
            replay_s = None
            for tier, repeats in (("native", REPEATS),
                                  ("numpy", SLOW_REPEATS),
                                  ("python", SLOW_REPEATS)):
                seconds, result = _timed(
                    calibration,
                    lambda: run_simulation(config, replay, backend=tier),
                    repeats)
                if (result.stats.as_dict() != reference
                        or result.events_processed != events):
                    raise AssertionError(
                        f"{tier} replay of {tag} diverges from live")
                put(f"trace.engine.replay_{tier}_eps.{tag}",
                    events / seconds, "1/s")
                if tier == "native":
                    replay_s = seconds
            # Same configuration, same engine: what is left of the live
            # run once the replay is taken out is the generators' time.
            put(f"workloads.generate_s.{tag}", live_s - replay_s, "s")

            seconds, _ = _timed(
                calibration, lambda: run_simulation(
                    config, replay, instrumentation=InstrumentationProbe(
                        bin_width=4096, record_events=False)),
                SLOW_REPEATS)
            put(f"trace.interleave.generic_eps.{tag}",
                events / seconds, "1/s")

            tracked = (config.scc_lines,)
            seconds, row_profile = _timed(
                calibration,
                lambda: build_row_profile(streams, config, tracked),
                SLOW_REPEATS)
            put(f"model.profile_build_s.{tag}", seconds, "s")
            seconds, _ = _timed(
                calibration,
                lambda: predict_point(row_profile, config,
                                      benchmark=benchmark))
            put(f"model.predict_point_us.{tag}", 1e6 * seconds, "us")

            if tag == "mp1p":
                configs = [multiprog.configs()[(1, size)]
                           for size in ladder]
                for tier in ("native", "python"):
                    seconds, results = _timed(
                        calibration,
                        lambda: fused_ladder_results(configs, streams,
                                                     backend=tier),
                        REPEATS if tier == "native" else SLOW_REPEATS)
                    rung_events = sum(r.events_processed for r in results)
                    put(f"trace.multiconfig.ladder_{tier}_eps.mp1p",
                        rung_events / seconds, "1/s")

        # The cache-resident synthetic tape behind the 67.6M events/s of
        # BENCH_2026-08-08.json: the top of the ratio chain.
        synthetic = ReplayApplication({0: _packed_replay_stream()},
                                      name="synthetic")
        config = SystemConfig.paper_multiprogramming(1, scc_size=16 * KB)
        seconds, result = _timed(
            calibration,
            lambda: run_simulation(config, synthetic, backend="native"))
        put("trace.engine.synthetic_native_eps",
            result.events_processed / seconds, "1/s")

        # A sweep with nothing left to compute: journal + cache reads.
        grid = SweepSpec.multiprogramming(profile=profile, ladder=ladder,
                                          instrument=False)
        results = ResultCache(scratch / "warm-results")
        tapes = TraceCache(scratch / "warm-tapes")
        sessions = scratch / "warm-sessions"
        sweep = run_sweep(grid, cache=results, trace_cache=tapes,
                          session_dir=sessions)
        seconds, _ = _timed(
            calibration,
            lambda: run_sweep(grid, cache=results, trace_cache=tapes,
                              session_dir=sessions))
        put("experiments.warm_sweep_ms", 1e3 * seconds, "ms")
        key, stats = "probe-key", next(iter(sweep.values()))
        seconds, _ = _timed(
            calibration,
            lambda: [results.put(key, stats) for _ in range(100)])
        put("experiments.result_cache_put_us", 1e4 * seconds, "us")
        seconds, _ = _timed(
            calibration,
            lambda: [results.get(key) for _ in range(100)])
        put("experiments.result_cache_get_us", 1e4 * seconds, "us")

        # The fabric without HTTP: the same warm request through the
        # in-process transport (HTTP's share = request_p50_ms - this).
        with LocalFabric(store=ArtifactStore(scratch / "fabric")) as fabric:
            spec = SweepSpec.parallel("mp3d", profile=profile,
                                      ladder=TWO_RUNGS, instrument=False)
            client = fabric.client
            client.result(client.submit(spec))
            seconds, _ = _timed(
                calibration,
                lambda: [client.result(client.submit(spec))
                         for _ in range(20)])
        put("fabric.local_transport_request_ms", 1e3 * seconds / 20, "ms")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


if __name__ == "__main__":
    print(json.dumps(run(smoke="--smoke" in sys.argv[1:])))
