"""Golden-grade equivalence for the fused multi-configuration ladder.

Two layers of pinning:

* engine level -- the fused pass (native engine) must reproduce the
  golden-style fingerprint of per-size replay on the reference loop, on
  every configuration variant the gate admits (the same fingerprint
  the ``golden_stats.json`` suite uses);
* runner level -- a sweep resolved through the fused path must return
  RunStats equal to the same sweep with ``fused=False``, and rows the
  engine cannot cover (multi-process, instrumented) must route to the
  per-size replay automatically.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments import runner
from repro.experiments.runner import ExperimentProfile, ResultCache
from repro.experiments.session import run_sweep
from repro.experiments.spec import SweepSpec
from repro.simulation import run_simulation
from repro.trace import multiconfig
from repro.trace.engine import (available_backends, native_available,
                                native_unavailable_reason,
                                resolve_backend)
from repro.trace.multiconfig import (fused_ladder_results,
                                     fused_ladder_supported)
from repro.trace.record import ReplayApplication, StreamRecorder, TraceCache
from repro.workloads.multiprog import MultiprogrammingWorkload

from .test_golden_stats import fingerprint

COMPILED = [name for name in available_backends() if name != "python"]

SIZES = (512, 1024, 2048, 4096, 8192)

# The golden VARIANTS the fused gate admits (associativity, private
# organization, directory protocol, and stall-on-writes fall back).
FUSED_VARIANTS = {
    "base": {},
    "mesi": dict(protocol="mesi"),
    "line32": dict(line_size=32),
}

TINY = ExperimentProfile(
    name="tiny", ladder_scale=8,
    barnes_bodies=32, barnes_steps=1,
    mp3d_particles=60, mp3d_steps=1,
    cholesky_n=64,
    multiprog_instructions=3000, multiprog_quantum=1200)


def tiny_row(tmp_path, ladder, procs=1, results="results", **knobs):
    """One fail-fast TINY multiprogramming row through ``run_sweep``,
    over the trace cache every row of the test shares."""
    spec = SweepSpec.multiprogramming(profile=TINY, ladder=ladder,
                                      procs=(procs,), max_attempts=1,
                                      **knobs)
    return run_sweep(spec, cache=ResultCache(tmp_path / results),
                     trace_cache=TraceCache(tmp_path / "traces"))


def golden_workload():
    """The exact multiprogramming sizing the golden suite pins."""
    return MultiprogrammingWorkload(
        instructions_per_app=4000, quantum_instructions=1500, scale=8)


def golden_ladder(**extra):
    return [SystemConfig(clusters=1, processors_per_cluster=1,
                         scc_size=size, model_icache=True, **extra)
            for size in SIZES]


@pytest.mark.parametrize("variant", sorted(FUSED_VARIANTS))
def test_fused_fingerprints_match_per_size_replay(variant):
    configs = golden_ladder(**FUSED_VARIANTS[variant])
    assert fused_ladder_supported(configs)
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    assert streams is not None
    for config, fused in zip(configs, fused_ladder_results(configs,
                                                           streams)):
        per_size = run_simulation(config,
                                  ReplayApplication(streams, name="mp"))
        assert fingerprint(fused) == fingerprint(per_size)


@pytest.mark.parametrize("backend", COMPILED + ["numpy"])
@pytest.mark.parametrize("variant", sorted(FUSED_VARIANTS))
def test_fused_fingerprints_on_every_backend(variant, backend,
                                             monkeypatch):
    """The fingerprint grid above re-run with each requestable backend
    forced through ``$REPRO_ENGINE``, resolution asserted (mirrors
    ``test_backends.py``), against per-size replay pinned to the
    reference loop.  A ``native`` request runs the compiled ladder; a
    request naming the removed ``numpy`` tier resolves to python, where
    the ladder *is* per-size replay."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert resolve_backend() == ("python" if backend == "numpy"
                                 else backend)
    configs = golden_ladder(**FUSED_VARIANTS[variant])
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    for config, fused in zip(configs, fused_ladder_results(configs,
                                                           streams)):
        per_size = run_simulation(config,
                                  ReplayApplication(streams, name="mp"),
                                  backend="python")
        assert fingerprint(fused) == fingerprint(per_size)


def _forbid(name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} must not run here")
    return forbidden


def test_native_ladder_present_or_reason(monkeypatch):
    """The compiled ladder either engages for real or this machine
    reports *why* not -- a visible skip instead of one silently
    uncovered engine (mirrors ``test_backends
    .test_native_tier_present_or_reason``)."""
    if not native_available():
        reason = native_unavailable_reason()
        assert reason, "unavailable native tier must carry a reason"
        pytest.skip(f"native replay backend unavailable: {reason}")
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    # Engaged means: one fused pass, no per-size replay behind it.
    monkeypatch.setattr(multiconfig, "ReplayApplication",
                        _forbid("per-size replay"))
    fused_ladder_results(configs, recorder.streams, backend="native")


def test_ladder_backend_knob_degrades_gracefully(monkeypatch):
    """An unavailable native ladder falls back to per-size replay on
    the reference loop with identical results -- never an error, never
    a wrong answer, never a half-loaded extension."""
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    reference = [fingerprint(r)
                 for r in fused_ladder_results(configs, streams)]
    monkeypatch.setattr(multiconfig, "resolve_backend",
                        lambda request=None, strict=False: "python")
    monkeypatch.setattr(multiconfig, "_fused_pass_native",
                        _forbid("the native ladder"))
    degraded = [fingerprint(r)
                for r in fused_ladder_results(configs, streams,
                                              backend="native")]
    assert degraded == reference


def test_compiler_less_host_keeps_the_contract(tmp_path, monkeypatch):
    """``REPRO_NATIVE=0`` is a host with no C compiler: every engine
    request lands on the reference loop and the ladder *is* per-size
    replay.  A quick uniprocessor multiprogramming row through
    ``run_sweep`` must return the RunStats of the native-fused run."""
    from repro.experiments.runner import PROFILES
    from repro.trace.engine import native
    if not native_available():
        pytest.skip(f"no native-fused run to compare with: "
                    f"{native_unavailable_reason()}")
    spec = SweepSpec.multiprogramming(
        profile=PROFILES["quick"], ladder=(8192, 131072),
        procs=(1,), instrument=False)
    trace_cache = TraceCache(tmp_path / "traces")
    with_extension = run_sweep(spec, cache=ResultCache(tmp_path / "a"),
                               trace_cache=trace_cache)
    monkeypatch.setenv("REPRO_NATIVE", "0")
    monkeypatch.setattr(native, "_mod", native._UNSET)
    monkeypatch.setattr(native, "LOAD_ERROR", None)
    assert resolve_backend("native") == "python"
    assert available_backends() == ["python"]
    monkeypatch.setattr(multiconfig, "_fused_pass_native",
                        _forbid("the native ladder"))
    # Off the tape the first run recorded: both rungs go to the ladder.
    without = run_sweep(spec, cache=ResultCache(tmp_path / "b"),
                        trace_cache=trace_cache)
    assert without == with_extension


def test_sweep_results_identical_with_and_without_fusion(tmp_path):
    sweeps = {}
    for fused in (False, True):
        sweeps[fused] = tiny_row(
            tmp_path, (32768, 65536, 131072, 262144),
            results=f"results-{fused}", instrument=False, fused=fused)
    assert sweeps[True] == sweeps[False]
    assert len(sweeps[True]) == 4


def test_uniprocessor_row_uses_fused_engine(tmp_path, monkeypatch):
    calls = []
    real = runner.fused_ladder_results

    def spy(configs, streams, *args, **kwargs):
        calls.append(len(configs))
        return real(configs, streams, *args, **kwargs)

    monkeypatch.setattr(runner, "fused_ladder_results", spy)
    tiny_row(tmp_path, (32768, 65536, 131072), instrument=False)
    # One fused pass covering the rungs left after the recording run.
    assert calls == [2]


def test_multiprocess_row_routes_to_per_size_replay(tmp_path, monkeypatch):
    """A deterministic-stream parallel row replays through the trace
    cache but must never enter the fused engine (interleave order and
    coherence are processor-count-dependent)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("fused engine used on a parallel row")

    monkeypatch.setattr(runner, "fused_ladder_results", forbidden)

    class DeterministicMultiprog(MultiprogrammingWorkload):
        deterministic_stream = True

    profile = TINY
    monkeypatch.setattr(
        ExperimentProfile, "multiprogramming",
        lambda self: DeterministicMultiprog(
            instructions_per_app=profile.multiprog_instructions,
            quantum_instructions=profile.multiprog_quantum,
            scale=profile.ladder_scale))
    replays = []
    real_replay = runner.ReplayApplication

    class SpyReplay(real_replay):
        def __init__(self, streams, name="replay"):
            replays.append(name)
            super().__init__(streams, name=name)

    monkeypatch.setattr(runner, "ReplayApplication", SpyReplay)
    sweep = tiny_row(tmp_path, (32768, 65536, 131072), procs=2,
                     instrument=False)
    assert len(sweep) == 3
    # Two rungs after the recording run, each via per-size replay.
    assert len(replays) == 2


def test_instrumented_row_routes_to_per_size_replay(tmp_path, monkeypatch):
    """Instrumented sweeps need the probe attached, which the fused
    engine cannot provide -- they must keep the per-size path."""

    def forbidden(*args, **kwargs):
        raise AssertionError("fused engine used on an instrumented row")

    monkeypatch.setattr(runner, "fused_ladder_results", forbidden)
    sweep = tiny_row(tmp_path, (32768, 65536), instrument=True)
    assert len(sweep) == 2
    assert all(stats.instrument is not None for stats in sweep.values())
