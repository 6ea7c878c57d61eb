"""Golden-grade equivalence for the fused multi-configuration ladder.

Two layers of pinning:

* engine level -- the fused pass (native engine) must reproduce the
  golden-style fingerprint of per-size replay on the reference loop, on
  every configuration variant the gate admits (the same fingerprint
  the ``golden_stats.json`` suite uses);
* runner level -- a sweep resolved through the fused path must return
  RunStats equal to the same sweep at ``fidelity="full"`` (every rung
  simulated live), a default uniprocessor row must take the fused
  ladder, and rows the engine cannot cover (multi-process) must route
  to the per-size replay automatically.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments import runner
from repro.experiments.runner import ExperimentProfile, ResultCache
from repro.experiments.session import run_sweep
from repro.experiments.spec import PAPER_LADDER, PROFILES, SweepSpec
from repro.simulation import run_simulation
from repro.trace import multiconfig
from repro.trace.engine import native, resolve_backend
from repro.trace.multiconfig import (fused_ladder_results,
                                     fused_ladder_supported)
from repro.trace.record import ReplayApplication, StreamRecorder, TraceCache
from repro.workloads.multiprog import MultiprogrammingWorkload

from .test_golden_stats import fingerprint

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


@pytest.mark.parametrize("backend", ["native", "numpy"])
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
    """The compiled ladder engages for real (mirrors ``test_backends
    .test_native_tier_present_or_reason``)."""
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    # Engaged means: one fused pass, no per-size replay behind it.
    monkeypatch.setattr(multiconfig, "ReplayApplication",
                        _forbid("per-size replay"))
    fused_ladder_results(configs, recorder.streams, backend="native")


def test_ladder_backend_knob_degrades_gracefully(monkeypatch):
    """A ladder that resolves to python is per-size replay on the
    reference loop, with identical results."""
    configs = golden_ladder()
    recorder = StreamRecorder(golden_workload())
    run_simulation(configs[0], recorder)
    streams = recorder.streams
    reference = [fingerprint(r)
                 for r in fused_ladder_results(configs, streams)]
    monkeypatch.setattr(multiconfig, "resolve_backend",
                        lambda request=None: "python")
    monkeypatch.setattr(multiconfig, "_fused_pass_native",
                        _forbid("the native ladder"))
    degraded = [fingerprint(r)
                for r in fused_ladder_results(configs, streams,
                                              backend="native")]
    assert degraded == reference


@pytest.fixture
def ladder_calls(monkeypatch):
    """The rung count of each ``fused_ladder_results`` call a sweep
    makes, in order."""
    calls = []
    real = runner.fused_ladder_results

    def spy(configs, streams, *args, **kwargs):
        calls.append(len(configs))
        return real(configs, streams, *args, **kwargs)

    monkeypatch.setattr(runner, "fused_ladder_results", spy)
    return calls


def test_sweep_results_identical_fused_and_full(tmp_path, ladder_calls):
    """The default row -- one recording, then one ladder pass over the
    other rungs -- against the same row at ``fidelity="full"``, where
    every rung is simulated live on the workload's own generators."""
    ladder = (32768, 65536, 131072, 262144)
    sweeps = {fidelity: tiny_row(tmp_path, ladder,
                                 results=f"results-{fidelity}",
                                 fidelity=fidelity)
              for fidelity in ("fused", "full")}
    assert ladder_calls == [3]
    assert sweeps["fused"] == sweeps["full"]
    assert len(sweeps["fused"]) == 4


def test_uniprocessor_row_uses_fused_engine(tmp_path, ladder_calls):
    """A sweep point carries no probe, so nothing keeps a default
    uniprocessor row off the ladder: one pass prices every rung after
    the recording, each rung's RunStats equal to replaying it alone."""
    ladder = (32768, 65536, 131072)
    sweep = tiny_row(tmp_path, ladder)
    assert ladder_calls == [2]

    configs = SweepSpec.multiprogramming(profile=TINY, procs=(1,),
                                         ladder=ladder).configs()
    recorder = StreamRecorder(TINY.multiprogramming())
    run_simulation(configs[(1, ladder[0])], recorder)
    replayed = {point: runner._simulate(
                    ReplayApplication(recorder.streams, name="mp"),
                    config)
                for point, config in configs.items()}
    assert sweep == replayed


def test_a_paper_row_pass_is_one_call_into_c(tmp_path, ladder_calls,
                                             monkeypatch):
    """The quick multiprogramming 1p row over the paper's ladder: the
    pass after the recording drains the whole tape -- its locks,
    barriers and queue operations too -- in one ``ladder`` call."""
    module = native.load()
    drains = []
    real = module.ladder

    def spy(plan, tape):
        drains.append(len(tape))
        return real(plan, tape)

    monkeypatch.setattr(module, "ladder", spy)
    # (the pass is the native engine's, whatever this process's is)
    monkeypatch.setenv("REPRO_ENGINE", "native")
    spec = SweepSpec.multiprogramming(profile=PROFILES["quick"],
                                      procs=(1,), max_attempts=1)
    sweep = run_sweep(spec, cache=ResultCache(tmp_path / "results"),
                      trace_cache=TraceCache(tmp_path / "traces"))
    assert len(sweep) == len(PAPER_LADDER)
    assert ladder_calls == [len(PAPER_LADDER) - 1]
    assert len(drains) == 1


def test_instrument_keyword_row_takes_the_fused_ladder(tmp_path,
                                                       ladder_calls):
    """A row asked for with the old ``instrument=True`` keyword, which
    once kept it on per-size replay for the probe, is the default row:
    it takes the fused ladder and prices every rung the same."""
    ladder = (32768, 65536, 131072)
    asked = tiny_row(tmp_path, ladder, results="results-asked",
                     instrument=True)
    default = tiny_row(tmp_path, ladder, results="results-default")
    # The second row finds the recording cached: all three rungs in one
    # pass.
    assert ladder_calls == [2, 3]
    assert asked == default
    assert len(asked) == 3


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
    sweep = tiny_row(tmp_path, (32768, 65536, 131072), procs=2)
    assert len(sweep) == 3
    # Two rungs after the recording run, each via per-size replay.
    assert len(replays) == 2
