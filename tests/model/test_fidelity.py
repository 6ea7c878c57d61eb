"""Tests for the sweep fidelity knob and its cache-key isolation.

The hard requirements: full-fidelity point keys stay byte-identical to
the historical format (warm caches survive the upgrade), analytical
results live under their own keys (an analytical run can never poison a
full-fidelity cache), and an analytical sweep touches the simulator only
to record one tape per (benchmark, procs) row -- never per grid point.
"""

import argparse

import pytest

from repro.core.config import KB
from repro.experiments.runner import ResultCache, RunStats
from repro.experiments.session import SweepSession, run_sweep
from repro.experiments.spec import (FIDELITIES, ExperimentProfile,
                                    SweepSpec, point_cache_key)
from repro.model.profile import MODEL_VERSION
from repro.trace.record import TraceCache


@pytest.fixture
def tiny_profile():
    return ExperimentProfile(
        name="tiny", ladder_scale=8,
        barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1,
        cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)


def _spec(tiny_profile, **knobs):
    knobs.setdefault("ladder", (2 * KB, 4 * KB))
    knobs.setdefault("procs", (1, 2))
    return SweepSpec.multiprogramming(profile=tiny_profile, **knobs)


class TestSpecValidation:
    def test_fidelities_constant(self):
        assert FIDELITIES == ("analytical", "fused", "full")

    def test_rejects_unknown_fidelity(self, tiny_profile):
        with pytest.raises(ValueError):
            _spec(tiny_profile, fidelity="fast")

    def test_analytical_ignores_instrument_keyword(self, tiny_profile):
        """An analytical point never carried a probe, and now no point
        does: the keyword the benchmark harness passes is ignored."""
        spec = _spec(tiny_profile, fidelity="analytical")
        for instrument in (True, False):
            assert _spec(tiny_profile, fidelity="analytical",
                         instrument=instrument) == spec


class TestPointKeys:
    def test_full_fidelity_keys_are_the_historical_format(
            self, tiny_profile):
        """fused and full must produce keys byte-identical to
        point_cache_key -- existing warm caches keep working."""
        for fidelity in ("fused", "full"):
            spec = _spec(tiny_profile, fidelity=fidelity)
            for config in spec.configs().values():
                assert spec.point_key(config) == point_cache_key(
                    spec.benchmark, spec.profile, config)

    def test_analytical_keys_carry_fidelity_and_model_version(
            self, tiny_profile):
        spec = _spec(tiny_profile, fidelity="analytical")
        plain = _spec(tiny_profile)
        for config in spec.configs().values():
            key = spec.point_key(config)
            assert key == (f"{plain.point_key(config)}|instrument=False"
                           f"|fidelity=analytical|model=v{MODEL_VERSION}")

    def test_signatures_isolate_analytical_sessions(self, tiny_profile):
        fused = _spec(tiny_profile)
        full = _spec(tiny_profile, fidelity="full")
        analytical = _spec(tiny_profile, fidelity="analytical")
        # fused vs full is a resolution strategy, not an experiment
        # identity: they share journals.  Analytical does not.
        assert fused.signature() == full.signature()
        assert analytical.signature() != fused.signature()
        assert analytical.describe()["fidelity"] == "analytical"
        assert "fidelity" not in fused.describe()


class TestFromCliArgs:
    @staticmethod
    def _args(**overrides):
        defaults = dict(benchmark="multiprogramming", profile="tiny",
                        ladder=None, procs=None,
                        jobs=None, resume=False,
                        retries=2, timeout=None, backoff=0.5,
                        fidelity=None)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_default_is_fused(self):
        spec = SweepSpec.from_cli_args(self._args(profile="quick"))
        assert spec.fidelity == "fused"
        assert spec.describe()["instrument"] is True

    def test_analytical_implies_no_instrumentation(self):
        spec = SweepSpec.from_cli_args(
            self._args(profile="quick", fidelity="analytical"))
        assert spec.fidelity == "analytical"
        assert spec.describe()["instrument"] is False

    def test_full_disables_fused_replay(self, monkeypatch):
        """``fidelity="full"`` is the one way to ask for a live
        simulation of every point: the session never enters the trace
        stage, so no tape is recorded and no ladder runs."""
        spec = SweepSpec.from_cli_args(self._args(
            profile="quick", fidelity="full", ladder=(8 * KB, 16 * KB),
            procs=(1,)))
        assert spec.fidelity == "full"

        def forbidden(*args, **kwargs):
            raise AssertionError("the trace stage ran at fidelity=full")

        monkeypatch.setattr(SweepSession, "_resolve_via_traces", forbidden)
        live = []

        def compute(benchmark, profile, config, point):
            live.append(point)
            return RunStats(execution_time=1, read_miss_rate=0.0,
                            miss_rate=0.0, invalidations=0, reads=0,
                            writes=0, events=0)

        SweepSession(spec, cache=None, compute=compute).run()
        assert live == [(1, 8 * KB), (1, 16 * KB)]


def counting_simulator(monkeypatch):
    """Wrap the real simulator entry point with a call counter."""
    from repro.experiments import runner
    real = runner.run_simulation
    calls = []

    def counted(config, application, **kwargs):
        calls.append(type(application).__name__)
        return real(config, application, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counted)
    return calls


class TestAnalyticalSession:
    def test_one_recording_per_row_then_zero(self, tmp_path,
                                             tiny_profile, monkeypatch):
        calls = counting_simulator(monkeypatch)
        spec = _spec(tiny_profile, fidelity="analytical")
        trace_cache = TraceCache(tmp_path / "traces")

        session = SweepSession(spec, cache=ResultCache(tmp_path / "r1"),
                               trace_cache=trace_cache)
        result = session.run()
        assert len(result.sweep) == len(spec.configs())
        # One recording simulation per procs row, nothing per point.
        assert len(calls) == len(spec.procs)
        assert session.counters["analytical"] == len(spec.configs())
        assert "4 analytical" in result.summary()

        # Warm trace cache, cold result cache: zero simulations.
        calls.clear()
        second = SweepSession(spec, cache=ResultCache(tmp_path / "r2"),
                              trace_cache=trace_cache)
        result2 = second.run()
        assert calls == []
        assert second.counters["analytical"] == len(spec.configs())
        for point, stats in result.sweep.items():
            assert result2.sweep[point].as_dict() == stats.as_dict()

    def test_analytical_results_never_serve_full_fidelity(
            self, tmp_path, tiny_profile):
        shared = ResultCache(tmp_path / "results")
        trace_cache = TraceCache(tmp_path / "traces")
        spec = _spec(tiny_profile, fidelity="analytical")
        run_sweep(spec, cache=shared, trace_cache=trace_cache)

        # The analytical run cached its own keys...
        assert all(shared.get(spec.point_key(c)) is not None
                   for c in spec.configs().values())
        # ...but left every full-fidelity key empty, except the row
        # anchor banked as a by-product of the recording simulation.
        full = _spec(tiny_profile)
        anchors = {(procs, min(spec.ladder)) for procs in spec.procs}
        for point, config in full.configs().items():
            cached = shared.get(full.point_key(config))
            if point in anchors:
                assert cached is not None    # real simulator output
            else:
                assert cached is None

    def test_analytical_reruns_hit_result_cache(self, tmp_path,
                                                tiny_profile):
        cache = ResultCache(tmp_path / "results")
        trace_cache = TraceCache(tmp_path / "traces")
        spec = _spec(tiny_profile, fidelity="analytical")
        run_sweep(spec, cache=cache, trace_cache=trace_cache)
        session = SweepSession(spec, cache=cache,
                               trace_cache=trace_cache)
        session.run()
        assert session.counters["cached"] == len(spec.configs())
        assert session.counters.get("analytical", 0) == 0


class TestStrictParallel:
    """``strict_parallel`` was a spec field until 1.5 (the optimizer
    routes known-bad rows itself, before a spec is built); what is left
    of it is a key old wire payloads may still carry."""

    def test_wire_round_trip_preserves_new_fields(self, tiny_profile):
        spec = SweepSpec.parallel(
            "mp3d", profile=tiny_profile, ladder=(4 * KB,), procs=(1,),
            fidelity="analytical",
            variants=(("associativity", 2), ("protocol", "mesi")))
        assert "strict_parallel" not in spec.to_wire()
        # a 1.4 payload: the key is accepted and ignored
        clone = SweepSpec.from_wire(dict(spec.to_wire(),
                                         strict_parallel=True))
        assert clone == spec
        assert clone.signature() == spec.signature()
        assert clone.variants == (("associativity", 2),
                                  ("protocol", "mesi"))
