"""Exactness and sanity tests for the analytical predictor.

Every profile here comes from ``build_row_profile``, which runs the C
kernel when the native extension loaded and the python reference
otherwise: each class runs as written and again pinned to the reference
(the ``...OnTheReferenceKernel`` subclasses at the bottom), and
``TestEitherKernel`` holds whole analytical sweeps -- and the profile
cache between them -- equal across the two.
"""

import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.runner import ResultCache, _simulate
from repro.experiments.session import run_sweep
from repro.experiments.spec import ExperimentProfile, SweepSpec
from repro.model import build_row_profile, predict_point, predictor
from repro.model import profile as profile_module
from repro.trace.engine import native
from repro.trace.events import Read, Write
from repro.trace.packed import encode_events
from repro.trace.record import ReplayApplication, StreamRecorder, TraceCache
from repro.workloads.barnes_hut import BarnesHut

from .test_profile import needs_native


def p1_config(scc_size, **kwargs):
    return SystemConfig(clusters=1, processors_per_cluster=1,
                        scc_size=scc_size, **kwargs)


def tracked_for(configs):
    return tuple(sorted({c.scc_size // c.line_size for c in configs}))


class TestExactCases:
    """Configurations where the analytical answer must equal the
    simulator bit-for-bit (direct-mapped, tracked sizes)."""

    def test_cold_only_stream(self):
        """Distinct lines, never reused: every reference misses and the
        model must say so exactly."""
        streams = {0: encode_events([Read(i * 16) for i in range(64)])}
        config = p1_config(16 * KB)
        profile = build_row_profile(streams, config,
                                    (config.scc_size // 16,))
        predicted = predict_point(profile, config)
        truth = _simulate(ReplayApplication(streams), config, False)
        assert predicted.miss_rate == pytest.approx(1.0)
        assert predicted.miss_rate == pytest.approx(truth.miss_rate)
        assert predicted.read_miss_rate == pytest.approx(
            truth.read_miss_rate)

    def test_working_set_smaller_than_cache(self):
        """Hot loop over 8 lines inside a 256-line cache: only the 8
        cold misses survive at every tracked size."""
        refs = [Read((i % 8) * 16) for i in range(400)]
        refs += [Write((i % 8) * 16) for i in range(100)]
        streams = {0: encode_events(refs)}
        configs = [p1_config(4 * KB), p1_config(16 * KB)]
        profile = build_row_profile(streams, configs[0],
                                    tracked_for(configs))
        for config in configs:
            predicted = predict_point(profile, config)
            truth = _simulate(ReplayApplication(streams), config, False)
            assert predicted.miss_rate == pytest.approx(truth.miss_rate)
            assert predicted.miss_rate == pytest.approx(8 / 500)

    def test_barnes_hut_row_matches_simulator_across_ladder(self):
        """A real recorded row: predictions at every tracked rung must
        equal replaying the same tape through the simulator."""
        recorder = StreamRecorder(BarnesHut(n_bodies=32, steps=1))
        config0 = p1_config(1 * KB)
        _simulate(recorder, config0, False)
        configs = [p1_config(s) for s in (1 * KB, 4 * KB, 16 * KB)]
        profile = build_row_profile(recorder.streams, config0,
                                    tracked_for(configs))
        for config in configs:
            predicted = predict_point(profile, config,
                                      benchmark="barnes-hut")
            truth = _simulate(ReplayApplication(recorder.streams),
                              config, False)
            assert predicted.miss_rate == pytest.approx(truth.miss_rate)
            assert predicted.read_miss_rate == pytest.approx(
                truth.read_miss_rate)
            assert predicted.invalidations == truth.invalidations == 0


class TestCrossClusterSharing:
    def _row(self):
        shared = [Write(i * 16) if i % 3 == 0 else Read(i * 16)
                  for i in range(32)] * 4
        streams = {0: encode_events(shared),
                   1: encode_events(list(reversed(shared)))}
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=4 * KB)
        return streams, config

    def test_invalidations_predicted(self):
        streams, config = self._row()
        profile = build_row_profile(streams, config,
                                    (config.scc_size // 16,))
        predicted = predict_point(profile, config)
        truth = _simulate(ReplayApplication(streams), config, False)
        assert predicted.invalidations > 0
        # Interleaving drift bounds the agreement, it does not break it.
        assert predicted.miss_rate == pytest.approx(truth.miss_rate,
                                                    abs=0.05)


def scattered_lines(count, span, seed=12345):
    """Deterministic LCG reference sequence over ``span`` distinct lines
    whose physical line numbers are themselves hash-scattered.  The
    binomial set-mapping model assumes lines land in sets randomly, so
    its accuracy tests need scattered addresses -- compact or strided
    line numbers map to sets with zero (or total) conflict and are the
    known-adversarial cases for any random-mapping model."""
    state = 99991
    table = []
    for _ in range(span):
        state = (state * 1103515245 + 12345) % (1 << 31)
        table.append(state >> 8)                 # ~23-bit line numbers
    state = seed
    out = []
    for _ in range(count):
        state = (state * 1103515245 + 12345) % (1 << 31)
        out.append(table[(state >> 7) % span])
    return out


class TestBinomialPath:
    def _profile_and_configs(self):
        refs = [Read(line * 16) for line in scattered_lines(2000, 96)]
        streams = {0: encode_events(refs)}
        dm = p1_config(1 * KB)
        profile = build_row_profile(streams, dm, (dm.scc_size // 16,))
        return streams, profile, dm

    def test_associative_prediction_is_bounded_and_ordered(self):
        _, profile, dm = self._profile_and_configs()
        rates = []
        for ways in (1, 2, 4, 8):
            config = p1_config(1 * KB, associativity=ways)
            stats = predict_point(profile, config)
            assert 0.0 < stats.miss_rate <= 1.0
            rates.append(stats.miss_rate)
        # On scattered traffic, associativity never predicts more misses.
        assert rates == sorted(rates, reverse=True)
        assert rates[0] > rates[-1]    # and it actually helps here

    def test_single_set_degenerates_to_fully_associative(self):
        """associativity == lines means one set: the prediction must
        collapse to the exact fully-associative rule (hit iff stack
        distance < capacity), recomputable from the profile itself."""
        _, profile, dm = self._profile_and_configs()
        lines = dm.scc_size // 16
        config = p1_config(1 * KB, associativity=lines)
        stats = predict_point(profile, config)
        histogram = profile.cluster_histogram(0)
        expected = histogram.cold_reads + histogram.cold_writes
        for floor, (read_count, write_count) in histogram.buckets.items():
            if floor >= lines:
                expected += read_count + write_count
        assert stats.miss_rate == pytest.approx(expected / 2000)

    def test_untracked_direct_mapped_size_interpolates(self):
        streams, profile, dm = self._profile_and_configs()
        config = p1_config(2 * KB)     # 128 lines: not tracked
        stats = predict_point(profile, config)
        truth = _simulate(ReplayApplication(streams), config, False)
        assert stats.miss_rate == pytest.approx(truth.miss_rate,
                                                abs=0.08)


class TestGeometryGuards:
    def test_rejects_mismatched_row_geometry(self):
        streams = {0: encode_events([Read(0)])}
        config = p1_config(4 * KB)
        profile = build_row_profile(streams, config, (256,))
        for bad in (
            SystemConfig(clusters=2, processors_per_cluster=1,
                         scc_size=4 * KB),
            p1_config(4 * KB, line_size=32),
        ):
            with pytest.raises(ValueError):
                predict_point(profile, bad)

    def test_execution_time_is_positive_int(self):
        streams = {0: encode_events([Read(0), Write(16)])}
        config = p1_config(4 * KB)
        profile = build_row_profile(streams, config, (256,))
        stats = predict_point(profile, config, benchmark="barnes-hut")
        assert isinstance(stats.execution_time, int)
        assert stats.execution_time > 0


class TestParallelFidelityGuard:
    """Multi-processor parallel rows are outside the surrogate's
    validated regime: it warns, once per process (the optimizer routes
    such rows to the exact tiers before it ever asks)."""

    def _parallel_profile(self):
        streams = {p: encode_events([Read((p * 64 + i) * 16)
                                     for i in range(16)])
                   for p in range(4)}
        config = SystemConfig(clusters=2, processors_per_cluster=2,
                              scc_size=4 * KB)
        return build_row_profile(streams, config,
                                 (config.scc_size // 16,)), config

    def _reset_warning(self, monkeypatch):
        from repro.model import predictor
        monkeypatch.setattr(predictor, "_PARALLEL_WARNING_EMITTED",
                            False)

    def test_warns_once_by_default(self, monkeypatch):
        self._reset_warning(monkeypatch)
        profile, config = self._parallel_profile()
        with pytest.warns(RuntimeWarning, match="known-bad"):
            predict_point(profile, config)
        # One-shot: the second prediction stays silent.
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict_point(profile, config)

    def test_single_processor_rows_stay_silent(self, monkeypatch):
        self._reset_warning(monkeypatch)
        streams = {0: encode_events([Read(i * 16) for i in range(8)]),
                   1: encode_events([Read(i * 16) for i in range(8)])}
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=4 * KB)
        profile = build_row_profile(streams, config,
                                    (config.scc_size // 16,))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predict_point(profile, config)


class _OnTheReferenceKernel:
    @pytest.fixture(autouse=True)
    def _pin(self, no_native_extension):
        pass


class TestExactCasesOnTheReferenceKernel(_OnTheReferenceKernel,
                                         TestExactCases):
    pass


class TestCrossClusterSharingOnTheReferenceKernel(_OnTheReferenceKernel,
                                                  TestCrossClusterSharing):
    pass


class TestBinomialPathOnTheReferenceKernel(_OnTheReferenceKernel,
                                           TestBinomialPath):
    pass


class TestGeometryGuardsOnTheReferenceKernel(_OnTheReferenceKernel,
                                             TestGeometryGuards):
    pass


class TestParallelFidelityGuardOnTheReferenceKernel(
        _OnTheReferenceKernel, TestParallelFidelityGuard):
    pass


@needs_native
class TestEitherKernel:
    """Which kernel built a profile is not an input of anything after
    it: not of the predictions, not of the profile cache."""

    SPEC = SweepSpec.parallel(
        "mp3d", ladder=(2 * KB, 4 * KB, 8 * KB), procs=(1, 2),
        fidelity="analytical", instrument=False,
        profile=ExperimentProfile(
            name="tiny", ladder_scale=8, barnes_bodies=32, barnes_steps=1,
            mp3d_particles=60, mp3d_steps=1, cholesky_n=64,
            multiprog_instructions=2000, multiprog_quantum=500))

    def _sweep(self, root, traces, calls, extension=True):
        """One session on fresh result caches; ``extension=False`` is
        the loader as ``REPRO_NATIVE=0`` leaves it."""
        real = profile_module.build_row_profile

        def counted(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as patch:
            if not extension:
                patch.setattr(native, "_mod", None)
            patch.setattr(profile_module, "build_row_profile", counted)
            # (the 2-processor row is a parallel one: warned about once
            # per process, and not here)
            patch.setattr(predictor, "_PARALLEL_WARNING_EMITTED", True)
            sweep = run_sweep(self.SPEC, cache=ResultCache(root),
                              trace_cache=TraceCache(traces))
        return {point: stats.as_dict() for point, stats in sweep.items()}

    def test_analytical_sweep_is_the_same_sweep(self, tmp_path):
        built = []
        with_extension = self._sweep(tmp_path / "r1", tmp_path / "t1",
                                     built)
        without = self._sweep(tmp_path / "r2", tmp_path / "t2", built,
                              extension=False)
        assert len(built) == 2 * len(self.SPEC.procs)
        assert with_extension == without
        assert len(without) == len(self.SPEC.configs())

    @pytest.mark.parametrize("writer_has_extension", [True, False])
    def test_profile_cache_is_shared(self, tmp_path,
                                     writer_has_extension):
        """A session on one kernel reads the entries a session on the
        other wrote: no rebuild, same bytes on disk, same sweep."""
        traces = tmp_path / "traces"
        built = []
        first = self._sweep(tmp_path / "r1", traces, built,
                            extension=writer_has_extension)
        entries = {path: path.read_bytes()
                   for path in (traces / "profiles").glob("*.json")}
        assert len(built) == len(entries) == len(self.SPEC.procs)
        second = self._sweep(tmp_path / "r2", traces, built,
                             extension=not writer_has_extension)
        assert len(built) == len(entries)           # none rebuilt
        assert second == first
        assert {path: path.read_bytes() for path
                in (traces / "profiles").glob("*.json")} == entries
