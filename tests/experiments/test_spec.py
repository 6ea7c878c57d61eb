"""Tests for the declarative SweepSpec API."""

import argparse

import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.spec import (KNOWN_BENCHMARKS, PAPER_LADDER,
                                    PROCS_SWEPT, PROFILES,
                                    ExperimentProfile, SweepSpec,
                                    point_cache_key)


@pytest.fixture
def tiny_profile():
    return ExperimentProfile(
        name="tiny", ladder_scale=8,
        barnes_bodies=32, barnes_steps=1,
        mp3d_particles=60, mp3d_steps=1,
        cholesky_n=64,
        multiprog_instructions=2000, multiprog_quantum=500)


class TestValidation:
    def test_defaults_cover_the_paper_grid(self, tiny_profile):
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile)
        assert spec.ladder == PAPER_LADDER
        assert spec.procs == PROCS_SWEPT
        assert spec.instrument and spec.fused
        assert spec.max_attempts == 3

    def test_sequences_coerced_to_tuples(self, tiny_profile):
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                  ladder=[4 * KB, 8 * KB], procs=[1, 2])
        assert spec.ladder == (4 * KB, 8 * KB)
        assert spec.procs == (1, 2)
        hash(spec)  # frozen + tuple fields => hashable

    @pytest.mark.parametrize("bad", [
        dict(kind="grid"),
        dict(kind="miss-surface"),      # a sweep kind until 1.5
        dict(benchmark="linpack"),
        dict(ladder=()),
        dict(ladder=(0,)),
        dict(ladder=(4096.0,)),
        dict(procs=()),
        dict(procs=(0,)),
        dict(jobs=0),
        dict(max_attempts=0),
        dict(point_timeout=0.0),
        dict(retry_backoff=-1.0),
    ])
    def test_rejects_bad_fields(self, tiny_profile, bad):
        fields = dict(kind="parallel", benchmark="mp3d",
                      profile=tiny_profile)
        fields.update(bad)
        with pytest.raises(ValueError):
            SweepSpec(**fields)

    def test_rejects_non_profile(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="parallel", benchmark="mp3d", profile="quick")

    def test_multiprogramming_kind_pins_benchmark(self, tiny_profile):
        with pytest.raises(ValueError):
            SweepSpec(kind="multiprogramming", benchmark="mp3d",
                      profile=tiny_profile)


class TestConfigs:
    def test_parallel_grid(self, tiny_profile):
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                  ladder=(4 * KB, 8 * KB), procs=(1, 2))
        configs = spec.configs()
        assert set(configs) == {(1, 4 * KB), (2, 4 * KB),
                                (1, 8 * KB), (2, 8 * KB)}
        config = configs[(2, 8 * KB)]
        assert config.processors_per_cluster == 2
        assert config.scc_size == 8 * KB // tiny_profile.ladder_scale
        assert not config.model_icache

    def test_multiprogramming_grid_scales_icache(self, tiny_profile):
        spec = SweepSpec.multiprogramming(profile=tiny_profile,
                                          ladder=(4 * KB,), procs=(2,))
        config = spec.configs()[(2, 4 * KB)]
        assert config.clusters == 1
        assert config.model_icache
        assert config.icache_size == max(
            16 * KB // tiny_profile.ladder_scale, 512)


class TestCacheKeys:
    def test_point_key_matches_historical_format(self, tiny_profile):
        """Warm caches must survive the API redesign: the per-point key
        is the exact pre-SweepSpec format."""
        config = SystemConfig.paper_parallel(2, 1 * KB)
        expected = (f"mp3d|{tiny_profile}|clusters={config.clusters}"
                    f"|procs={config.processors_per_cluster}"
                    f"|scc={config.scc_size}"
                    f"|icache={config.icache_size}"
                    f"|model_icache={config.model_icache}")
        assert point_cache_key("mp3d", tiny_profile, config) == expected
        assert point_cache_key("mp3d", tiny_profile, config,
                               instrument=False) == (
            expected + "|instrument=False")

    def test_spec_point_key_uses_instrument_flag(self, tiny_profile):
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                  instrument=False)
        config = SystemConfig.paper_parallel(1, 1 * KB)
        assert spec.point_key(config).endswith("|instrument=False")


class TestSignature:
    def test_execution_knobs_do_not_change_identity(self, tiny_profile):
        """jobs/fused/retry policy only change *how* results are
        obtained, so a journal keyed by the signature survives them."""
        base = SweepSpec.parallel("mp3d", profile=tiny_profile)
        for knobs in (dict(jobs=4), dict(fused=False),
                      dict(max_attempts=1), dict(point_timeout=5.0),
                      dict(retry_backoff=0.0), dict(backend="native"),
                      dict(backend="python")):
            other = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                       **knobs)
            assert other.signature() == base.signature()

    def test_backend_absent_from_identity_and_point_keys(self,
                                                         tiny_profile):
        """The replay engine is execution-only: warm result caches and
        journals must survive switching between the python and native
        tiers (and the compiled fused ladder rides the same knob).  The
        removed ``numpy`` tier's name still validates, so a spec stored
        or sent by a 1.2 client keeps addressing the same entries."""
        base = SweepSpec.parallel("mp3d", profile=tiny_profile)
        config = SystemConfig.paper_parallel(2, 1 * KB)
        for backend in ("python", "numpy", "native", "auto"):
            other = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                       backend=backend)
            assert "backend" not in other.describe()
            assert other.signature() == base.signature()
            assert other.point_key(config) == base.point_key(config)
            back = SweepSpec.from_wire(other.to_wire())
            assert back.backend == backend
            assert back.point_key(config) == base.point_key(config)
        with pytest.raises(ValueError):
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               backend="fortran")

    def test_identity_fields_change_signature(self, tiny_profile):
        base = SweepSpec.parallel("mp3d", profile=tiny_profile)
        different = [
            SweepSpec.parallel("cholesky", profile=tiny_profile),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               ladder=(4 * KB,)),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               procs=(1,)),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               instrument=False),
            SweepSpec.parallel("mp3d", profile=PROFILES["quick"]),
        ]
        signatures = {spec.signature() for spec in different}
        assert base.signature() not in signatures
        assert len(signatures) == len(different)

    def test_describe_is_json_safe_identity(self, tiny_profile):
        import json
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile, jobs=7)
        payload = json.loads(json.dumps(spec.describe()))
        assert payload["benchmark"] == "mp3d"
        assert "jobs" not in payload
        assert "max_attempts" not in payload


class TestFromCliArgs:
    @staticmethod
    def _args(**overrides):
        defaults = dict(benchmark="mp3d", profile=None, ladder=None,
                        procs=None, no_instrument=False, no_fused=False,
                        jobs=None, resume=False, retries=2, timeout=None,
                        backoff=0.5)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "quick")
        spec = SweepSpec.from_cli_args(self._args())
        assert spec.kind == "parallel"
        assert spec.profile is PROFILES["quick"]
        assert spec.ladder == PAPER_LADDER
        assert spec.procs == PROCS_SWEPT
        assert spec.max_attempts == 3

    def test_knobs_flow_through(self):
        spec = SweepSpec.from_cli_args(self._args(
            profile="quick", ladder=(4 * KB, 8 * KB), procs=(1, 2),
            no_instrument=True, no_fused=True, jobs=3, retries=0,
            timeout=2.5, backoff=0.1))
        assert spec.ladder == (4 * KB, 8 * KB)
        assert spec.procs == (1, 2)
        assert not spec.instrument and not spec.fused
        assert spec.jobs == 3
        assert spec.max_attempts == 1
        assert spec.point_timeout == 2.5
        assert spec.retry_backoff == 0.1

    def test_multiprogramming_dispatch(self):
        spec = SweepSpec.from_cli_args(self._args(
            benchmark="multiprogramming", profile="quick"))
        assert spec.kind == "multiprogramming"

    def test_known_benchmarks_cover_cli_choices(self):
        assert "multiprogramming" in KNOWN_BENCHMARKS
        assert set(KNOWN_BENCHMARKS) >= {"barnes-hut", "mp3d", "cholesky"}
