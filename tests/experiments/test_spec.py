"""Tests for the declarative SweepSpec API."""

import argparse
from dataclasses import fields

import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.spec import (KNOWN_BENCHMARKS, PAPER_LADDER,
                                    PROCS_SWEPT, PROFILES,
                                    ExperimentProfile, SweepSpec,
                                    point_cache_key)


class TestValidation:
    def test_defaults_cover_the_paper_grid(self, tiny_profile):
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile)
        assert spec.ladder == PAPER_LADDER
        assert spec.procs == PROCS_SWEPT
        assert spec.fidelity == "fused"
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

    @pytest.mark.parametrize("bad", [
        dict(name=7),
        dict(ladder_scale=0),
        dict(mp3d_particles=-5),
        dict(cholesky_n=96.0),
        dict(barnes_steps=True),
        dict(multiprog_quantum="500"),
    ])
    def test_profile_rejects_bad_fields(self, tiny_profile, bad):
        """A wire payload builds a profile too: every count is an int
        of at least one, and a bool is not one."""
        with pytest.raises(ValueError):
            ExperimentProfile(**{**tiny_profile.__dict__, **bad})

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


QUICK_PROFILE_REPR = (
    "ExperimentProfile(name='quick', ladder_scale=8, barnes_bodies=192, "
    "barnes_steps=2, mp3d_particles=600, mp3d_steps=3, cholesky_n=288, "
    "multiprog_instructions=60000, multiprog_quantum=20000)")


def _quick_mp3d(**knobs):
    return SweepSpec.parallel("mp3d", profile=PROFILES["quick"],
                              ladder=(8 * KB, 128 * KB), procs=(2, 8),
                              **knobs)


class TestBytePins:
    """The exact bytes of keys and signatures written by earlier builds,
    when every simulated point carried a probe: a result cache, fabric
    store or session journal warmed then must still be hit."""

    def test_simulated_point_key(self):
        spec = _quick_mp3d()
        assert spec.point_key(spec.configs()[(2, 8 * KB)]) == (
            f"mp3d|{QUICK_PROFILE_REPR}|clusters=4|procs=2|scc=1024"
            f"|icache=16384|model_icache=False")

    def test_analytical_point_key(self):
        spec = _quick_mp3d(fidelity="analytical")
        assert spec.point_key(spec.configs()[(2, 8 * KB)]) == (
            f"mp3d|{QUICK_PROFILE_REPR}|clusters=4|procs=2|scc=1024"
            f"|icache=16384|model_icache=False"
            f"|instrument=False|fidelity=analytical|model=v1")

    def test_fused_signature(self):
        assert _quick_mp3d().signature() == "613a8461fbfd6e1ffbde0f12"
        assert _quick_mp3d(fidelity="full").signature() == \
            "613a8461fbfd6e1ffbde0f12"

    def test_analytical_signature(self):
        assert _quick_mp3d(fidelity="analytical").signature() == \
            "a45b71863fa2e9acfff7e38d"

    @pytest.mark.parametrize("instrument", [True, False])
    def test_instrument_keyword_is_accepted_and_ignored(self,
                                                         instrument):
        # The benchmark harness still passes ``instrument=``.
        assert _quick_mp3d(instrument=instrument) == _quick_mp3d()
        assert SweepSpec.multiprogramming(
            profile=PROFILES["quick"], instrument=instrument) == \
            SweepSpec.multiprogramming(profile=PROFILES["quick"])


class TestSignature:
    def test_execution_knobs_do_not_change_identity(self, tiny_profile):
        """jobs/retry policy only change *how* results are obtained, so
        a journal keyed by the signature survives them."""
        base = SweepSpec.parallel("mp3d", profile=tiny_profile)
        for knobs in (dict(jobs=4), dict(max_attempts=1),
                      dict(point_timeout=5.0), dict(retry_backoff=0.0)):
            other = SweepSpec.parallel("mp3d", profile=tiny_profile,
                                       **knobs)
            assert other.signature() == base.signature()

    def test_backend_absent_from_identity_and_point_keys(self,
                                                         tiny_profile):
        """The engine and the fused ladder are the process's choice
        (``$REPRO_ENGINE``, the loader), not the spec's: neither is a
        field, so neither can reach an identity payload or a key.  A
        stored 1.5 spec naming them decodes to the same sweep
        (``tests/fabric/test_wire.py``)."""
        assert len(fields(SweepSpec)) == 11
        for knob in ("backend", "fused"):
            with pytest.raises(TypeError):
                SweepSpec.parallel("mp3d", profile=tiny_profile,
                                   **{knob: None})
        spec = SweepSpec.parallel("mp3d", profile=tiny_profile)
        for payload in (spec.describe(), spec.to_wire()):
            assert "backend" not in payload and "fused" not in payload

    def test_identity_fields_change_signature(self, tiny_profile):
        base = SweepSpec.parallel("mp3d", profile=tiny_profile)
        different = [
            SweepSpec.parallel("cholesky", profile=tiny_profile),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               ladder=(4 * KB,)),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               procs=(1,)),
            SweepSpec.parallel("mp3d", profile=tiny_profile,
                               fidelity="analytical"),
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
                        procs=None, jobs=None, resume=False, retries=2,
                        timeout=None, backoff=0.5)
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
            jobs=3, retries=0, timeout=2.5, backoff=0.1))
        assert spec.ladder == (4 * KB, 8 * KB)
        assert spec.procs == (1, 2)
        assert spec.jobs == 3
        assert spec.max_attempts == 1
        assert spec.point_timeout == 2.5
        assert spec.retry_backoff == 0.1

    def test_instrument_override_is_accepted_and_ignored(self):
        plain = SweepSpec.from_cli_args(self._args(profile="quick"))
        assert SweepSpec.from_cli_args(self._args(profile="quick"),
                                       instrument=True) == plain

    def test_multiprogramming_dispatch(self):
        spec = SweepSpec.from_cli_args(self._args(
            benchmark="multiprogramming", profile="quick"))
        assert spec.kind == "multiprogramming"

    def test_known_benchmarks_cover_cli_choices(self):
        assert "multiprogramming" in KNOWN_BENCHMARKS
        assert set(KNOWN_BENCHMARKS) >= {"barnes-hut", "mp3d", "cholesky"}
