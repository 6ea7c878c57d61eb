"""Tests for the differential runner."""

from array import array

import pytest

from repro.trace.packed import PackedChunk
from repro.verify import PathResult, TapeDivergence, diff_tape, \
    generate_tape, run_tape
from repro.verify import differ
from repro.verify.differ import _compare, _diff_values, fused_eligible

SEEDS = [f"differ:{i}" for i in range(12)]


class TestAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_engines_agree_on_generated_tapes(self, seed):
        divergence = diff_tape(generate_tape(seed))
        assert divergence is None, divergence.summary()

    def test_fast_path_actually_engages(self):
        """The comparison is vacuous if the native engine never runs;
        the sampled envelope must include machines that qualify, and
        exactly those run on it."""
        runs = [run_tape(generate_tape(seed), "native") for seed in SEEDS]
        assert any(run.fast_engaged for run in runs)
        assert all(run.engine_used == ("native" if run.fast_engaged
                                       else "python") for run in runs)

    def test_generic_and_fast_fingerprints_match_fully(self):
        seed = next(seed for seed in SEEDS
                    if run_tape(generate_tape(seed),
                                "native").fast_engaged)
        tape = generate_tape(seed)
        generic = run_tape(tape, "generic")
        fast = run_tape(tape, "native")
        assert generic.engine_used == "python"
        assert fast.engine_used == "native"
        assert generic.error is None and fast.error is None
        # the baseline carries the reference profile for ``profile``'s
        # sake, and no probe
        assert generic.fingerprint.pop("profile")["model_version"]
        assert "metrics" not in generic.fingerprint
        assert generic.fingerprint == fast.fingerprint

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generic_fingerprint_is_invariant_under_the_split(
            self, seed, monkeypatch):
        """How a stream is cut into chunks and event objects is not an
        input of the simulation: the baseline every engine is diffed
        against reads the same as on whole single-chunk streams."""
        class WholeStreams:
            def __init__(self, tape):
                self.tape = tape

            def processes(self, config):
                return {pid: iter([PackedChunk(array("q", stream))])
                        for pid, stream in self.tape.streams.items()}

        tape = generate_tape(seed)
        split = run_tape(tape, "generic")
        monkeypatch.setattr(differ, "TapeApplication", WholeStreams)
        whole = run_tape(tape, "generic")
        assert split.error is None and whole.error is None
        assert split.fingerprint == whole.fingerprint

    def test_fused_engine_compared_when_eligible(self):
        tapes = [generate_tape(f"fused:{i}") for i in range(60)]
        eligible = [t for t in tapes if fused_eligible(t)]
        assert eligible  # the generator reaches the fused envelope
        tape = eligible[0]
        fused = run_tape(tape, "fused")
        generic = run_tape(tape, "generic")
        assert fused.error is None
        assert fused.fingerprint["events"] == \
            generic.fingerprint["events"]
        assert fused.fingerprint["stats"] == generic.fingerprint["stats"]

    def test_profile_engine_diffs_the_whole_payload(self):
        """Both kernels, same streams, same tracked sizes -- and a tape
        neither can walk is the same exception type on both sides, not
        a crash of the differ."""
        tape = generate_tape(SEEDS[0])
        generic = run_tape(tape, "generic")
        profiled = run_tape(tape, "profile")
        assert profiled.error is None and profiled.engine_used == "native"
        assert set(profiled.fingerprint) == {"profile"}
        payload = profiled.fingerprint["profile"]
        assert payload == generic.fingerprint["profile"]
        lines = tape.config().scc_lines
        assert payload["tracked_line_counts"] == [lines, 2 * lines,
                                                  4 * lines]
        assert payload["reads"] + payload["writes"] > 0
        cut = tape.replaced({**tape.streams, 0: tape.streams[0][:-1]})
        assert run_tape(cut, "profile").fingerprint["profile"] == \
            run_tape(cut, "generic").fingerprint["profile"] == \
            {"error": "ValueError"}

    def test_multiprocessor_tapes_are_never_fused_eligible(self):
        tape = next(t for t in (generate_tape(f"mp:{i}")
                                for i in range(40))
                    if t.config().total_processors > 1)
        assert not fused_eligible(tape)


class TestComparison:
    def _results(self, **overrides):
        base = PathResult(name="generic",
                          fingerprint={"events": 10,
                                       "stats": {"reads": 4}})
        other = PathResult(name="native",
                           fingerprint={"events": 10,
                                        "stats": {"reads": 4}})
        for key, value in overrides.items():
            setattr(other, key, value)
        return base, other

    def test_identical_fingerprints_agree(self):
        tape = generate_tape("cmp:0")
        base, other = self._results()
        assert _compare(tape, base, other, ("events", "stats")) is None

    def test_field_difference_is_a_divergence(self):
        tape = generate_tape("cmp:1")
        base, other = self._results(
            fingerprint={"events": 10, "stats": {"reads": 5}})
        divergence = _compare(tape, base, other, ("events", "stats"))
        assert isinstance(divergence, TapeDivergence)
        assert divergence.kind == "native"
        assert any("stats.reads" in line for line in divergence.detail)
        assert "native diverges from generic" in divergence.summary()

    def test_same_error_type_is_agreement(self):
        tape = generate_tape("cmp:2")
        base, other = self._results()
        base.error = ("SyncProtocolError", "release of un-held lock")
        other.error = ("SyncProtocolError", "different message is fine")
        assert _compare(tape, base, other, ("events",)) is None

    def test_one_sided_error_is_a_divergence(self):
        tape = generate_tape("cmp:3")
        base, other = self._results(error=("RuntimeError", "boom"))
        divergence = _compare(tape, base, other, ("events",))
        assert divergence is not None
        assert "error" in divergence.detail[0]

    def test_mismatched_error_types_diverge(self):
        tape = generate_tape("cmp:4")
        base, other = self._results(error=("ValueError", "boom"))
        base.error = ("RuntimeError", "bang")
        assert _compare(tape, base, other, ("events",)) is not None

    def test_failed_baseline_answers_for_what_it_produced(self):
        """The reference profile reads the tape, not the run: it is in
        the baseline's fingerprint even when the timing run raised, and
        is diffed; every other section of that run is still an error."""
        tape = generate_tape("cmp:6")
        base = PathResult(name="generic",
                          error=("RuntimeError", "cycle budget"),
                          fingerprint={"profile": {"reads": 4}})
        same = PathResult(name="profile",
                          fingerprint={"profile": {"reads": 4}})
        assert _compare(tape, base, same, ("profile",)) is None
        off = PathResult(name="profile",
                         fingerprint={"profile": {"reads": 5}})
        divergence = _compare(tape, base, off, ("profile",))
        assert divergence.kind == "profile"
        assert divergence.detail == ["profile.reads: 4 != 5"]
        timing = PathResult(name="native", fingerprint={"events": 10})
        assert "error" in _compare(tape, base, timing,
                                   ("events",)).detail[0]

    def test_diff_values_reports_nested_paths(self):
        out = []
        _diff_values("stats", {"a": {"b": 1}, "c": [1, 2]},
                     {"a": {"b": 2}, "c": [1, 2]}, out)
        assert out == ["stats.a.b: 1 != 2"]

    def test_unknown_mode_rejected(self):
        for mode in ("turbo", "fast", "fused-native"):
            with pytest.raises(ValueError):
                run_tape(generate_tape("cmp:5"), mode)


class TestRunawayGuard:
    def test_max_cycles_bounds_every_path(self):
        """An absurdly small cycle budget trips the same error on both
        sides, which the differ treats as agreement (error parity)."""
        # (The fused engine takes no cycle bound, so stay off tapes it
        # would also run.)
        tape = next(t for t in (generate_tape(f"runaway:{i}")
                                for i in range(20))
                    if not fused_eligible(t))
        generic = run_tape(tape, "generic", max_cycles=1)
        assert generic.error is not None
        assert diff_tape(tape, max_cycles=1) is None
