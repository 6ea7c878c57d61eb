"""Unit tests for the replay-engine registry.

The cross-backend *timing* equivalence lives in ``tests/equivalence``
and the fuzz corpus; this module covers the selection machinery
(:mod:`repro.trace.engine`) -- the one piece with behavior of its own
beyond "same numbers as the reference loop".
"""

import pytest

from repro.trace.engine import (BACKEND_CHOICES, available_backends,
                                backend_info, engine_degradation,
                                native_available, resolve_backend)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestResolveBackend:
    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown replay backend"):
            resolve_backend("fortran")

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_explicit_request_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        assert resolve_backend("python") == "python"

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()

    def test_requests_degrade_down_the_ladder(self, monkeypatch):
        import repro.trace.engine as engine
        monkeypatch.setattr(engine, "native_available", lambda: False)
        monkeypatch.setattr(engine, "native_unavailable_reason",
                            lambda: "no compiler")
        assert engine.resolve_backend("auto") == "python"
        assert engine.resolve_backend("native") == "python"
        note = engine.engine_degradation("native")
        assert "no compiler" in note
        # loud about what was lost and how to get it back
        assert "reference loop" in note and "no fused ladder" in note
        assert "C compiler" in note
        assert engine.engine_degradation("auto") == note
        assert engine.engine_degradation("python") is None
        with pytest.raises(RuntimeError, match="no compiler"):
            engine.resolve_backend("native", strict=True)

    def test_retired_numpy_name_is_an_unavailable_tier(self, monkeypatch):
        """Stored requests (environment, specs, 1.2 wire payloads) may
        still name the removed tier; they run on python."""
        assert "numpy" not in BACKEND_CHOICES
        assert resolve_backend("numpy") == "python"
        monkeypatch.setenv("REPRO_ENGINE", "numpy")
        assert resolve_backend() == "python"
        assert backend_info()["resolved"] == "python"
        assert "removed" in engine_degradation()
        assert "reference loop" in engine_degradation()
        with pytest.raises(RuntimeError, match="removed"):
            resolve_backend("numpy", strict=True)

    def test_python_is_always_available(self):
        assert "python" in available_backends()
        assert set(available_backends()) <= set(BACKEND_CHOICES)
        assert BACKEND_CHOICES == ("auto", "python", "native")

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["resolved"] in info["available"]
        common = {"requested", "resolved", "available"}
        if native_available():
            assert set(info) == common | {"native_version",
                                          "native_ladder"}
        else:
            assert set(info) == common | {"native_error"}
            assert info["native_error"]


def test_differ_registry_covers_available_backends():
    """One extension carries both compiled entry points; without it
    only the oracle is left to diff against the reference loop."""
    from repro.verify.differ import engine_registry
    expected = {"oracle"}
    if native_available():
        expected |= {"native", "fused"}
    assert set(engine_registry()) == expected


# ----------------------------------------------------------------------
# Native scheduler: C switches processes; python is re-entered only for
# refills, sync handlers and the object path
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(not native_available(),
                                  reason="native extension unavailable")


def _interleaver(config, streams, backend):
    """``streams``: per-processor lists of packed chunks."""
    from repro.core.system import MultiprocessorSystem
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import PackedChunk
    system = MultiprocessorSystem(config)
    interleaver = TimingInterleaver(system, backend=backend)
    for pid, chunks in streams.items():
        interleaver.add_process(
            pid, iter([PackedChunk(list(chunk)) for chunk in chunks]))
    return system, interleaver


def _outcome(config, streams, backend, max_cycles=None):
    """Everything observable about one run, errors included."""
    system, interleaver = _interleaver(config, streams, backend)
    error = None
    finish = 0
    try:
        finish = interleaver.run(max_cycles=max_cycles)
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    assert interleaver.engine_used == backend
    return {
        "error": error,
        "finish": finish,
        # (an abort leaves the clocks wherever the engine last stored them)
        "clocks": error or {pid: process.time for pid, process
                            in interleaver._processes.items()},
        "last_reference": [proc.finish_time for proc in system._procs],
        "events": interleaver.events_processed,
        "stats": system.stats(finish).as_dict(),
        "seq": interleaver._seq,
    }


@needs_native
class TestNativeScheduler:
    def test_reentry_budget_on_a_32_process_point(self, monkeypatch):
        """Quick Barnes-Hut 8p/8KB: every hand-back to python has one of
        the three reasons, and together they stay under 5% of the events
        (the python scheduler frame took 78%: one per process switch)."""
        from types import SimpleNamespace
        from repro.core.config import SystemConfig
        from repro.experiments.spec import PROFILES
        from repro.simulation import build_system
        from repro.trace.engine import native
        from repro.trace.interleave import TimingInterleaver

        real = native.load()
        calls = []

        def counting_run(ctx, chunk):
            calls.append(1)
            return real.run(ctx, chunk)

        monkeypatch.setattr(native, "_mod", SimpleNamespace(
            setup=real.setup, run=counting_run, release=real.release))
        profile = PROFILES["quick"]
        config = SystemConfig.paper_parallel(
            8, 8 * 1024 // profile.ladder_scale)
        interleaver = TimingInterleaver(build_system(config),
                                        backend="native")
        application = profile.barnes_hut()
        for pid, generator in application.processes(config).items():
            interleaver.add_process(pid, generator)
        interleaver.run()
        assert interleaver.engine_used == "native"
        returns = interleaver.engine_returns
        assert set(returns) == {"refill", "sync", "object"}
        # one more call than hand-backs: the one that finds the heap empty
        assert len(calls) == sum(returns.values()) + 1
        assert returns["refill"] > 0 and returns["object"] > 0
        assert sum(returns.values()) < 0.05 * interleaver.events_processed

    def test_other_engines_report_no_returns(self):
        """(the one other engine: the reference loop)"""
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_COMPUTE
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=512)
        _, interleaver = _interleaver(config, {0: [[OP_COMPUTE, 3]]},
                                      "python")
        interleaver.run()
        assert interleaver.engine_returns == {}

    def test_tied_clocks_schedule_like_the_python_loop(self):
        """Identical compute-only tapes keep every clock tied, so only
        ``seq`` orders the heap -- shared between C's pushes and
        python's, and equal to the reference loop's count."""
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_COMPUTE
        config = SystemConfig(clusters=4, processors_per_cluster=2,
                              scc_size=1024)
        tape = [OP_COMPUTE, 5, OP_COMPUTE, 0, OP_COMPUTE, 7] * 6
        streams = {pid: [tape[:14], [], tape[14:]] for pid in range(8)}
        native = _outcome(config, streams, "native")
        assert native["error"] is None
        assert len(set(native["clocks"].values())) == 1
        assert native == _outcome(config, streams, "python")

    def test_mixed_tapes_with_syncs_match_the_python_loop(self):
        from repro.core.config import SystemConfig
        from repro.trace.packed import (OP_BARRIER, OP_COMPUTE,
                                        OP_LOCK_ACQ, OP_LOCK_REL,
                                        OP_READ, OP_WRITE, OP_WRITE_SPAN)
        config = SystemConfig(clusters=2, processors_per_cluster=2,
                              scc_size=1024)
        streams = {}
        for pid in range(4):
            body = [OP_READ, 64 * pid, OP_COMPUTE, 3 + pid,
                    OP_LOCK_ACQ, 1, OP_WRITE, 512, OP_LOCK_REL, 1,
                    OP_WRITE_SPAN, 2048, 64, 16, OP_BARRIER, 0, 4,
                    OP_READ, 512, OP_COMPUTE, 2]
            streams[pid] = [body[:4], body[4:6], body[6:], body]
        native = _outcome(config, streams, "native")
        assert native["error"] is None
        assert native == _outcome(config, streams, "python")

    def test_max_cycles_abort_right_after_a_switch(self):
        """Process 0 overshoots the limit and is preempted; process 1
        overtakes it with one long compute, so C switches back to
        process 0, whose next event must raise -- same message, same
        partial statistics as the reference loop."""
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_COMPUTE, OP_READ
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)
        streams = {0: [[OP_READ, 0, OP_COMPUTE, 500, OP_READ, 64]],
                   1: [[OP_READ, 128, OP_COMPUTE, 1000, OP_READ, 256]]}
        native = _outcome(config, streams, "native", max_cycles=300)
        assert native["error"] == ("RuntimeError",
                                   "simulation exceeded 300 cycles")
        assert native["events"] == 4    # neither trailing read ran
        assert native == _outcome(config, streams, "python",
                                  max_cycles=300)

    def test_exception_in_read_miss_flushes_deltas_once(self, monkeypatch):
        """A coherence callback that raises mid-run: C's deltas are
        flushed exactly once, leaving what the reference loop -- which
        counts as it goes -- has at the same failure.  The fault sits in
        ``_snoop_downgrade``, the one step the native engine's
        ``read_miss`` and the reference loop's ``read_line`` share."""
        from repro.core.coherence import CoherenceController
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_COMPUTE, OP_READ, OP_WRITE
        config = SystemConfig(clusters=2, processors_per_cluster=2,
                              scc_size=1024)
        streams = {pid: [[OP_WRITE, 64 * pid, OP_COMPUTE, 9,
                          OP_READ, 64 * pid],
                         [OP_READ, 4096 + 64 * pid, OP_COMPUTE, 1]]
                   for pid in range(4)}

        real = CoherenceController._snoop_downgrade
        budget = []

        def snoop_downgrade(self, requester, line):
            if not budget:
                raise KeyError("injected read-miss failure")
            budget.pop()
            return real(self, requester, line)

        monkeypatch.setattr(CoherenceController, "_snoop_downgrade",
                            snoop_downgrade)
        budget[:] = [1, 1]
        native = _outcome(config, streams, "native")
        assert native["error"] == ("KeyError",
                                   "'injected read-miss failure'")
        assert native["events"] > 0
        budget[:] = [1, 1]
        assert native == _outcome(config, streams, "python")


@needs_native
class TestNativeAbiGuard:
    def test_source_and_wrapper_agree_on_the_abi(self):
        import re
        from repro.trace.engine import native
        source = native._source_path().read_text()
        declared = re.search(r'#define ABI_VERSION "(\w+)"', source)
        assert declared.group(1) == native.NATIVE_VERSION
        assert native.load().ABI_VERSION == native.NATIVE_VERSION
        exported = {name for name in dir(native.load())
                    if not name.startswith("__")}
        assert exported == {"ABI_VERSION", "setup", "run", "release",
                            "ladder_setup", "ladder_drain",
                            "ladder_release"}

    def test_stale_in_place_build_falls_back_to_on_demand(self,
                                                          monkeypatch):
        """An ``_native`` left by an older ``build_ext --inplace`` must
        not be handed out (it would fail mid-sweep on the first missing
        entry point)."""
        from types import SimpleNamespace
        import repro.trace.engine as engine
        from repro.trace.engine import native
        stale = SimpleNamespace(ABI_VERSION="2", __file__="old.so",
                                ladder_setup=None, drain=None)
        monkeypatch.setattr(engine, "_native", stale, raising=False)
        monkeypatch.setattr(native, "_mod", native._UNSET)
        loaded = native.load()
        assert loaded is not stale
        assert loaded.ABI_VERSION == native.NATIVE_VERSION
        assert native.LOAD_ERROR is None
        assert native.ladder_available()
        info = backend_info()
        assert info["native_version"] == native.NATIVE_VERSION
        assert info["native_ladder"] is True

    def test_stale_build_and_no_compiler_degrades_with_the_reason(
            self, monkeypatch):
        from types import SimpleNamespace
        import repro.trace.engine as engine
        from repro.trace.engine import native
        stale = SimpleNamespace(__file__="old.so", ladder_setup=None)
        monkeypatch.setattr(engine, "_native", stale, raising=False)
        monkeypatch.setattr(native, "_mod", native._UNSET)
        monkeypatch.setattr(native, "LOAD_ERROR", None)

        def no_compiler():
            native.LOAD_ERROR = "compile failed: no cc"
            return None

        monkeypatch.setattr(native, "_compile_on_demand", no_compiler)
        assert native.load() is None
        assert not native.ladder_available()
        assert "stale extension old.so" in native.LOAD_ERROR
        assert "no cc" in native.LOAD_ERROR
        assert engine.resolve_backend("native") == "python"
        assert "stale extension" in engine.engine_degradation("native")
