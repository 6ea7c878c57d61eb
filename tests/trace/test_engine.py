"""Unit tests for the replay-engine registry.

The cross-backend *timing* equivalence lives in ``tests/equivalence``
and the fuzz corpus; this module covers the selection machinery
(:mod:`repro.trace.engine`) -- the one piece with behavior of its own
beyond "same numbers as the reference loop".
"""

import json
from array import array

import numpy as np
import pytest

from repro.trace.engine import (BACKEND_CHOICES, available_backends,
                                backend_info, engine_degradation,
                                native_available,
                                native_unavailable_reason, resolve_backend)
from repro.trace.packed import (OP_COMPUTE, OP_IFETCH, OP_READ,
                                OP_READ_SPAN, OP_WRITE, OP_WRITE_SPAN)


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
    """One extension carries every compiled entry point -- the run
    (probed and not), the ladder, the row-profile kernel; without it
    only the oracle is left to diff against the reference loop."""
    from repro.verify.differ import engine_registry
    expected = {"oracle"}
    if native_available():
        expected |= {"native", "instrumented", "fused", "profile"}
    assert set(engine_registry()) == expected


# ----------------------------------------------------------------------
# Native scheduler: C switches processes, resumes their generators and
# runs their locks and barriers; one call runs the simulation
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native replay backend unavailable: "
           f"{native_unavailable_reason()}")


def _interleaver(config, streams, backend, probe=None):
    """``streams``: per-processor lists of pieces, each a packed chunk
    (a list of ints) or an event object -- or generator functions, for
    processes that need their events' responses."""
    from repro.core.system import MultiprocessorSystem
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import PackedChunk
    system = MultiprocessorSystem(config, instrumentation=probe)
    interleaver = TimingInterleaver(system, backend=backend)
    for pid, pieces in streams.items():
        interleaver.add_process(
            pid, pieces() if callable(pieces) else
            iter([PackedChunk(list(piece))
                  if isinstance(piece, list) else piece
                  for piece in pieces]))
    return system, interleaver


def _outcome(config, streams, backend, max_cycles=None, bin_width=None):
    """Everything observable about one run, errors included; with a
    ``bin_width``, under the standard probe and with its registry."""
    from repro.instrument import InstrumentationProbe
    probe = (InstrumentationProbe(bin_width=bin_width, record_events=False)
             if bin_width else None)
    system, interleaver = _interleaver(config, streams, backend, probe)
    error = None
    finish = 0
    try:
        finish = interleaver.run(max_cycles=max_cycles)
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    assert interleaver.engine_used == backend
    return {
        # (text, so that 4 and 4.0, or a missing key and a zero, differ)
        "metrics": probe and json.dumps(probe.registry.as_dict(),
                                        sort_keys=True),
        "error": error,
        "finish": finish,
        # (an abort leaves the clocks wherever the engine last stored them)
        "clocks": error or {pid: process.time for pid, process
                            in interleaver._processes.items()},
        "last_reference": [proc.finish_time for proc in system._procs],
        "events": interleaver.events_processed,
        "stats": system.stats(finish).as_dict(),
        "bus": (system.bus.transactions, system.bus.busy_cycles,
                system.bus.busy_until),
        "seq": interleaver._seq,
        # the containers a native run works on a copy of, as it leaves
        # them: who is still ready (an abort), which fills are in flight,
        # which stores are buffered (as multisets: heap layout is free)
        "ready": sorted(interleaver._heap),
        "fills": [dict(cluster.scc._inflight)
                  for cluster in system.clusters],
        "write_buffers": [[sorted(bank) for bank
                           in cluster.scc.interconnect._write_buffers]
                          for cluster in system.clusters],
        "sync": _sync_state(interleaver),
    }


def _sync_state(interleaver):
    """The locks, barriers and queues as a run leaves them, in dict
    order, and who is blocked since when, or finished."""
    return {
        "locks": [(lock_id, lock.holder, list(lock.waiters))
                  for lock_id, lock in interleaver._locks.items()],
        "barriers": [(barrier_id, list(waiting)) for barrier_id, waiting
                     in interleaver._barriers.items()],
        "queues": {queue_id: list(queue) for queue_id, queue
                   in interleaver._queues.items()},
        "processes": {pid: (process.blocked,
                            process.blocked and process.block_start,
                            process.finished, process.in_heap)
                      for pid, process in interleaver._processes.items()},
    }


@needs_native
class TestNativeScheduler:
    def test_reentry_budget_on_a_32_process_point(
            self, monkeypatch, application="barnes_hut"):
        """A quick paper application on 8p/8KB: ``_native.run`` is
        entered once, and its returns to python -- ``engine_returns``, by
        the reasons python used to be needed for -- stay under 0.5% of
        the events (Barnes-Hut handed back 9,456 times per 215,869
        events and Cholesky 172,842 per 388,275 while python resumed the
        generators and ran the sync handlers; the python scheduler frame
        before that took 78%: one per process switch)."""
        from types import SimpleNamespace
        from repro.trace.engine import native

        real = native.load()
        calls = []

        def counting_run(ctx):
            calls.append(1)
            return real.run(ctx)

        # (Barnes-Hut relocates its force plan with the same extension)
        monkeypatch.setattr(native, "_mod", SimpleNamespace(
            setup=real.setup, run=counting_run, release=real.release,
            force_words=real.force_words))
        interleaver = _quick_8p(application, "native")
        interleaver.run()
        assert interleaver.engine_used == "native"
        returns = interleaver.engine_returns
        assert set(returns) == {"refill", "sync", "object"}
        # one more call than hand-backs: the one that finds the heap empty
        assert len(calls) == sum(returns.values()) + 1
        assert sum(returns.values()) < 0.005 * interleaver.events_processed

    @pytest.mark.parametrize("application", ["mp3d", "cholesky"])
    def test_reentry_budget_on_the_other_grids(self, monkeypatch,
                                               application):
        self.test_reentry_budget_on_a_32_process_point(monkeypatch,
                                                       application)

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
        # process 1 is left ready; its first fill and process 0's were
        # never forgotten
        assert native["ready"] == [(1105, 6, 1)]
        assert native["fills"] == [{0: 100, 8: 104}]
        assert native == _outcome(config, streams, "python",
                                  max_cycles=300)

    def test_exception_in_read_miss_flushes_deltas_once(self, monkeypatch):
        """A python frame that raises under ``_native.run`` mid-run: C's
        deltas -- the miss path's included, it counts everything there
        now -- are flushed exactly once, leaving what the reference loop,
        which counts as it goes, has at the same failure -- and so are
        C's ready heap and fill words, to the containers they came from.
        The fault sits in the icache refill, the one callback the data
        path has left; a fetch that hits in C's inline icache never
        reaches it."""
        from repro.core.config import SystemConfig
        from repro.core.system import MultiprocessorSystem
        from repro.trace.packed import (OP_COMPUTE, OP_IFETCH, OP_READ,
                                        OP_WRITE)
        config = SystemConfig(clusters=2, processors_per_cluster=2,
                              scc_size=1024, model_icache=True,
                              icache_size=1024)
        streams = {pid: [[OP_IFETCH, 0, 4, OP_WRITE, 64 * pid,
                          OP_COMPUTE, 9, OP_READ, 64 * pid],
                         [OP_IFETCH, 0, 4, OP_READ, 4096 + 64 * pid,
                          OP_IFETCH, 4096 * (pid == 1), 2, OP_COMPUTE, 1]]
                   for pid in range(4)}
        real = MultiprocessorSystem.ifetch

        def ifetch(self, proc, addr, count, now):
            if addr == 4096:
                raise KeyError("injected refill failure")
            return real(self, proc, addr, count, now)

        monkeypatch.setattr(MultiprocessorSystem, "ifetch", ifetch)
        native = _outcome(config, streams, "native")
        assert native["error"] == ("KeyError", "'injected refill failure'")
        assert native["stats"]["scc"][0]["read_misses"] > 0
        # processes 2 and 3 are left ready, four fills in flight
        assert [pid for _, _, pid in native["ready"]] == [2, 3]
        assert sorted(map(len, native["fills"])) == [2, 2]
        assert native == _outcome(config, streams, "python")

    @pytest.mark.parametrize("tape", [
        [99, 0],
        [OP_READ_SPAN, 0, 64, 0],
        [OP_READ, 0, OP_WRITE_SPAN, 0, 64, -16],
    ])
    def test_error_tapes_match_the_python_loop(self, tape):
        """Same exception, same message, same partial accounting; a
        non-positive span stride used to spin C to ``max_cycles``."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)
        streams = {0: [tape], 1: [[OP_READ, 256]]}
        native = _outcome(config, streams, "native", max_cycles=10_000)
        assert native["error"][0] == "ValueError"
        assert native == _outcome(config, streams, "python",
                                  max_cycles=10_000)

    def test_a_miss_never_reenters_python(self):
        """Quick Barnes-Hut 8p/8KB: no ``repro.core.coherence`` frame is
        entered anywhere in a native run (75,375 read misses and 2,495
        writes called back when the protocol was python's alone, and
        5,133 event objects went through ``_dispatch`` when python
        executed them), and ``_native.run`` returns once, at the end: C
        resumes the generators and runs the locks and barriers (7,152
        refills, 2,272 sync handlers and 32 first schedulings came back
        to python before it did)."""
        import repro.core.coherence as coherence
        interleaver, frames = _profiled_native_run(
            "barnes_hut",
            lambda code: code.co_filename == coherence.__file__)
        assert frames == {"under_c": 0, "elsewhere": 0}
        assert interleaver.engine_returns == {
            "refill": 0, "sync": 0, "object": 0}

    def test_neither_does_telling_the_probe(self):
        """The same point under the standard probe: the same (no)
        hand-backs, and no ``repro.instrument.probes`` frame at all while
        the run is C's -- the generators run under ``_native.run`` and
        tell no probe, C bins every memory event, every lock operation's
        busy span and every sync stall.  What runs afterwards is the one
        ``absorb`` that folds the bins in, and the registry is the
        reference loop's."""
        import repro.instrument.probes as probes
        probe = probes.InstrumentationProbe(record_events=False)
        entered = set()

        def counted(code):
            if code.co_filename == probes.__file__:
                entered.add(code.co_name)
                return True
            return False

        interleaver, frames = _profiled_native_run("barnes_hut", counted,
                                                   probe)
        assert frames["under_c"] == 0
        assert entered == {"absorb", "_conflict_timeline", "_wb_timeline",
                           "_proc_timeline"}
        assert interleaver.engine_returns == {
            "refill": 0, "sync": 0, "object": 0}
        counters = probe.registry.counters
        assert counters["bank_accesses"] == \
            counters["cache_hits"] + counters["cache_misses"] > 100_000
        assert sum(timeline.total() for name, timeline
                   in probe.registry.matching("proc")
                   if name.endswith(".sync")) > 100_000
        reference = probes.InstrumentationProbe(record_events=False)
        _quick_8p("barnes_hut", "python", reference).run()
        assert json.dumps(probe.registry.as_dict(), sort_keys=True) == \
            json.dumps(reference.registry.as_dict(), sort_keys=True)

    @pytest.mark.parametrize("application", ["barnes_hut", "cholesky"])
    def test_data_access_never_runs_in_a_native_run(self, application):
        """``MultiprocessorSystem.data_access`` is the reference loop's
        alone: Barnes-Hut's lock-racing tree inserts and Cholesky's
        task-queue phases yield their references as objects, and not one
        of them is executed by python."""
        from repro.core.system import MultiprocessorSystem
        data_access = MultiprocessorSystem.data_access.__code__
        interleaver, frames = _profiled_native_run(
            application, lambda code: code is data_access)
        assert sum(frames.values()) == 0


def _quick_8p(application, backend, probe=None):
    """A quick-profile paper application on the 8p/8KB machine, ready
    to run."""
    from repro.core.config import SystemConfig
    from repro.experiments.spec import PROFILES
    from repro.simulation import build_system
    from repro.trace.interleave import TimingInterleaver

    profile = PROFILES["quick"]
    config = SystemConfig.paper_parallel(
        8, 8 * 1024 // profile.ladder_scale)
    interleaver = TimingInterleaver(build_system(config, probe),
                                    backend=backend)
    processes = getattr(profile, application)().processes(config)
    for pid, generator in processes.items():
        interleaver.add_process(pid, generator)
    return interleaver


def _profiled_native_run(application, counted, probe=None):
    """Run ``_quick_8p`` on the native engine under ``sys.setprofile``;
    counts the python frames whose code object ``counted`` accepts,
    entered while ``_native.run`` was on the C stack (``under_c``: the
    generators' bodies and whatever they call) and ``elsewhere``."""
    import sys
    from repro.trace.engine import native

    run_c = native.load().run
    frames = {"under_c": 0, "elsewhere": 0}
    in_c = [False]

    def profiler(frame, event, arg):
        if event == "call":
            if counted(frame.f_code):
                frames["under_c" if in_c[0] else "elsewhere"] += 1
        elif arg is run_c:
            in_c[0] = event == "c_call"

    interleaver = _quick_8p(application, "native", probe)
    sys.setprofile(profiler)
    try:
        interleaver.run()
    finally:
        sys.setprofile(None)
    assert interleaver.engine_used == "native"
    return interleaver, frames


@needs_native
class TestNativeEligibility:
    """Which probes the native engine can stand in for: none, and
    exactly the standard one without its event log."""

    @staticmethod
    def _engine_used(probe=None, observer=None):
        from repro.core.config import SystemConfig
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        from repro.trace.packed import PackedChunk
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=512)
        system = MultiprocessorSystem(config, instrumentation=probe)
        interleaver = TimingInterleaver(system, observer=observer,
                                        backend="native")
        interleaver.add_process(
            0, iter([PackedChunk([OP_READ, 0, OP_COMPUTE, 3])]))
        interleaver.run()
        return interleaver.engine_used

    def test_no_probe_and_the_standard_probe_run_native(self):
        from repro.instrument import InstrumentationProbe
        assert self._engine_used() == "native"
        probe = InstrumentationProbe(record_events=False)
        assert self._engine_used(probe) == "native"
        assert probe.registry.counters["cache_misses"] == 1

    def test_everything_that_needs_the_calls_keeps_the_reference_loop(self):
        from repro.instrument import InstrumentationProbe, NullProbe
        from repro.trace.racecheck import RaceDetector

        class Subclass(InstrumentationProbe):
            pass

        assert self._engine_used(InstrumentationProbe()) == "python"
        assert self._engine_used(Subclass(record_events=False)) == "python"
        assert self._engine_used(NullProbe()) == "python"   # duck-typed
        assert self._engine_used(observer=RaceDetector()) == "python"


# ----------------------------------------------------------------------
# Native miss path: directed tapes against the reference protocol code
# ----------------------------------------------------------------------

A, B = 0, 1024      # two tags of one SCC slot (64 lines of 16 bytes)


def _coherence_tapes():
    """name -> (streams, check): what each tape is for, asserted on the
    reference loop's statistics so a tape that stops exercising its case
    fails rather than passes vacuously.  Processors 0-1 share cluster 0,
    2-3 cluster 1."""
    from repro.trace.events import Read

    def scc(outcome, cluster):
        return outcome["stats"]["scc"][cluster]

    return {
        # cluster 1's write steals A; B then refills A's slot; the
        # re-read of A is still an invalidation miss
        "lost-line-remissed-after-slot-refill": (
            {0: [[OP_READ, A, OP_COMPUTE, 300, OP_READ, B,
                  OP_COMPUTE, 300, OP_READ, A]],
             2: [[OP_COMPUTE, 150, OP_WRITE, A]]},
            lambda out: scc(out, 0)["coherence_read_misses"] == 1
            and scc(out, 0)["evictions"] == 1),
        # processor 1 merges with the fill (lands at 100) and, at 101,
        # forgets it; processor 0, also at 101, arrives after that.  (The
        # scheduler issues accesses in clock order, so "earlier clock,
        # later arrival" can only be a tie.)
        "merge-with-one-in-flight-fill": (
            {0: [[OP_READ, A, OP_READ, A, OP_COMPUTE, 50, OP_READ, A]],
             1: [[OP_COMPUTE, 5, OP_READ, A, OP_READ, A]]},
            lambda out: scc(out, 0)["read_misses"] == 1
            and out["clocks"] == {0: 154, 1: 102}),
        # the writer kills the fill under way: the cluster-mate's read
        # misses again instead of merging, and B finds no stale entry
        "invalidate-a-line-in-flight": (
            {0: [[OP_READ, A]],
             1: [[OP_COMPUTE, 20, OP_READ, A, OP_READ, B]],
             2: [[OP_COMPUTE, 10, OP_WRITE, A]]},
            lambda out: scc(out, 0)["read_misses"] == 3
            and scc(out, 0)["coherence_read_misses"] == 1
            and scc(out, 1)["invalidations_sent"] == 1),
        # fetch of B holds the bus 201-205, A's write-back 205-209 (it
        # is requested at 201, not at the fill): cluster 1 waits 7
        "dirty-victim-write-back-behind-the-fetch": (
            {0: [[OP_WRITE, A, OP_COMPUTE, 200, OP_READ, B]],
             2: [[OP_COMPUTE, 202, OP_READ, 2048]]},
            lambda out: scc(out, 0)["writebacks"] == 1
            and scc(out, 1)["bus_wait_cycles"] == 7),
        # cluster 1's fetch holds the bus 199-203, the upgrade (at 200)
        # 203-205, the write miss (at 201) 205-209: only the miss counts
        # its wait.  The last pair is a line nobody else holds: a second
        # upgrade under MSI, EXCLUSIVE's silent one under MESI
        "upgrade-vs-write-miss-bus-accounting": (
            {0: [[OP_READ, A, OP_COMPUTE, 99, OP_WRITE, A,
                  OP_WRITE, 4096 + 16, OP_COMPUTE, 200,
                  OP_READ, 2048 + 32, OP_WRITE, 2048 + 32]],
             2: [[OP_COMPUTE, 50, OP_READ, A, OP_COMPUTE, 48,
                  OP_READ, 512]]},
            lambda out: scc(out, 0)["upgrades"] == 2
            and scc(out, 0)["write_misses"] == 1
            and scc(out, 0)["invalidations_sent"] == 1
            and scc(out, 0)["bus_wait_cycles"] == 4
            and out["bus"] == (7, 24, 505)),
        # C fetch at 100, a fetch yielded as an object at 101, python's
        # icache refill at 102, C fetch at 103: each queues behind the
        # last (the tape's name dates from when python ran the object too)
        "python-between-two-c-stints-sees-the-bus": (
            {0: [[OP_READ, A], Read(B + 16), [OP_COMPUTE, 1]],
             1: [[OP_COMPUTE, 102, OP_IFETCH, 0, 1]],
             2: [[OP_COMPUTE, 100, OP_READ, 512]],
             3: [[OP_COMPUTE, 103, OP_READ, 768]]},
            lambda out: out["bus"] == (5, 20, 116)
            and scc(out, 0)["bus_wait_cycles"] == 3
            and scc(out, 1)["bus_wait_cycles"] == 9),
    }


@needs_native
@pytest.mark.parametrize("protocol", ["msi", "mesi"])
@pytest.mark.parametrize("name", sorted(_coherence_tapes()))
def test_native_miss_path_matches_the_reference_protocol(name, protocol):
    from repro.core.config import SystemConfig
    streams, check = _coherence_tapes()[name]
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024, protocol=protocol,
                          model_icache=True, icache_size=1024)
    reference = _outcome(config, streams, "python")
    assert reference["error"] is None
    if protocol == "msi":
        assert check(reference), reference
    assert _outcome(config, streams, "native") == reference


def _probed_tapes():
    """The directed tapes again, for the probed run, plus one whose
    spans straddle bins: at ``bin_width=4`` processor 0's 9-cycle compute
    (cycles 3-12) crosses two boundaries, and three misses queue behind
    its fetch (granted at 12) -- the last, a write that first loses a
    cycle to a bank conflict, waits 14-24 and kills cluster 0's copy of
    A, still in flight, at its grant."""
    def bins(outcome, name):
        timelines = json.loads(outcome["metrics"])["timelines"]
        return timelines[name]["bins"]

    tapes = _coherence_tapes()
    tapes["spans-straddling-bin-boundaries"] = (
        {0: [[OP_COMPUTE, 3, OP_COMPUTE, 9, OP_READ, A]],
         1: [[OP_COMPUTE, 13, OP_READ, B + 16]],
         2: [[OP_COMPUTE, 13, OP_READ, 512]],
         3: [[OP_COMPUTE, 13, OP_WRITE, A]]},
        lambda out: bins(out, "proc0.busy") == [4.0, 4.0, 4.0, 1.0]
        and bins(out, "bus.wait") == [0.0, 0.0, 0.0, 8.0, 8.0, 4.0]
        and bins(out, "bus.invalidations") == [0.0] * 6 + [1.0]
        and bins(out, "cluster1.bank0.conflict") == [0.0, 0.0, 0.0, 1.0]
        and len(bins(out, "proc0.memory")) == 29)
    return tapes


@needs_native
@pytest.mark.parametrize("protocol", ["msi", "mesi"])
@pytest.mark.parametrize("name", sorted(_probed_tapes()))
def test_native_timelines_match_the_reference_probe(name, protocol):
    """Under the standard probe both engines leave the same registry,
    counter for counter and bin for bin, and the timing they leave does
    not know a probe was there.  "python-between-two-c-stints" is the
    merge: its icache refill reaches the probe through the python
    objects, called back from the run C bins the rest of."""
    from repro.core.config import SystemConfig
    streams, check = _probed_tapes()[name]
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024, protocol=protocol,
                          model_icache=True, icache_size=1024)
    reference = _outcome(config, streams, "python", bin_width=4)
    assert reference["error"] is None
    if protocol == "msi":
        assert check(reference), reference
    probed = _outcome(config, streams, "native", bin_width=4)
    assert probed == reference
    unprobed = _outcome(config, streams, "native")
    assert dict(probed, metrics=None) == unprobed


@needs_native
def test_max_cycles_abort_leaves_the_same_partial_registry():
    """The abort tape of ``TestNativeScheduler``, probed: what C had
    binned when the limit hit is folded in on the way out, and equals
    what the reference loop's callbacks had recorded by then."""
    from repro.core.config import SystemConfig
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=1024)
    streams = {0: [[OP_READ, 0, OP_COMPUTE, 500, OP_READ, 64]],
               1: [[OP_READ, 128, OP_COMPUTE, 1000, OP_READ, 256]]}
    native = _outcome(config, streams, "native", max_cycles=300,
                      bin_width=64)
    assert native["error"] == ("RuntimeError",
                               "simulation exceeded 300 cycles")
    counters = json.loads(native["metrics"])["counters"]
    assert counters["cache_misses"] == 2 and "cache_hits" not in counters
    assert native == _outcome(config, streams, "python", max_cycles=300,
                              bin_width=64)


@needs_native
def test_a_negative_clock_cannot_index_before_the_bins():
    """A hostile tape: the reference loop refuses negative compute
    cycles; C runs them and the clock goes backwards.  The bin buffers
    are indexed by the clock, so the probed engine must refuse too
    rather than write before them (ASan watches this test in CI)."""
    from repro.core.config import SystemConfig
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=1024)
    streams = {0: [[OP_COMPUTE, -50, OP_READ, 0]]}
    reference = _outcome(config, streams, "python", bin_width=4)
    assert reference["error"] == ("ValueError",
                                  "compute cycles must be non-negative")
    native = _outcome(config, streams, "native", bin_width=4)
    assert native["error"] == ("ValueError",
                               "cycle outside the timeline range")


# ----------------------------------------------------------------------
# Directed scheduling tapes: event objects as one-event chunks, wake-ups
# onto the ready heap, the task-queue events and their responses
# ----------------------------------------------------------------------

def _scheduling_tapes():
    """name -> (config overrides, streams, check); ``check`` is asserted
    on the reference loop's outcome, so a tape that stops exercising its
    case fails rather than passes vacuously."""
    from repro.trace.events import (Barrier, Compute, Ifetch, LockAcquire,
                                    LockRelease, Read, TaskDequeue,
                                    TaskEnqueue, Write)
    from repro.trace.packed import (OP_BARRIER, OP_LOCK_ACQ, OP_LOCK_REL,
                                    PackedChunk)

    def dequeuer():
        # The refilled chunk's miss runs ~100 cycles past the heap top:
        # the dequeue must wait its turn behind processor 1's enqueue at
        # 50 (the Cholesky shape: a task's chunk, then the next task).
        yield PackedChunk([OP_READ, A])
        item = yield TaskDequeue(7)
        yield PackedChunk([OP_COMPUTE, 1000 if item == 42 else 1])
        assert (yield TaskDequeue(7)) is None       # a poll, twice over
        assert (yield TaskDequeue(8)) is None
        yield Read(A + 16)

    def enqueuer():
        yield Compute(50)
        yield TaskEnqueue(7, 42)
        yield TaskEnqueue(9, "never taken")
        yield Write(B)

    icache_objects = {
        0: [Compute(0), Ifetch(0, 4), Read(A), Compute(0), Ifetch(0, 4),
            Ifetch(4096, 40), Compute(0)],
        1: [Ifetch(64, 2), Compute(0), [OP_COMPUTE, 0], Write(A),
            Ifetch(64, 2)],
    }
    return {
        "dequeue-right-after-a-refill-that-ran-ahead": (
            {}, {0: dequeuer, 1: enqueuer},
            lambda out: out["clocks"][0] > 1000),
        # every arrival but the last blocks; the last one wakes itself
        # along with the others, and is found scheduled by its own event
        # -- as an object on processors 0-1, packed on 2-3; then a lock
        # handed from holder to waiter, objects again
        "barrier-whose-last-arrival-is-the-current-process": (
            {}, {0: [Compute(30), Barrier(0, 4), LockAcquire(5), Write(A),
                     LockRelease(5)],
                 1: [Compute(10), Barrier(0, 4), LockAcquire(5), Write(A),
                     LockRelease(5), Barrier(1, 1), Read(B)],
                 2: [[OP_COMPUTE, 20, OP_BARRIER, 0, 4, OP_LOCK_ACQ, 5,
                      OP_READ, A, OP_LOCK_REL, 5]],
                 3: [[OP_COMPUTE, 40, OP_BARRIER, 0, 4], Read(512)]},
            lambda out: out["error"] is None
            and sum(proc["sync_stall_cycles"]
                    for proc in out["stats"]["processors"]) > 60),
        # eight processors leave one barrier on one clock and miss on
        # eight lines of one bank: the wake-ups reach the heap tied,
        # ``seq`` alone orders them, and the bus queue shows the order
        "tied-clocks-across-a-mailbox-drain": (
            {"clusters": 4},
            {pid: [Compute(7), Barrier(0, 8), Read(4096 * pid),
                   [OP_BARRIER, 1, 8, OP_READ, 4096 * pid + 1024],
                   Compute(3)] for pid in range(8)},
            lambda out: len(set(out["clocks"].values())) == 8),
        "compute-0-and-ifetch-objects-no-icache": (
            {"model_icache": False}, icache_objects,
            lambda out: out["events"] == 12),
        "compute-0-and-ifetch-objects-inline-icache": (
            {}, icache_objects,
            lambda out: out["stats"]["icache_misses"] == 7),
        # one line of 1024 bytes: no index mask, every fetch is python's
        "compute-0-and-ifetch-objects-python-icache": (
            {"icache_line_size": 1024}, icache_objects,
            lambda out: out["stats"]["icache_misses"] == 3),
    }


@needs_native
@pytest.mark.parametrize("name", sorted(_scheduling_tapes()))
def test_native_scheduling_matches_the_reference_loop(name):
    """Message, clocks, ``_seq``, events, statistics, what is left ready
    and in flight: the whole outcome."""
    from repro.core.config import SystemConfig
    overrides, streams, check = _scheduling_tapes()[name]
    config = SystemConfig(**{
        "clusters": 2, "processors_per_cluster": 2, "scc_size": 1024,
        "model_icache": True, "icache_size": 1024, **overrides})
    reference = _outcome(config, streams, "python")
    assert reference["error"] is None
    assert check(reference), reference
    assert _outcome(config, streams, "native") == reference
    assert _outcome(config, streams, "native", bin_width=4) == \
        _outcome(config, streams, "python", bin_width=4)


def _sync_error_tapes():
    """name -> (streams, error): misuse of the locks, barriers and
    queues, a deadlock, and a generator that fails -- the exception the
    reference loop raises, and (compared by the test) everything it
    leaves behind."""
    from repro.trace.events import (Barrier, Compute, LockAcquire,
                                    LockRelease, Read, TaskEnqueue)
    from repro.trace.packed import (OP_BARRIER, OP_LOCK_ACQ, OP_LOCK_REL,
                                    PackedChunk)

    def failing():
        yield PackedChunk([OP_READ, A, OP_LOCK_ACQ, 4])
        yield Compute(300)      # long enough for 2 to queue up behind it
        raise KeyError("the workload's own bug")

    bystander = [[OP_READ, 256, OP_COMPUTE, 40, OP_WRITE, 256]]
    return {
        "release-of-a-lock-never-taken": (
            {0: [[OP_COMPUTE, 5, OP_LOCK_REL, 3]], 1: bystander},
            ("SyncProtocolError",
             "process 0 released lock 3 it does not hold")),
        "release-of-a-lock-someone-else-holds": (
            {0: [[OP_COMPUTE, 50], LockRelease(3)],
             1: [LockAcquire(3), [OP_COMPUTE, 200, OP_LOCK_REL, 3]]},
            ("SyncProtocolError",
             "process 0 released lock 3 it does not hold")),
        "barrier-past-its-count": (
            {0: [[OP_BARRIER, 6, 3]], 1: [Compute(10), Barrier(6, 3)],
             2: [[OP_COMPUTE, 20, OP_BARRIER, 6, 1]], 3: bystander},
            ("SyncProtocolError", "barrier 6 exceeded its count 1")),
        "barrier-count-below-one": (
            {0: [[OP_READ, A, OP_BARRIER, 2, 0]], 1: bystander},
            ("SyncProtocolError", "barrier count must be >= 1")),
        "enqueue-of-none": (
            {0: [Compute(7), TaskEnqueue(5, 1), TaskEnqueue(5, None)],
             1: bystander},
            ("SyncProtocolError", "process 0 enqueued None on queue 5; "
                                  "None is the empty-queue response")),
        "yield-of-something-else": (
            {0: [[OP_READ, A], ("read", B)], 1: bystander},
            ("TypeError",
             "process 0 yielded ('read', 1024), not a trace event")),
        # 0 and 1 each hold what the other wants; 2 waits behind 1, and 3
        # at a barrier nobody else reaches
        "deadlock": (
            {0: [[OP_LOCK_ACQ, 8, OP_COMPUTE, 30, OP_LOCK_ACQ, 9]],
             1: [LockAcquire(9), Compute(30), LockAcquire(8)],
             2: [[OP_COMPUTE, 90, OP_LOCK_ACQ, 8]],
             3: [Read(512), Barrier(1, 2)]},
            ("DeadlockError", "processes [0, 1, 2, 3] blocked forever "
                              "(locks={8: 0, 9: 1})")),
        "generator-that-raises": (
            {0: failing, 1: bystander,
             2: [[OP_COMPUTE, 150, OP_LOCK_ACQ, 4]]},
            ("KeyError", '"the workload\'s own bug"')),
    }


@needs_native
@pytest.mark.parametrize("name", sorted(_sync_error_tapes()))
def test_native_sync_errors_match_the_reference_loop(name):
    """Type, message, partial accounting, who is left ready, blocked and
    queued where: the whole outcome, probed and not."""
    from repro.core.config import SystemConfig
    streams, error = _sync_error_tapes()[name]
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024)
    reference = _outcome(config, streams, "python")
    assert reference["error"] == error
    assert _outcome(config, streams, "native") == reference
    assert _outcome(config, streams, "native", bin_width=4) == \
        _outcome(config, streams, "python", bin_width=4)


@needs_native
def test_an_operand_beyond_int64_raises_before_any_accounting():
    """An event object is packed before C sees it, so an address no
    ``int64`` holds is refused up front: nothing counted, nothing
    claimed.  The reference loop, working in python ints, gets as far
    as the tag array before the same ``OverflowError``."""
    from repro.core.config import SystemConfig
    from repro.trace.events import Read
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=1024)
    streams = {0: [[OP_COMPUTE, 3], Read(1 << 80)], 1: [[OP_READ, 256]]}
    native = _outcome(config, streams, "native")
    reference = _outcome(config, streams, "python")
    assert native["error"][0] == reference["error"][0] == "OverflowError"
    assert native["events"] == 2        # the compute, processor 1's read
    assert native["stats"]["scc"][0]["reads"] == 1
    assert native["bus"] == (1, 4, 4)
    assert reference["events"] == 3 and reference["bus"] == (2, 8, 8)
    assert native["ready"] == reference["ready"] == [(101, 4, 1)]
    assert native["seq"] == reference["seq"] == 4


# ----------------------------------------------------------------------
# State continuity: what one run leaves, the next one -- either
# engine's -- picks up
# ----------------------------------------------------------------------

def _two_runs(first, second):
    """One machine, two interleavers back to back; the first run ends
    with three fills in flight (two of one cluster) that the second --
    started on the cycle the first ended -- merges with, evicts,
    invalidates and, once landed, forgets."""
    from repro.core.config import SystemConfig
    from repro.core.system import MultiprocessorSystem
    from repro.trace.events import Read, Write
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import PackedChunk
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024)
    system = MultiprocessorSystem(config)
    stages = [
        (first, {0: [[OP_READ, A, OP_COMPUTE, 120, OP_WRITE, B + 16]],
                 1: [[OP_COMPUTE, 218], Write(512)],
                 2: [[OP_COMPUTE, 219, OP_WRITE, 768]],
                 3: [[OP_COMPUTE, 60]]}),
        (second, {0: [Read(B + 16), [OP_READ, 512, OP_COMPUTE, 200,
                                      OP_READ, B + 16]],
                  1: [[OP_READ, 512 + 1024, OP_READ, 512]],
                  2: [[OP_COMPUTE, 2, OP_READ, 768], Read(A),
                      [OP_COMPUTE, 300, OP_READ, 768]],
                  3: [[OP_WRITE, B + 16]]}),
    ]
    observed = []
    start = 0
    for backend, streams in stages:
        interleaver = TimingInterleaver(system, backend=backend)
        for pid, pieces in streams.items():
            interleaver.add_process(
                pid, iter([PackedChunk(piece) if isinstance(piece, list)
                           else piece for piece in pieces]),
                start_time=start)
        start = interleaver.run()
        assert interleaver.engine_used == backend
        observed.append({
            "finish": start,
            "fills": [dict(cluster.scc._inflight)
                      for cluster in system.clusters],
            "ready": sorted(interleaver._heap),
            "seq": interleaver._seq,
            "clocks": {pid: process.time for pid, process
                       in interleaver._processes.items()},
            "stats": system.stats(start).as_dict(),
        })
    system.check_invariants()
    return observed


def _store_runs(engines):
    """A store-heavy uniprocessor tape on one machine with two-entry
    write buffers: in one run (one engine), or cut in two with the
    second run started on the cycle the first ended (two engines).  The
    first half leaves bank 0's buffer full of stores still draining; the
    second stalls on them."""
    from repro.core.config import SystemConfig
    from repro.core.system import MultiprocessorSystem
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import PackedChunk
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=1024, write_buffer_depth=2)
    system = MultiprocessorSystem(config)
    buffers = system.clusters[0].scc.interconnect._write_buffers
    # lines 0, 4, 8, ... all live in bank 0; line 1 in bank 1
    halves = [[OP_WRITE, 0, OP_WRITE, 64, OP_WRITE, 128, OP_WRITE, 16],
              [OP_WRITE, 192, OP_WRITE, 256, OP_READ, 0, OP_WRITE, 64,
               OP_COMPUTE, 400, OP_WRITE, 320]]
    if len(engines) == 1:
        halves = [halves[0] + halves[1]]
    start = events = 0
    cuts = []
    for backend, half in zip(engines, halves):
        interleaver = TimingInterleaver(system, backend=backend)
        interleaver.add_process(0, iter([PackedChunk(half)]),
                                start_time=start)
        start = interleaver.run()
        assert interleaver.engine_used == backend
        events += interleaver.events_processed
        cuts.append((start, [sorted(bank) for bank in buffers],
                     system.clusters[0].scc.stats.write_buffer_stall_cycles))
    system.check_invariants()
    return cuts, {
        "events": events,
        "stats": system.stats(start).as_dict(),
        "bus": (system.bus.transactions, system.bus.busy_cycles,
                system.bus.busy_until),
        "fills": dict(system.clusters[0].scc._inflight),
        "write_buffers": cuts[-1][1],
        "lines": sorted(system.clusters[0].scc.array.resident_lines()),
    }


def _cut_run(engines, cut=150):
    """Six processes on one interleaver, run to the end: in one go (one
    engine), or cut by ``max_cycles=cut`` and carried on by the second
    engine.  At the cut 1 and 2 are queued on lock 1, which 0 holds
    across a long compute; 3 waits at the barrier; 5 holds lock 2; 0 and
    5 are ready, 0 half way through its chunk; and 4 is the one the
    limit stopped, between two elements of a span.  An aborted process
    is off the heap, as a blocked one is: the caller that carries on
    schedules it again."""
    from repro.core.config import SystemConfig
    from repro.trace.events import (Barrier, Compute, LockAcquire,
                                    LockRelease, Read, Write)
    from repro.trace.packed import (OP_BARRIER, OP_LOCK_ACQ, OP_LOCK_REL,
                                    PackedChunk)

    def holder():
        yield Compute(30)
        yield LockAcquire(2)
        yield Read(4096)
        yield Compute(300)
        yield PackedChunk([OP_LOCK_REL, 2, OP_BARRIER, 0, 6])

    config = SystemConfig(clusters=3, processors_per_cluster=2,
                          scc_size=1024)
    streams = {
        0: [[OP_LOCK_ACQ, 1, OP_WRITE, A, OP_COMPUTE, 400, OP_LOCK_REL, 1,
             OP_BARRIER, 0, 6, OP_READ, B]],
        1: [Compute(10), LockAcquire(1), Write(A), LockRelease(1),
            Barrier(0, 6), Read(A)],
        2: [[OP_COMPUTE, 20, OP_LOCK_ACQ, 1, OP_READ, A, OP_LOCK_REL, 1],
            [OP_BARRIER, 0, 6]],
        3: [[OP_COMPUTE, 50, OP_BARRIER, 0, 6, OP_WRITE, 512]],
        4: [[OP_READ_SPAN, 2048, 96, 16, OP_COMPUTE, 5, OP_BARRIER, 0, 6]],
        5: holder,
    }
    system, interleaver = _interleaver(config, streams, engines[0])
    at_the_cut = None
    if len(engines) == 2:
        with pytest.raises(RuntimeError, match=f"exceeded {cut} cycles"):
            interleaver.run(max_cycles=cut)
        assert interleaver.engine_used == engines[0]
        at_the_cut = dict(
            _sync_state(interleaver), ready=sorted(interleaver._heap),
            standing={pid: (process.time, process.chunk_pos,
                            process.chunk_sub)
                      for pid, process in interleaver._processes.items()})
        stopped, = [process for process in interleaver._processes.values()
                    if not (process.finished or process.blocked
                            or process.in_heap)]
        interleaver._push(stopped)
        interleaver.backend = engines[1]
    finish = interleaver.run()
    assert interleaver.engine_used == engines[-1]
    system.check_invariants()
    return at_the_cut, {
        "finish": finish,
        "events": interleaver.events_processed,
        "clocks": {pid: process.time for pid, process
                   in interleaver._processes.items()},
        "stats": system.stats(finish).as_dict(),
        "bus": (system.bus.transactions, system.bus.busy_cycles,
                system.bus.busy_until),
        "sync": _sync_state(interleaver),
        # (the push that schedules the stopped process again is one the
        # uncut run never makes)
        "seq": interleaver._seq - (len(engines) == 2),
    }


@needs_native
class TestStateContinuity:
    def test_fills_outstanding_across_two_runs(self):
        reference = _two_runs("python", "python")
        # not vacuous: three fills land after the boundary (222), and
        # the second run forgets cluster 1's and kills one of cluster 0's
        assert reference[0]["finish"] == 222
        assert reference[0]["fills"] == [{0: 100, 32: 318, 65: 326},
                                         {48: 322}]
        assert 48 not in reference[1]["fills"][1]
        assert reference[1]["stats"]["scc"][1]["invalidations_sent"] == 1
        for first, second in [("native", "python"), ("python", "native"),
                              ("native", "native")]:
            assert _two_runs(first, second) == reference, (first, second)

    def test_write_buffers_outstanding_across_two_runs(self):
        """``setup`` imports each bank's heap, ``release`` writes it
        back: whichever engine runs a half, the machine ends where one
        reference-loop run of the whole tape leaves it."""
        _, reference = _store_runs(["python"])
        for engines in [("python", "python"), ("python", "native"),
                        ("native", "python"), ("native", "native")]:
            cuts, outcome = _store_runs(engines)
            assert outcome == reference, engines
            # not vacuous: at the cut bank 0 is full of stores that
            # retire after it, bank 1 holds one more, and the second
            # half waits for them
            finish, buffers, stalled = cuts[0]
            assert (finish, buffers) == (101, [[104, 108], [200], [], []])
            assert cuts[1][2] > stalled > 0

    def test_locks_and_barriers_held_across_a_cut(self):
        """``setup`` imports the wait queues, the blocked flags and every
        process's place in its chunk, ``release`` writes them back after
        an abort too: a run cut by ``max_cycles`` and carried on by the
        other engine ends where one reference-loop run ends."""
        _, reference = _cut_run(["python"])
        assert _cut_run(["native"])[1] == reference
        cuts = {}
        for engines in [("python", "python"), ("python", "native"),
                        ("native", "python"), ("native", "native")]:
            cuts[engines], outcome = _cut_run(engines)
            assert outcome == reference, engines
        cut = cuts["python", "python"]
        assert all(other == cut for other in cuts.values())
        # not vacuous: the cut found what the docstring says it finds
        assert cut["locks"] == [(1, 0, [1, 2]), (2, 5, [])]
        assert cut["barriers"] == [(0, [3])]
        assert [pid for _, _, pid in cut["ready"]] == [0, 5]
        assert cut["standing"][0][1:] == (6, 0)     # before its release
        assert cut["standing"][4][1:] == (0, 32)    # two elements in
        assert cut["processes"][4] == (False, False, False, False)

    def test_setup_refuses_a_buffer_deeper_than_the_machine(self):
        """A bank's heap has ``write_buffer_depth`` words: a longer list
        is refused, a ``ValueError`` before anything is run or
        rewritten."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024, write_buffer_depth=2)
        system, interleaver = _interleaver(config, {0: [[OP_WRITE, 0]]},
                                           "native")
        buffers = system.clusters[0].scc.interconnect._write_buffers
        buffers[3].extend([40, 50, 60])
        with pytest.raises(ValueError, match="bank 3"):
            interleaver.run()
        assert buffers == [[], [], [], [40, 50, 60]]
        assert interleaver.events_processed == 0
        assert sorted(interleaver._heap) == [(0, 1, 0)]

    @pytest.mark.parametrize("bad, stale", [
        # line 64 shares index 0 with the resident line 0
        ({0: 500, 64: 500}, [64]),
        # nothing is resident at index 5
        ({0: 500, 5: 400}, [5]),
    ])
    def test_setup_refuses_a_dict_that_breaks_the_invariant(self, bad,
                                                            stale):
        """C keeps one fill per index: a dict with two lines of one
        index, or a line that is not resident, cannot be imported --
        ``check_invariants``' own complaint, before anything is run or
        rewritten."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024)
        system, first = _interleaver(config, {0: [[OP_READ, 0]]}, "native")
        first.run()
        inflight = system.clusters[0].scc._inflight
        assert inflight == {0: 100}
        inflight.clear()
        inflight.update(bad)
        from repro.trace.interleave import TimingInterleaver
        from repro.trace.packed import PackedChunk
        second = TimingInterleaver(system, backend="native")
        second.add_process(0, iter([PackedChunk([OP_READ, 0])]),
                           start_time=101)
        with pytest.raises(AssertionError) as refused:
            second.run()
        assert str(refused.value) == (
            f"cluster 0 tracks in-flight fills for non-resident lines "
            f"{stale} (fill-tracking leak)")
        assert inflight == bad
        assert second.events_processed == 0
        assert sorted(second._heap) == [(101, 1, 0)]
        with pytest.raises(AssertionError, match="fill-tracking leak"):
            system.check_invariants()


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
                            "ladder_release", "row_profile", "force_words"}

    def test_stale_in_place_build_falls_back_to_on_demand(self,
                                                          monkeypatch):
        """An ``_native`` left by an older ``build_ext --inplace`` must
        not be handed out: the previous ABI has the timing entry points
        by name and no ``row_profile`` for ``build_row_profile`` to
        call."""
        from types import SimpleNamespace
        import repro.trace.engine as engine
        from repro.trace.engine import native
        real = native.load()
        stale = SimpleNamespace(
            ABI_VERSION="5", __file__="old.so", setup=real.setup,
            run=real.run, release=real.release,
            ladder_setup=real.ladder_setup, ladder_drain=real.ladder_drain,
            ladder_release=real.ladder_release)
        assert native.NATIVE_VERSION == "10"
        assert native._stale_reason(stale) == (
            "stale extension old.so: ABI '5', need '10'")
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


# ----------------------------------------------------------------------
# The force-phase kernel: an entry point any caller reaches, so it
# checks everything before it writes a word
# ----------------------------------------------------------------------

def _force_args(**change):
    """A small relocation -- three bodies, two cells, two processors,
    body 1's walk empty -- with ``change`` applied to its arguments."""
    args = {
        # cell 1 accepted, cell 0 opened | | body 2, cell 1 accepted
        "visits": np.array([1 * 4 + 1, 0 * 4 + 2, 2 * 4 + 0, 1 * 4 + 1],
                           dtype=np.int32),
        "starts": np.array([0, 2, 2, 4]),
        "order": array("q", [2, 0, 1]),
        "owned": [1, 2],
        "body_address": np.array([1000, 2000, 3000]),
        "cell_address": np.array([50000, 60000]),
        # begin, end, then one per visit kind: (words, relative)
        "patterns": (((OP_READ, 0), (0, 1)), ((OP_WRITE, 8), (0, 1)),
                     ((OP_READ, 0, OP_COMPUTE, 5), (0, 1, 0, 0)),
                     ((OP_READ, 16), (0, 1)), ((OP_READ, 24), (0, 1))),
    }
    args.update(change)
    return tuple(args.values())


def _hostile(name, **change):
    return pytest.param(change, id=name)


@needs_native
class TestForceWords:
    def test_writes_each_processors_walks(self):
        from repro.trace.engine import native
        words = native.load().force_words(*_force_args())
        assert words == [
            array("q", [OP_READ, 3000, OP_READ, 3000, OP_COMPUTE, 5,
                        OP_READ, 60016, OP_WRITE, 3008]),
            array("q", [OP_READ, 1000, OP_READ, 60016, OP_READ, 50024,
                        OP_WRITE, 1008, OP_READ, 2000, OP_WRITE, 2008])]

    @pytest.mark.parametrize("change", [
        _hostile("visits-not-int32",
                 visits=np.arange(4)),
        _hostile("addresses-not-integers",
                 body_address=np.zeros(3)),
        _hostile("starts-one-short",
                 starts=np.array([0, 2, 2])),
        _hostile("starts-decrease",
                 starts=np.array([0, 3, 2, 4])),
        _hostile("starts-past-the-visits",
                 starts=np.array([0, 2, 2, 5])),
        _hostile("starts-before-the-visits",
                 starts=np.array([-1, 2, 2, 4])),
        _hostile("order-past-the-bodies", order=array("q", [3, 0, 1])),
        _hostile("order-negative", order=array("q", [-1, 0, 1])),
        _hostile("body-visit-past-its-table",
                 visits=np.array([5, 2, 12, 5],
                                                  dtype="int32")),
        _hostile("cell-visit-past-its-table",
                 visits=np.array([9, 2, 8, 5],
                                                  dtype="int32")),
        _hostile("negative-node",
                 visits=np.array([5, 2, -4, 5],
                                                  dtype="int32")),
        _hostile("kind-3",
                 visits=np.array([5, 3, 8, 5],
                                                  dtype="int32")),
        _hostile("owned-short", owned=[1, 1]),
        _hostile("owned-long", owned=[2, 2]),
        _hostile("owned-negative", owned=[-1, 4]),
        _hostile("four-patterns", patterns=(((1, 0), (0, 1)),) * 4),
        _hostile("pattern-flags-short", patterns=(((1, 0), (0,)),) * 5),
        _hostile("pattern-too-long",
                 patterns=(((1, 0) * 9, (0, 1) * 9),) * 5),
    ])
    def test_hostile_inputs_raise_value_error(self, change):
        from repro.trace.engine import native
        with pytest.raises(ValueError):
            native.load().force_words(*_force_args(**change))


@needs_native
def test_extension_compiles_warning_free(tmp_path):
    """``_native.c`` under ``-Wall -Wextra -Werror`` with the compiler the
    loader builds it with (which asks for no warnings, so a refactor
    could land one through tier 1; CI's ``engines`` job has the same
    gate)."""
    import shutil
    import subprocess
    import sysconfig
    from repro.trace.engine import native
    cc = native._compiler()
    if shutil.which(cc) is None:    # a prebuilt extension, no toolchain
        pytest.skip(f"no C compiler ({cc}) to build the extension with")
    result = subprocess.run(
        [cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         f"-I{sysconfig.get_paths()['include']}",
         str(native._source_path()), "-o", str(tmp_path / "_native.so")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_native_source_keeps_no_mutable_state_at_file_scope():
    """Two runs share nothing in ``_native.c`` but what the module's
    init interns once: a context owns everything else.  Cheap to hold
    now, and what running two contexts at once (ROADMAP item 3's
    GIL-free run) starts from.  Functions are defined with their name on
    a line of its own, so a ``static`` line that declares something is a
    variable; one inside a function would be indented."""
    import re
    from repro.trace.engine import native
    source = native._source_path().read_text()
    assert not re.findall(r"^[ \t]+static\b.*$", source, re.MULTILINE)
    declared = re.findall(r"^static\s+([^(\n]*?)(\w+)(?:\[\])?\s*(?:=|;)",
                          source, re.MULTILINE)
    mutable = {name for qualifiers, name in declared
               if "const" not in qualifiers.split()}
    assert mutable == {
        # interned at init, read-only afterwards
        "g_deque", "s_append", "s_popleft",
        # the module's own tables
        "methods", "moduledef"}
    assert len(declared) > len(mutable)     # (the const ones were seen)
