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

from repro.trace.engine import (BACKEND_CHOICES, backend_info,
                                engine_degradation, resolve_backend)
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN, OP_WRITE,
                                OP_WRITE_SPAN)


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
        assert resolve_backend("auto") == "native"
        assert resolve_backend("native") == "native"
        assert resolve_backend("auto") in backend_info("auto")["available"]
        assert engine_degradation("auto") is None
        assert engine_degradation("native") is None
        assert engine_degradation("python") is None

    def test_retired_numpy_name_is_an_unavailable_tier(self, monkeypatch):
        """The environment and a ``backend=`` argument (what
        ``bench/probes.py`` passes) may still name the removed tier;
        they run on python."""
        assert "numpy" not in BACKEND_CHOICES
        assert resolve_backend("numpy") == "python"
        monkeypatch.setenv("REPRO_ENGINE", "numpy")
        assert resolve_backend() == "python"
        assert backend_info()["resolved"] == "python"
        assert "removed" in engine_degradation()
        assert "reference loop" in engine_degradation()

    def test_python_is_always_available(self):
        assert backend_info()["available"] == ["native", "python"]
        assert BACKEND_CHOICES == ("auto", "python", "native")

    def test_backend_info_shape(self):
        from repro.trace.engine import native
        info = backend_info("auto")
        assert info == {"requested": "auto", "resolved": "native",
                        "available": ["native", "python"],
                        "native_version": native.NATIVE_VERSION,
                        "native_ladder": True}
        assert backend_info("python")["resolved"] == "python"


def test_differ_registry_covers_available_backends():
    """One extension carries every compiled entry point -- the run, the
    ladder, the row-profile kernel -- and each is diffed against the
    reference loop, with the oracle."""
    from repro.verify.differ import engine_registry
    assert list(engine_registry()) == ["oracle", "native", "fused",
                                       "profile"]


# ----------------------------------------------------------------------
# Native scheduler: C switches processes, resumes their generators and
# runs their locks and barriers; one call runs the simulation
# ----------------------------------------------------------------------

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


def _probe_fingerprint(probe):
    """The probe's counters and every series' bins, as text (so that 4
    and 4.0, or a missing key and a zero, differ); a keyed series maps
    ``str(key)`` to its bins."""
    return json.dumps({
        "bin_width": probe.bin_width,
        "counters": probe.counters,
        "bus_occupancy": probe.bus_occupancy.bins,
        "bus_wait": probe.bus_wait.bins,
        "bus_invalidations": probe.bus_invalidations.bins,
        **{name: {str(key): timeline.bins
                  for key, timeline in getattr(probe, name).items()}
           for name in ("bank_conflict", "write_buffer_depth", "proc")},
    }, sort_keys=True)


def _outcome(config, streams, backend, max_cycles=None, bin_width=None,
             prepare=None):
    """Everything observable about one run, errors included; with a
    ``bin_width``, under the standard probe (which only the reference
    loop runs) and with what it counted and binned;
    ``prepare(interleaver)`` edits the state at rest before the run."""
    from repro.instrument import InstrumentationProbe
    probe = (InstrumentationProbe(bin_width=bin_width, record_events=False)
             if bin_width else None)
    system, interleaver = _interleaver(config, streams, backend, probe)
    if prepare:
        prepare(interleaver)
    error = None
    finish = 0
    try:
        finish = interleaver.run(max_cycles=max_cycles)
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    assert interleaver.engine_used == backend
    return {
        "metrics": probe and _probe_fingerprint(probe),
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


class TestNativeScheduler:
    def test_reentry_budget_on_a_32_process_point(
            self, monkeypatch, application="barnes_hut"):
        """A quick paper application on 8p/8KB: ``_native.run`` is
        entered once, and does not return to python until the run is
        over (Barnes-Hut handed back 9,456 times per 215,869 events and
        Cholesky 172,842 per 388,275 while python resumed the generators
        and ran the sync handlers; the python scheduler frame before
        that took 78%: one per process switch)."""
        from types import SimpleNamespace
        from repro.trace.engine import native

        real = native.load()
        calls = []

        def counting_run(plan):
            calls.append(1)
            return real.run(plan)

        # (Barnes-Hut's and MP3D's processes are the extension's own)
        monkeypatch.setattr(native, "_mod", SimpleNamespace(
            run=counting_run, barnes_processes=real.barnes_processes,
            mp3d_processes=real.mp3d_processes))
        interleaver = _quick_8p(application, "native")
        interleaver.run()
        assert interleaver.engine_used == "native"
        assert len(calls) == 1

    @pytest.mark.parametrize("application", ["mp3d", "cholesky"])
    def test_reentry_budget_on_the_other_grids(self, monkeypatch,
                                               application):
        self.test_reentry_budget_on_a_32_process_point(monkeypatch,
                                                       application)

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

    def test_exception_in_a_generator_flushes_deltas_once(self):
        """A python frame that raises under ``_native.run`` mid-run -- a
        generator's body, the only python a run has left: C's deltas --
        the miss path's and the icache refills' included, it counts
        everything there now -- are flushed exactly once, leaving what the
        reference loop, which counts as it goes, has at the same failure
        -- and so are C's ready queue and fill words, to the containers
        they came from.  Processor 1 raises on the resume after C missed
        in its SCC and in its icache, with everyone else ready past it."""
        from repro.core.config import SystemConfig
        from repro.trace.packed import (OP_COMPUTE, OP_IFETCH, OP_READ,
                                        OP_WRITE, PackedChunk)
        config = SystemConfig(clusters=2, processors_per_cluster=2,
                              scc_size=1024, model_icache=True,
                              icache_size=1024)

        def process(pid):
            def generator():
                yield PackedChunk([OP_IFETCH, 0, 4, OP_WRITE, 64 * pid,
                                   OP_COMPUTE, 9, OP_READ, 64 * pid])
                yield PackedChunk([OP_IFETCH, 4096 * (pid == 1), 4,
                                   OP_READ, 4096 + 64 * pid,
                                   OP_COMPUTE, 500 * (pid != 1)])
                if pid == 1:
                    raise KeyError("injected workload failure")
                yield PackedChunk([OP_COMPUTE, 1])
            return generator

        streams = {pid: process(pid) for pid in range(4)}
        native = _outcome(config, streams, "native")
        assert native["error"] == ("KeyError", "'injected workload failure'")
        assert native["stats"]["scc"][0]["read_misses"] > 0
        assert native["stats"]["icache_misses"] == 5
        # processes 0, 2 and 3 are left ready, four fills in flight
        assert [pid for _, _, pid in native["ready"]] == [0, 2, 3]
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
        5,133 event objects were dispatched when python executed
        them).  (That ``_native.run`` returns once, at the end, is the
        re-entry-budget tests' count: 7,152 refills, 2,272 sync
        handlers and 32 first schedulings came back to python before C
        resumed the generators and ran the locks and barriers.)"""
        import repro.core.coherence as coherence
        _, frames = _profiled_native_run(
            "barnes_hut",
            lambda code: code.co_filename == coherence.__file__)
        assert frames == {"under_c": 0, "elsewhere": 0}

    @pytest.mark.parametrize("application", ["barnes_hut",
                                             "multiprogramming"])
    def test_the_reference_loop_builds_no_event_object(self, application):
        """The reference loop drains opcode words as C does: a packed
        stream -- Barnes-Hut's C processes, or a recorded multiprogramming
        tape (whose live processes yield event objects as well) -- runs
        on it without one event object built, where decoding the words
        back into objects built one per reference.  The hook does see the
        one built after the run."""
        import sys
        from repro.core.config import SystemConfig
        from repro.simulation import build_system, run_simulation
        from repro.trace.events import Read
        from repro.trace.interleave import TimingInterleaver
        from repro.trace.packed import EVENT_CODES
        from repro.trace.record import ReplayApplication, StreamRecorder
        from repro.workloads.barnes_hut import BarnesHut
        from repro.workloads.multiprog import MultiprogrammingWorkload
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)
        if application == "barnes_hut":
            workload = BarnesHut(n_bodies=32, steps=1)
        else:
            recorder = StreamRecorder(MultiprogrammingWorkload(
                instructions_per_app=4000, quantum_instructions=1500,
                scale=8))
            run_simulation(config, recorder)
            workload = ReplayApplication(recorder.streams)
        interleaver = TimingInterleaver(build_system(config),
                                        backend="python")
        for pid, generator in workload.processes(config).items():
            interleaver.add_process(pid, generator)
        inits = {cls.__init__.__code__ for cls in EVENT_CODES}
        built = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code in inits:
                built.append(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            interleaver.run()
            Read(0)
        finally:
            sys.setprofile(previous)
        assert interleaver.engine_used == "python"
        assert interleaver.events_processed > 5000
        assert built == [Read.__init__.__code__]

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


# ----------------------------------------------------------------------
# C's ready queue: one-cycle buckets over a window that starts at the
# clock of the last pop, and a heap for whatever falls outside it
# ----------------------------------------------------------------------

#: the window's width in cycles (``RQ_W`` in ``_native.c``)
WINDOW = 256


def _queue_model(config, streams, max_cycles=None):
    """The reference loop's schedule replayed through C's admission rule:
    a push lands in the window when ``base <= time < base + WINDOW``,
    ``base`` being the latest clock popped, and on the heap otherwise, as
    the entries ``add_process`` left do; a preempted process is pushed
    after the pop that follows it.  Returns every push as ``(kind, time,
    distance from base, half, joined a window bucket that held an entry
    already)`` -- ``kind`` is ``"wake"`` or ``"preempt"`` -- the clocks on
    which entries of both halves were ready at once, and what is left
    ready, by pid."""
    _, interleaver = _interleaver(config, streams, "python")
    ready = {pid: (time, "heap") for time, _, pid in interleaver._heap}
    log, waking = [], []
    advance, push, wake = (interleaver._advance, interleaver._push,
                           interleaver._wake)

    def logged_advance(process, limit):
        log.append(("pop", process.time, process.pid))
        return advance(process, limit)

    def logged_push(process):
        push(process)
        log.append(("wake" if waking else "preempt", process.time,
                    process.pid))

    def logged_wake(pid, resume):
        waking.append(pid)
        wake(pid, resume)
        waking.pop()

    interleaver._advance = logged_advance
    interleaver._push = logged_push
    interleaver._wake = logged_wake
    try:
        interleaver.run(max_cycles=max_cycles)
    except RuntimeError:
        pass
    base, pushes, ties, pending = 0, [], set(), None

    def land(kind, time, pid):
        half = "window" if base <= time < base + WINDOW else "heap"
        shared = half == "window" and (time, half) in ready.values()
        pushes.append((kind, time, time - base, half, shared))
        ready[pid] = (time, half)

    for kind, time, pid in log:
        if kind == "pop":
            halves = {"window": set(), "heap": set()}
            for clock, half in ready.values():
                halves[half].add(clock)
            ties |= halves["window"] & halves["heap"]
            assert ready.pop(pid)[0] == time
            base = max(base, time)
            if pending:
                land(*pending)
                pending = None
        elif kind == "preempt":
            pending = kind, time, pid
        else:
            land(kind, time, pid)
    if pending:
        land(*pending)
    return pushes, ties, ready


def _window_edges():
    """32 processes on 4 clusters, each a string of computes of 0, 1,
    ``WINDOW`` - 1, ``WINDOW``, ``WINDOW`` + 1 and 10 ``WINDOW`` cycles in
    its own rotation, each compute followed by a miss."""
    from repro.core.config import SystemConfig
    config = SystemConfig(clusters=4, processors_per_cluster=8,
                          scc_size=1024)
    lengths = [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 10 * WINDOW]
    streams = {}
    for pid in range(32):
        body = []
        for k in range(len(lengths)):
            body += [OP_COMPUTE, lengths[(pid + k) % len(lengths)],
                     OP_READ, 64 * ((7 * pid + k) % 48)]
        streams[pid] = [body[:12], body[12:]]
    return config, streams


def _is_heapq_list(heap):
    return all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))


class TestReadyQueue:
    def test_entries_across_the_window_edge_schedule_like_the_python_loop(
            self):
        config, streams = _window_edges()
        pushes, ties, _ = _queue_model(config, streams)
        # not vacuous: pushes land on both sides of the window's edge, and
        # entries of both halves are ready on one clock
        landed = {(distance, half) for _, _, distance, half, _ in pushes}
        assert {(WINDOW - 1, "window"), (WINDOW, "heap"),
                (WINDOW + 1, "heap")} <= landed
        assert ties
        native = _outcome(config, streams, "native")
        assert native["error"] is None
        assert native == _outcome(config, streams, "python")

    def test_a_push_one_window_past_a_tied_clock_waits_for_its_own(self):
        """Processes 0 and 1 are preempted onto clock 10, and 0 is popped
        there while process 2 falls behind: pushed at 266, a window past
        the base, the slot of the bucket 1 still waits in.  It belongs on
        the heap, not behind 1."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=4,
                              scc_size=1024)
        streams = {0: [[OP_COMPUTE, 10, OP_READ, 0]],
                   1: [[OP_COMPUTE, 10, OP_READ, 64]],
                   2: [[OP_COMPUTE, 10 + WINDOW, OP_READ, 128]]}
        pushes, _, _ = _queue_model(config, streams)
        assert pushes[:3] == [("preempt", 10, 10, "window", False),
                              ("preempt", 10, 10, "window", True),
                              ("preempt", 10 + WINDOW, WINDOW, "heap",
                               False)]
        native = _outcome(config, streams, "native")
        assert native["error"] is None
        assert native == _outcome(config, streams, "python")

    def test_an_abort_hands_back_both_halves_in_heap_order(self):
        """A run cut by ``max_cycles`` with entries in both halves hands
        them back sorted -- the write-back pops them in order -- which is a
        heapq list the reference loop carries on from; on the same
        objects a second run, either engine's, ends where an uncut one
        does."""
        config, streams = _window_edges()
        cut = 3000
        _, _, left = _queue_model(config, streams, max_cycles=cut)
        assert {half for _, half in left.values()} == {"window", "heap"}
        uncut = _outcome(config, streams, "python")
        at_the_cut = {}
        for engines in [("python", "python"), ("native", "native"),
                        ("native", "python")]:
            system, interleaver = _interleaver(config, streams, engines[0])
            with pytest.raises(RuntimeError,
                               match=f"exceeded {cut} cycles"):
                interleaver.run(max_cycles=cut)
            heap = list(interleaver._heap)
            assert _is_heapq_list(heap)
            at_the_cut[engines] = sorted(heap)
            stopped, = [process for process
                        in interleaver._processes.values()
                        if not (process.finished or process.blocked
                                or process.in_heap)]
            interleaver._push(stopped)
            interleaver.backend = engines[1]
            finish = interleaver.run()
            assert interleaver.engine_used == engines[1]
            assert (finish, interleaver.events_processed,
                    system.stats(finish).as_dict(),
                    interleaver._seq - 1) == \
                (uncut["finish"], uncut["events"], uncut["stats"],
                 uncut["seq"]), engines
        assert len(set(map(tuple, at_the_cut.values()))) == 1

    def test_a_woken_waiter_and_a_barrier_join_occupied_buckets(self):
        """Process 2 is preempted onto clock 54, where the lock process 0
        releases hands process 1 its turn; process 3 onto 78, where the
        barrier opens for 0, 1 and 2.  Each bucket hands its processes
        out in push order, and their misses queue on the bus in it."""
        from repro.core.config import SystemConfig
        from repro.trace.packed import OP_BARRIER, OP_LOCK_ACQ, OP_LOCK_REL
        config = SystemConfig(clusters=1, processors_per_cluster=4,
                              scc_size=1024)
        after = [OP_READ, 0, OP_WRITE, 64]
        streams = {
            0: [[OP_COMPUTE, 10, OP_LOCK_ACQ, 1, OP_COMPUTE, 20,
                 OP_LOCK_REL, 1, OP_BARRIER, 0, 3] + after],
            1: [[OP_COMPUTE, 12, OP_LOCK_ACQ, 1, OP_LOCK_REL, 1,
                 OP_BARRIER, 0, 3] + after],
            2: [[OP_COMPUTE, 54, OP_BARRIER, 0, 3] + after],
            3: [[OP_COMPUTE, 78] + after],
        }
        pushes, _, _ = _queue_model(config, streams)
        joined = [time for kind, time, _, half, shared in pushes
                  if kind == "wake" and shared]
        assert 54 in joined and 78 in joined
        native = _outcome(config, streams, "native")
        assert native["error"] is None
        assert native == _outcome(config, streams, "python")

    def test_a_waiter_woken_while_ready_raises_like_the_python_loop(self):
        """A state no run leaves: process 1 is ready and waits on the
        lock process 0 releases.  Waking it would make it ready twice --
        in C, link it into a bucket twice -- so both engines raise
        ``_push``'s error, with the same partial accounting."""
        from repro.core.config import SystemConfig
        from repro.trace.interleave import _Lock
        from repro.trace.packed import OP_LOCK_REL
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)

        def prepare(interleaver):
            lock = interleaver._locks[5] = _Lock()
            lock.holder = 0
            lock.waiters.append(1)

        streams = {0: [[OP_LOCK_REL, 5, OP_COMPUTE, 1]],
                   1: [[OP_COMPUTE, 30]]}
        native = _outcome(config, streams, "native", prepare=prepare)
        assert native["error"] == ("RuntimeError",
                                   "process 1 scheduled twice")
        assert native == _outcome(config, streams, "python",
                                  prepare=prepare)

    def test_a_lock_handed_to_its_releaser_schedules_it(self):
        """Another: process 0 waits on the lock it holds.  Its release
        hands the lock to itself and schedules it, and the reference
        loop stops running it there -- so does C, which would otherwise
        push it a second time when it falls behind."""
        from repro.core.config import SystemConfig
        from repro.trace.interleave import _Lock
        from repro.trace.packed import OP_LOCK_REL
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)

        def prepare(interleaver):
            lock = interleaver._locks[5] = _Lock()
            lock.holder = 0
            lock.waiters.append(0)

        streams = {0: [[OP_LOCK_REL, 5, OP_COMPUTE, 3, OP_LOCK_REL, 5,
                        OP_READ, 0]],
                   1: [[OP_COMPUTE, 10, OP_READ, 64]]}
        native = _outcome(config, streams, "native", prepare=prepare)
        assert native["error"] is None
        assert native == _outcome(config, streams, "python",
                                  prepare=prepare)


class TestIcacheRefills:
    """``MultiprocessorSystem.ifetch`` is the reference loop's alone: a
    native run installs the missing lines in the processor's icache and
    queues their refills on the bus itself (python refilled 3,105 times
    a pass of the ``uni_instrumented_warm`` bench shape while C called
    back)."""

    @pytest.fixture
    def no_python_refill(self, monkeypatch):
        from repro.core.system import MultiprocessorSystem

        def refused(*args):
            raise AssertionError("an icache was refilled by python")

        monkeypatch.setattr(MultiprocessorSystem, "ifetch", refused)

    @pytest.mark.parametrize("procs, paper_kb", [
        # the quick 2p multiprogramming row, live
        (2, (4, 8, 16, 32, 64, 128, 256, 512)),
        # what ``uni_instrumented_warm`` replays: one processor at 32 KB
        (1, (32,)),
    ], ids=["2p-row", "uni-32KB"])
    def test_a_native_run_never_calls_the_python_refill(
            self, no_python_refill, engines_used, procs, paper_kb):
        from repro.core.config import SystemConfig
        from repro.experiments.spec import PROFILES
        from repro.simulation import run_simulation
        profile = PROFILES["quick"]
        ladder = [kb * 1024 // profile.ladder_scale for kb in paper_kb]
        for size in ladder:
            result = run_simulation(
                SystemConfig.paper_multiprogramming(procs, size),
                profile.multiprogramming(), backend="native")
            assert result.stats.icache_misses > 0
        assert engines_used == ["native"] * len(ladder)

    @pytest.mark.parametrize("addr", [64, 68], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_run_refuses_a_fetch_of_no_instruction(self, addr, count):
        """``InstructionCache.fetch`` refuses it before anything is
        charged; so does C, on a machine that models an icache (one that
        does not charges the count as compute, on both engines)."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024, model_icache=True,
                              icache_size=1024)
        streams = {0: [[OP_READ, 0, OP_IFETCH, 0, 4, OP_IFETCH, addr,
                        count, OP_COMPUTE, 1]],
                   1: [[OP_IFETCH, 128, 8, OP_READ, 256]]}
        reference = _outcome(config, streams, "python")
        assert reference["error"] == ("ValueError",
                                      "must fetch at least one instruction")
        assert _outcome(config, streams, "native") == reference

    @pytest.mark.parametrize("addr", [64, 68], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_the_ladder_refuses_it_too(self, addr, count):
        """Two uniprocessor multiprogramming rungs: per-size replay on the
        reference loop raises at the fetch, and so does the fused pass."""
        from repro.core.config import SystemConfig
        from repro.trace.multiconfig import fused_ladder_results
        rungs = [SystemConfig.paper_multiprogramming(1, size)
                 for size in (4096, 8192)]
        tape = {0: [OP_IFETCH, 0, 4, OP_READ, 0, OP_IFETCH, addr, count,
                    OP_COMPUTE, 1]}
        for backend in ("python", "native"):
            with pytest.raises(ValueError,
                               match="^must fetch at least one instruction$"):
                fused_ladder_results(rungs, tape, backend=backend)


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
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        interleaver.run()
    finally:
        sys.setprofile(previous)
    assert interleaver.engine_used == "native"
    return interleaver, frames


class TestNativeEligibility:
    """The native engine stands in for no probe: an unprobed eligible
    machine runs it, and any probe keeps the reference loop, whose
    callbacks are the only code that records what a probe sees."""

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

    def test_an_unprobed_eligible_machine_runs_native(self):
        assert self._engine_used() == "native"

    def test_everything_that_needs_the_calls_keeps_the_reference_loop(self):
        from repro.instrument import InstrumentationProbe, NullProbe

        class Subclass(InstrumentationProbe):
            pass

        class AccessObserver:
            def on_access(self, pid, addr, is_write):
                pass

        assert self._engine_used(InstrumentationProbe()) == "python"
        standard = InstrumentationProbe(record_events=False)
        assert self._engine_used(standard) == "python"
        assert standard.counters["cache_misses"] == 1
        assert self._engine_used(Subclass(record_events=False)) == "python"
        assert self._engine_used(NullProbe()) == "python"   # duck-typed
        assert self._engine_used(observer=AccessObserver()) == "python"


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
        # a fetch at 100, one yielded as an object at 101, an icache
        # refill at 102, a fetch at 103: each queues behind the last
        "object-and-icache-refill-queue-between-two-misses": (
            {0: [[OP_READ, A], Read(B + 16), [OP_COMPUTE, 1]],
             1: [[OP_COMPUTE, 102, OP_IFETCH, 0, 1]],
             2: [[OP_COMPUTE, 100, OP_READ, 512]],
             3: [[OP_COMPUTE, 103, OP_READ, 768]]},
            lambda out: out["bus"] == (5, 20, 116)
            and scc(out, 0)["bus_wait_cycles"] == 3
            and scc(out, 1)["bus_wait_cycles"] == 9),
    }


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
    """The directed tapes again, for the probed run, plus two whose
    spans straddle bins.  In the first, at ``bin_width=4`` processor 0's
    9-cycle compute (cycles 3-12) crosses two boundaries, and three
    misses queue behind its fetch (granted at 12) -- the last, a write
    that first loses a cycle to a bank conflict, waits 14-24 and kills
    cluster 0's copy of A, still in flight, at its grant.  In the second,
    processor 0 fetches 20 instructions from byte 40 at cycle 2 -- three
    icache lines, none resident: the first refill queues 2 cycles behind
    processor 2's read miss, each of the others is requested when the
    one before it has arrived, and the 302-cycle stall after the 20 busy
    cycles runs from the middle of bin 5 to the end of bin 80."""
    def bins(outcome, name, key=None):
        series = json.loads(outcome["metrics"])[name]
        return series if key is None else series[str(key)]

    tapes = _coherence_tapes()
    tapes["spans-straddling-bin-boundaries"] = (
        {0: [[OP_COMPUTE, 3, OP_COMPUTE, 9, OP_READ, A]],
         1: [[OP_COMPUTE, 13, OP_READ, B + 16]],
         2: [[OP_COMPUTE, 13, OP_READ, 512]],
         3: [[OP_COMPUTE, 13, OP_WRITE, A]]},
        lambda out: bins(out, "proc", (0, "busy")) == [4.0, 4.0, 4.0, 1.0]
        and bins(out, "bus_wait") == [0.0, 0.0, 0.0, 8.0, 8.0, 4.0]
        and bins(out, "bus_invalidations") == [0.0] * 6 + [1.0]
        and bins(out, "bank_conflict", (1, 0)) == [0.0, 0.0, 0.0, 1.0]
        and len(bins(out, "proc", (0, "memory"))) == 29)
    tapes["multi-line-refill-queued-behind-a-data-miss"] = (
        {0: [[OP_COMPUTE, 2, OP_IFETCH, 40, 20, OP_READ, A]],
         2: [[OP_READ, 512, OP_COMPUTE, 3, OP_WRITE, A]]},
        lambda out: out["stats"]["icache_misses"] == 3
        and out["stats"]["processors"][0]["icache_stall_cycles"] == 302
        and bins(out, "bus_wait")[0] == 2.0
        and bins(out, "proc", (0, "icache"))[4:7] == [0.0, 2.0, 4.0]
        and len(bins(out, "proc", (0, "icache"))) == 81
        and sum(bins(out, "proc", (0, "icache"))) == 302)
    return tapes


@pytest.mark.parametrize("protocol", ["msi", "mesi"])
@pytest.mark.parametrize("name", sorted(_probed_tapes()))
def test_a_probe_bins_on_the_reference_loop_and_moves_no_clock(name,
                                                               protocol):
    """Under the standard probe a run is the reference loop's, whose
    callbacks bin what each tape is for; the timing it leaves does not
    know a probe was there: it is the unprobed native run's, the icache
    refills' bus grants and stall spans among them."""
    from repro.core.config import SystemConfig
    streams, check = _probed_tapes()[name]
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024, protocol=protocol,
                          model_icache=True, icache_size=1024)
    probed = _outcome(config, streams, "python", bin_width=4)
    assert probed["error"] is None
    if protocol == "msi":
        assert check(probed), probed
    assert dict(probed, metrics=None) == _outcome(config, streams, "native")


def test_max_cycles_abort_leaves_the_same_partial_registry():
    """The abort tape of ``TestNativeScheduler``, probed: the probe
    holds what the callbacks had recorded when the limit hit, and the
    rest of the abort is the unprobed native run's."""
    from repro.core.config import SystemConfig
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=1024)
    streams = {0: [[OP_READ, 0, OP_COMPUTE, 500, OP_READ, 64]],
               1: [[OP_READ, 128, OP_COMPUTE, 1000, OP_READ, 256]]}
    probed = _outcome(config, streams, "python", max_cycles=300,
                      bin_width=64)
    assert probed["error"] == ("RuntimeError",
                               "simulation exceeded 300 cycles")
    counters = json.loads(probed["metrics"])["counters"]
    assert counters["cache_misses"] == 2 and "cache_hits" not in counters
    assert dict(probed, metrics=None) == _outcome(config, streams, "native",
                                                  max_cycles=300)


def test_a_negative_clock_cannot_index_before_the_bins():
    """A process that starts before cycle 0, probed: its first miss
    queues on the bus from cycle -10, and the probe's timeline refuses
    that span rather than index its bin list from the end (an
    ``IndexError``, or a write into the last bin)."""
    from repro.core.config import SystemConfig
    from repro.instrument import InstrumentationProbe
    from repro.trace.packed import PackedChunk
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=1024)
    probe = InstrumentationProbe(bin_width=4, record_events=False)
    _, interleaver = _interleaver(config, {}, "native", probe)
    interleaver.add_process(0, iter([PackedChunk([OP_READ, 0])]),
                            start_time=-10)
    with pytest.raises(ValueError,
                       match="^cycle outside the timeline range$"):
        interleaver.run()
    assert interleaver.engine_used == "python"


def test_negative_compute_is_refused_before_anything_is_charged():
    """``account_compute`` refuses it on the reference loop, probed or
    not; the native run refuses it with the same message at the same
    event, before its clock could go back 50 cycles and the processor's
    busy cycles negative."""
    from repro.core.config import SystemConfig
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=1024)
    streams = {0: [[OP_COMPUTE, -50, OP_READ, 0]]}
    reference = _outcome(config, streams, "python")
    assert reference["error"] == ("ValueError",
                                  "compute cycles must be non-negative")
    assert reference["events"] == 1
    assert reference["stats"]["processors"][0]["busy_cycles"] == 0
    assert _outcome(config, streams, "native") == reference
    probed = _outcome(config, streams, "python", bin_width=4)
    assert dict(probed, metrics=None) == reference


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
        "compute-0-and-ifetch-objects-32-line-icache": (
            {}, icache_objects,
            lambda out: out["stats"]["icache_misses"] == 7),
        # one line of 1024 bytes: index mask and tag shift 0
        "compute-0-and-ifetch-objects-1-line-icache": (
            {"icache_line_size": 1024}, icache_objects,
            lambda out: out["stats"]["icache_misses"] == 3),
    }


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


@pytest.mark.parametrize("name", sorted(_sync_error_tapes()))
def test_native_sync_errors_match_the_reference_loop(name):
    """Type, message, partial accounting, who is left ready, blocked and
    queued where: the whole outcome."""
    from repro.core.config import SystemConfig
    streams, error = _sync_error_tapes()[name]
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024)
    reference = _outcome(config, streams, "python")
    assert reference["error"] == error
    assert _outcome(config, streams, "native") == reference


def test_an_operand_beyond_int64_raises_before_any_accounting():
    """An event object is packed into int64 words before either engine
    runs it, so an address no ``int64`` holds is refused up front, with
    one ``OverflowError``: nothing counted, nothing claimed."""
    from repro.core.config import SystemConfig
    from repro.trace.events import Read
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=1024)
    streams = {0: [[OP_COMPUTE, 3], Read(1 << 80)], 1: [[OP_READ, 256]]}
    native = _outcome(config, streams, "native")
    assert native["error"][0] == "OverflowError"
    assert native["events"] == 2        # the compute, processor 1's read
    assert native["stats"]["scc"][0]["reads"] == 1
    assert native["bus"] == (1, 4, 4)
    assert native["ready"] == [(101, 4, 1)]
    assert native["seq"] == 4
    assert _outcome(config, streams, "python") == native


@pytest.mark.parametrize("piece", ["list_beyond_int64", "list_float",
                                   "ifetch_beyond_int64"])
def test_a_word_no_int64_holds_is_refused_alike(piece):
    """C copies a list chunk word by word, and packs an event object,
    before it runs any of it; the reference loop installs the same words
    (``array('q', data)``).  A word neither can hold is refused part way
    through the copy with one type and message, and nothing of its chunk
    is counted -- the read before it included -- on either engine, which
    leave every process standing alike."""
    from repro.core.config import SystemConfig
    from repro.trace.events import Ifetch
    config = SystemConfig(clusters=1, processors_per_cluster=2,
                          scc_size=1024)
    bad = {"list_beyond_int64": [OP_READ, 0, OP_READ, 1 << 70],
           "list_float": [OP_READ, 0, OP_READ, 2.5],
           "ifetch_beyond_int64": Ifetch(0, 1 << 70)}[piece]
    streams = {0: [[OP_COMPUTE, 3], bad], 1: [[OP_READ, 256]]}

    def outcome(backend):
        kept = []
        result = _outcome(config, streams, backend, prepare=kept.append)
        result["standing"] = {
            pid: (process.chunk and list(process.chunk), process.chunk_pos,
                  process.chunk_sub)
            for pid, process in kept[0]._processes.items()}
        return result

    native = outcome("native")
    assert native["error"][0] == ("TypeError" if piece == "list_float"
                                  else "OverflowError")
    assert native["events"] == 2        # the compute, processor 1's read
    assert native["standing"] == {0: (None, 0, 0), 1: ([OP_READ, 256], 2, 0)}
    assert outcome("python") == native


#: A record the end of its chunk cuts short, by opcode, as it follows a
#: whole read: all of its operands but the last, then fewer.  The value
#: is what the reference loop does with it -- its error, and the events it
#: counts first (a span's size is read before its event is counted) --
#: and the queues it leaves (the enqueue's key was read, its item not).
CUT_RECORDS = {
    "read": ([OP_READ], True, 2),
    "write": ([OP_WRITE], True, 2),
    "compute": ([OP_COMPUTE], True, 2),
    "ifetch": ([OP_IFETCH, 64], True, 2),
    "lock-acquire": ([OP_LOCK_ACQ], True, 2),
    "lock-release": ([OP_LOCK_REL], True, 2),
    "barrier": ([OP_BARRIER, 3], True, 2),
    "enqueue": ([OP_ENQUEUE, 5], True, 2),
    "dequeue": ([OP_DEQUEUE], True, 2),
    "read-span": ([OP_READ_SPAN, 512, 64], True, 1),
    "write-span": ([OP_WRITE_SPAN, 512, 64], True, 1),
    "ifetch-bare": ([OP_IFETCH], True, 2),
    "barrier-bare": ([OP_BARRIER], True, 2),
    "enqueue-bare": ([OP_ENQUEUE], True, 2),
    "read-span-base-only": ([OP_READ_SPAN, 512], True, 1),
    "write-span-bare": ([OP_WRITE_SPAN], True, 1),
    # a span of no element is skipped before its stride is read
    "read-span-of-nothing": ([OP_READ_SPAN, 512, 0], False, 1),
}


@pytest.mark.parametrize("name", sorted(CUT_RECORDS))
def test_a_record_cut_short_raises_where_the_reference_loop_does(name):
    """Neither engine reads past a chunk: the native one raises the
    reference loop's ``IndexError`` at the same event, with the same
    count, leaving every process standing alike (a lock or barrier past
    its record, as after any error of its own) and the same queues."""
    from repro.core.config import SystemConfig
    cut, raises, events = CUT_RECORDS[name]
    config = SystemConfig(clusters=1, processors_per_cluster=1,
                          scc_size=1024, model_icache=True)
    streams = {0: [[OP_READ, 0, *cut]]}

    def outcome(backend):
        kept = []
        result = _outcome(config, streams, backend, prepare=kept.append)
        result["standing"] = {
            pid: (process.chunk and list(process.chunk), process.chunk_pos,
                  process.chunk_sub, process.time)
            for pid, process in kept[0]._processes.items()}
        return result

    reference = outcome("python")
    assert reference["error"] == (
        ("IndexError", "array index out of range") if raises else None)
    assert reference["events"] == events
    assert reference["sync"]["queues"] == (
        {5: []} if name == "enqueue" else {})
    assert outcome("native") == reference


def _one_driver_call(driver, raises):
    """``(systems, call)``: one call of ``driver`` on fresh machines, a
    tape that completes or one that ends in a non-positive span
    stride."""
    from repro.core.config import SystemConfig
    from repro.core.system import MultiprocessorSystem
    from repro.trace.multiconfig import _fused_pass_native
    tape = [OP_WRITE, 0, OP_READ, 4096, OP_COMPUTE, 3]
    if raises:
        tape += [OP_READ_SPAN, 0, 64, 0]
    if driver == "run":
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=1024)
        system, interleaver = _interleaver(config, {0: [tape], 1: [tape]},
                                           "native")
        return [system], interleaver.run
    systems = [MultiprocessorSystem(SystemConfig(
        clusters=1, processors_per_cluster=1, scc_size=size))
        for size in (1024, 4096)]
    return systems, lambda: _fused_pass_native(systems, array("q", tape))


DRIVER_CALLS = pytest.mark.parametrize("driver, raises", [
    ("run", False), ("run", True), ("ladder", False), ("ladder", True)],
    ids=["run-completes", "run-raises", "ladder-completes", "ladder-raises"])


@DRIVER_CALLS
def test_a_driver_drops_its_views_on_every_way_out(driver, raises):
    """Both drivers work on the machine's ``array('q')`` storage through
    buffer views and drop them before the call returns or raises: an
    array a view is held on cannot resize (``BufferError``)."""
    systems, call = _one_driver_call(driver, raises)
    if raises:
        with pytest.raises(ValueError, match="stride"):
            call()
    else:
        call()
    for system in systems:
        held = [system.bus._clock]
        for cluster in system.clusters:
            held += [cluster.scc.array._states, cluster.scc.array._tags,
                     cluster.scc.interconnect._bank_free]
        for words in held:
            words.append(0)
            words.pop()


@DRIVER_CALLS
def test_a_failed_write_back_raises_as_a_finally_would(
        driver, raises, mutant_native, monkeypatch):
    """A write-back that fails raises its own error, with the drive's as
    ``__context__`` when the drive raised -- what a python ``finally``
    around the drive leaves.  (The write-back fails only for want of
    memory, so a build whose write-back always fails stands in.)"""
    from repro.trace.engine import native
    from ..conftest import LADDER_WRITE_BACK_FAILS, RUN_WRITE_BACK_FAILS
    monkeypatch.setattr(native, "_mod", mutant_native(
        *(RUN_WRITE_BACK_FAILS if driver == "run"
          else LADDER_WRITE_BACK_FAILS)))
    _, call = _one_driver_call(driver, raises)
    with pytest.raises(MemoryError, match="write-back") as raised:
        call()
    context = raised.value.__context__
    if raises:
        assert type(context) is ValueError
        assert "non-positive span stride" in str(context)
    else:
        assert context is None


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
    """Seven processes on one interleaver, run to the end: in one go (one
    engine), or cut by ``max_cycles=cut`` and carried on by the second
    engine.  At the cut 1 and 2 are queued on lock 1, which 0 holds
    across a long compute, 1 blocked at a ``LockAcquire`` object; 3 waits
    at the barrier; 5 holds lock 2; 0, 5 and 6 are ready, 0 half way
    through its chunk and 6 preempted by the miss of a ``Read`` object;
    and 4 is the one the limit stopped, between two elements of a span.
    An event object is a chunk of one, spent by the time anything can
    stop the run, so 1 and 6 stand in no chunk.  An aborted process is
    off the heap, as a blocked one is: the caller that carries on
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

    config = SystemConfig(clusters=4, processors_per_cluster=2,
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
        6: [Compute(120), Read(8192), Compute(40)],
    }
    system, interleaver = _interleaver(config, streams, engines[0])
    at_the_cut = None
    if len(engines) == 2:
        with pytest.raises(RuntimeError, match=f"exceeded {cut} cycles"):
            interleaver.run(max_cycles=cut)
        assert interleaver.engine_used == engines[0]
        at_the_cut = dict(
            _sync_state(interleaver), ready=sorted(interleaver._heap),
            standing={pid: (process.time, process.chunk
                            and list(process.chunk), process.chunk_pos,
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


def _mp3d_cut_run(engines, cut=2000):
    """MP3D's C processes on four processors, run to the end: in one go
    (one engine), or cut by ``max_cycles=cut`` and carried on by the second
    engine.  Each process stands in a chunk it wrote -- a native run hands
    the words back as a list -- and the one the limit stopped stands part
    way through its chunk."""
    from repro.core.config import SystemConfig
    from repro.workloads.mp3d import MP3D
    config = SystemConfig(clusters=2, processors_per_cluster=2,
                          scc_size=1024)
    processes = MP3D(n_particles=48, steps=2).processes(config)
    system, interleaver = _interleaver(
        config, {pid: lambda process=process: process
                 for pid, process in processes.items()}, engines[0])
    at_the_cut = None
    if len(engines) == 2:
        with pytest.raises(RuntimeError, match=f"exceeded {cut} cycles"):
            interleaver.run(max_cycles=cut)
        assert interleaver.engine_used == engines[0]
        at_the_cut = dict(
            _sync_state(interleaver), ready=sorted(interleaver._heap),
            standing={pid: (process.time, process.chunk
                            and list(process.chunk), process.chunk_pos,
                            process.chunk_sub)
                      for pid, process in interleaver._processes.items()})
        stopped, = [process for process in interleaver._processes.values()
                    if not (process.finished or process.blocked
                            or process.in_heap)]
        at_the_cut["stopped"] = stopped.pid
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
        "sync": _sync_state(interleaver),
        "seq": interleaver._seq - (len(engines) == 2),
    }


class TestStateContinuity:
    def test_an_mp3d_process_stopped_mid_chunk_carries_on(self):
        """A native run cut mid-chunk leaves each C process's place in
        the words it wrote as the reference loop leaves it -- the words
        themselves, ``chunk_pos``, ``chunk_sub`` -- and either engine
        carries on from there to the end one uncut run reaches."""
        _, reference = _mp3d_cut_run(["python"])
        assert _mp3d_cut_run(["native"])[1] == reference
        cuts = {}
        for engines in [("python", "python"), ("python", "native"),
                        ("native", "python"), ("native", "native")]:
            cuts[engines], outcome = _mp3d_cut_run(engines)
            assert outcome == reference, engines
        cut = cuts["python", "python"]
        assert all(other == cut for other in cuts.values())
        # not vacuous: the stopped process stands inside a chunk it wrote
        _, words, pos, sub = cut["standing"][cut["stopped"]]
        assert 0 < pos < len(words) or sub > 0


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
        """``run`` imports each bank's heap and writes it
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
        """``run`` imports the wait queues, the blocked flags and every
        process's place in its chunk, and writes them back after an
        abort too: a run cut by ``max_cycles`` and carried on by the
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
        assert [pid for _, _, pid in cut["ready"]] == [6, 0, 5]
        assert cut["standing"][0][2:] == (6, 0)     # before its release
        assert cut["standing"][4][2:] == (0, 32)    # two elements in
        assert cut["standing"][1][1] is None        # at LockAcquire(1)
        assert cut["standing"][6] == (221, None, 0, 0)  # after Read(8192)
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

    def test_run_refuses_a_process_listed_twice_in_the_ready_heap(self):
        """C chains a ready process into its bucket through a link of its
        own, so one listed twice at rest could be linked twice -- a cycle
        the run would spin on: refused, a ``ValueError`` naming it before
        anything is run, ``_heap`` as it was."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=1024)
        _, interleaver = _interleaver(config, {0: [[OP_WRITE, 0]]},
                                      "native")
        interleaver._heap.append((5, 2, 0))
        with pytest.raises(ValueError,
                           match="^process 0 is in the ready heap twice$"):
            interleaver.run()
        assert interleaver._heap == [(0, 1, 0), (5, 2, 0)]
        assert interleaver.events_processed == 0
        assert interleaver._seq == 1

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


def _ll_hash(line):
    """``ll_hash`` of ``_native.c``: where a line starts its probe."""
    return ((line * 0x9E3779B97F4A7C15) % 2 ** 64) >> 32


def _lost_tape_lines():
    """78 lines a cluster reads, the other then writes, and the first
    reads again, each at an SCC slot of its own: 72 in a row and six
    whose probe starts at the last slot of every table of up to 4096
    slots -- one run of entries that wraps round to slot 0, past which
    a deletion has to shift the others back."""
    wrap, used = [], set(range(72))
    line = 1024
    while len(wrap) < 6:
        line += 1
        if _ll_hash(line) & 0xFFF == 0xFFF and line & 1023 not in used:
            wrap.append(line)
            used.add(line & 1023)
    return list(range(72)), wrap


def _lost_line_runs(engines, cut=None):
    """Cluster 0 reads the 78 lines, cluster 1 writes every one (so each
    is lost in cluster 0's SCC: more than 64, the lost-line table grows
    four times), and cluster 0 reads them again in another order: the
    run that wraps head first, the row in two interleaved halves, seven
    lines left.  Then cluster 1 writes the six of the run again and
    cluster 0 re-reads those, head first, and then the seven.  Every
    re-read is a coherence miss that deletes a line.  With two engines
    and no ``cut`` the second writes and re-reads are a second run on
    the same machine; with a ``cut``, one run stopped by ``max_cycles``
    three re-reads before the seven left and carried on by the second
    engine.  Either way each leg notes lines and deletes the head of a
    run that wraps.  Each leg's end is observed: the finish, cluster 0's
    coherence read misses and each cluster's ``_lost_lines``."""
    from repro.core.config import SystemConfig
    from repro.core.system import MultiprocessorSystem
    from repro.trace.interleave import TimingInterleaver
    from repro.trace.packed import OP_BARRIER, PackedChunk
    row, wrap = _lost_tape_lines()
    invalidated = row[:40] + wrap + row[40:]
    again = wrap + row[::2] + row[15::2][::-1]

    def accesses(op, lines):
        return [word for line in lines for word in (op, line * 16)]

    def barrier(n):
        return [OP_BARRIER, n, 2]

    config = SystemConfig(clusters=2, processors_per_cluster=1,
                          scc_size=16384)
    system = MultiprocessorSystem(config)
    legs = [{0: accesses(OP_READ, invalidated) + barrier(0) + barrier(1)
             + accesses(OP_READ, again),
             1: barrier(0) + accesses(OP_WRITE, invalidated) + barrier(1)},
            {0: barrier(3) + accesses(OP_READ, wrap + row[1:14:2]),
             1: accesses(OP_WRITE, wrap) + barrier(3)}]
    if cut is not None or len(engines) == 1:
        legs = [{pid: legs[0][pid] + barrier(2) + legs[1][pid]
                 for pid in (0, 1)}]
    observed = []

    def observe(finish):
        observed.append({
            "finish": finish,
            "coherence": system.clusters[0].scc.stats.coherence_read_misses,
            "lost": [set(cluster.scc._lost_lines)
                     for cluster in system.clusters]})

    start = 0
    for backend, streams in zip(engines, legs):
        interleaver = TimingInterleaver(system, backend=backend)
        for pid, words in streams.items():
            interleaver.add_process(pid, iter([PackedChunk(words)]),
                                    start_time=start)
        if cut is not None:
            with pytest.raises(RuntimeError, match=f"exceeded {cut} cycles"):
                interleaver.run(max_cycles=cut)
            assert interleaver.engine_used == backend
            observe(cut)
            stopped, = [process for process
                        in interleaver._processes.values()
                        if not (process.finished or process.blocked
                                or process.in_heap)]
            interleaver._push(stopped)
            interleaver.backend = backend = engines[1]
        start = interleaver.run()
        assert interleaver.engine_used == backend
        observe(start)
    system.check_invariants()
    return observed


def _lost_line_cut():
    """Three re-reads before the first leg of the two runs ends."""
    return _lost_line_runs(["python", "python"])[0]["finish"] - 300


class TestLostLines:
    """``scc._lost_lines`` is C words for the length of a ``run``:
    an open-addressing table that grows and deletes with backward
    shifts, imported and written back as the fills and write buffers
    are."""

    def test_a_growing_wrapping_table_across_two_runs(self):
        """Whichever engine runs a leg, each leg ends with the coherence
        misses and the lost lines one reference-loop leg ends with."""
        reference = _lost_line_runs(["python", "python"])
        # not vacuous: all 78 lines lost, the first leg re-misses 71 of
        # them -- coherence misses --, the second the six it loses again
        # and the seven left
        row, wrap = _lost_tape_lines()
        assert reference[0]["coherence"] == 71
        assert reference[0]["lost"] == [set(row[1:14:2]), set()]
        assert reference[1]["coherence"] == 84
        assert reference[1]["lost"] == [set(), set()]
        for engines in [("native", "python"), ("python", "native"),
                        ("native", "native")]:
            assert _lost_line_runs(engines) == reference, engines

    def test_a_run_cut_in_the_re_misses_resumes_on_the_other_engine(self):
        whole = _lost_line_runs(["python"])
        assert _lost_line_runs(["native"]) == whole
        reference = _lost_line_runs(["python", "python"],
                                    cut=_lost_line_cut())
        # not vacuous: the cut falls in the first re-reads, past the run
        # that wraps
        row, wrap = _lost_tape_lines()
        assert 60 < reference[0]["coherence"] < 71
        assert set(row[1:14:2]) < reference[0]["lost"][0]
        assert not set(wrap) & reference[0]["lost"][0]
        assert reference[1] == whole[0]
        for engines in [("native", "python"), ("python", "native"),
                        ("native", "native")]:
            assert _lost_line_runs(engines, cut=_lost_line_cut()) \
                == reference, engines

    @pytest.mark.parametrize("bad, error, match", [
        ("line 5", TypeError, "^lost lines must be ints$"),
        (5.0, TypeError, "^lost lines must be ints$"),
        (2 ** 63, OverflowError, None),
        # the table's empty slot, a line no address of the machine has
        (-2 ** 63, ValueError,
         "^no address maps to lost line -9223372036854775808$"),
    ], ids=["str", "float", "beyond_int64", "empty_slot"])
    def test_setup_refuses_a_bad_lost_line(self, bad, error, match):
        """... before anything is run or rewritten: every container as
        it was, the good lines and the other cluster's set included."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=1024)
        system, interleaver = _interleaver(
            config, {0: [[OP_READ, 0]], 1: [[OP_WRITE, 16]]}, "native")
        system.clusters[0].scc._lost_lines.update({3, 7})
        system.clusters[1].scc._lost_lines.update({4, bad})
        system.clusters[1].scc.interconnect._write_buffers[2].append(9)
        with pytest.raises(error, match=match):
            interleaver.run()
        assert system.clusters[0].scc._lost_lines == {3, 7}
        assert system.clusters[1].scc._lost_lines == {4, bad}
        assert system.clusters[1].scc.interconnect._write_buffers == [
            [], [], [9], []]
        assert interleaver.events_processed == 0
        assert sorted(interleaver._heap) == [(0, 1, 0), (0, 2, 1)]

    def test_one_byte_lines_keep_the_reference_loop(self):
        """With a shift of 0 every int64 is some address's line, the
        table's empty slot too: such a machine never runs native."""
        from repro.core.config import SystemConfig
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              line_size=1, scc_size=1024)
        _, interleaver = _interleaver(config, {0: [[OP_READ, -2 ** 63]]},
                                      "native")
        interleaver.run()
        assert interleaver.engine_used == "python"


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
        assert exported == {"ABI_VERSION", "run", "ladder", "row_profile",
                            "spec_burst", "mp3d_processes",
                            "barnes_processes"}

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
            ABI_VERSION="5", __file__="old.so", run=real.run,
            ladder=real.ladder)
        assert native.NATIVE_VERSION == "20"
        assert native._stale_reason(stale) == (
            "stale extension old.so: ABI '5', need '20'")
        monkeypatch.setattr(engine, "_native", stale, raising=False)
        monkeypatch.setattr(native, "_mod", None)
        loaded = native.load()
        assert loaded is not stale
        assert loaded.ABI_VERSION == native.NATIVE_VERSION
        info = backend_info()
        assert info["native_version"] == native.NATIVE_VERSION
        assert info["native_ladder"] is True

    def test_stale_build_and_broken_compiler_raise_both_reasons(
            self, monkeypatch, tmp_path):
        """The extension is required: with a stale in-place build and a
        compiler that fails, the first use raises one ``ImportError``
        that names the compiler and gives both reasons."""
        from types import SimpleNamespace
        import repro.trace.engine as engine
        from repro.core.config import SystemConfig
        from repro.trace.engine import native
        from repro.workloads.barnes_hut import BarnesHut
        compiler = tmp_path / "broken-cc"
        compiler.write_text("#!/bin/sh\n"
                            "echo 'fatal error: Python.h: no such file' >&2\n"
                            "exit 1\n")
        compiler.chmod(0o755)
        stale = SimpleNamespace(__file__="old.so", ladder=None)
        monkeypatch.setattr(engine, "_native", stale, raising=False)
        monkeypatch.setattr(native, "_mod", None)
        monkeypatch.setattr(native, "_compiler", lambda: str(compiler))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        for first_use in (native.load, lambda: BarnesHut().processes(
                SystemConfig(clusters=1, processors_per_cluster=1))):
            with pytest.raises(ImportError) as raised:
                first_use()
            message = str(raised.value)
            assert "stale extension old.so: ABI None, need '20'" in message
            assert f"compile failed ({compiler})" in message
            assert "Python.h: no such file" in message
        assert native._mod is None

    def test_a_missing_compiler_is_named(self, monkeypatch, tmp_path):
        from repro.trace.engine import native
        missing = str(tmp_path / "no-such-cc")
        monkeypatch.setattr(native, "_compiler", lambda: missing)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        with pytest.raises(ImportError, match="compile failed") as raised:
            native._compile_on_demand()
        assert missing in str(raised.value)

    def test_a_new_build_deletes_the_cache_s_day_old_files(self, monkeypatch,
                                                            tmp_path):
        """A build deletes the other builds and the temporaries in its
        cache that are more than a day old, and keeps the newer ones."""
        import os
        import sys
        import time
        from repro.trace.engine import native
        real = native.load().__file__
        compiler = tmp_path / "copying-cc"      # "builds" the loaded .so
        compiler.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; '
                            f'done\ncp "{real}" "$2"\n')
        compiler.chmod(0o755)
        cache = tmp_path / "cache"
        cache.mkdir()
        aged = [cache / "_native_0123456789abcdef.so",
                cache / "_native_0123456789abcdef.so.tmp4242"]
        fresh = cache / "_native_fedcba9876543210.so"
        for path in (*aged, fresh):
            path.write_bytes(b"")
        day_and_a_bit = time.time() - native._STALE_BUILD_S - 60
        for path in aged:
            os.utime(path, (day_and_a_bit, day_and_a_bit))
        monkeypatch.setattr(native, "_compiler", lambda: str(compiler))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        # (a load registers the module, where a later ``load()`` would
        # take the one built here for the in-place build)
        name = "repro.trace.engine._native"
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
        built = native._compile_on_demand()
        assert built.ABI_VERSION == native.NATIVE_VERSION
        assert sorted(path.name for path in cache.iterdir()) == sorted(
            [fresh.name, os.path.basename(built.__file__)])

    def test_threads_that_load_together_share_one_build(self, monkeypatch,
                                                        tmp_path):
        """Two threads asking for the extension on an empty cache run
        the compiler once and get the same module object."""
        import subprocess
        import sys
        import threading
        import time
        from types import SimpleNamespace
        import repro.trace.engine as engine
        from repro.trace.engine import native
        real = native.load().__file__
        compiler = tmp_path / "copying-cc"      # "builds" the loaded .so
        compiler.write_text('#!/bin/sh\nwhile [ "$1" != -o ]; do shift; '
                            f'done\ncp "{real}" "$2"\n')
        compiler.chmod(0o755)
        real_run, compiles = subprocess.run, []

        def slow_run(command, *args, **kwargs):
            if command[0] == str(compiler):
                compiles.append(command)
                time.sleep(0.2)     # the other thread arrives meanwhile
            return real_run(command, *args, **kwargs)

        name = "repro.trace.engine._native"
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
        monkeypatch.setattr(engine, "_native",
                            SimpleNamespace(__file__="old.so"),
                            raising=False)
        monkeypatch.setattr(native, "_mod", None)
        monkeypatch.setattr(native, "_compiler", lambda: str(compiler))
        monkeypatch.setattr(subprocess, "run", slow_run)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        start, loaded = threading.Barrier(2), []

        def first_use():
            start.wait(timeout=60)
            loaded.append(native.load())

        threads = [threading.Thread(target=first_use) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(compiles) == 1
        assert len(loaded) == 2 and loaded[0] is loaded[1]
        assert loaded[0].ABI_VERSION == native.NATIVE_VERSION


def _hostile(name, **change):
    return pytest.param(change, id=name)


# ----------------------------------------------------------------------
# The SPEC-stream kernel: the same rule -- everything checked before a
# word is written, and a refill that fails mid-quantum takes its words
# back
# ----------------------------------------------------------------------

def _spec_args(**change):
    """One quantum of a fresh ``SpecApp`` as ``spec_burst`` takes it,
    with ``change`` applied; ``out`` already holds two words."""
    from repro.workloads.spec import SPEC92_PROFILES, SpecApp
    app = SpecApp(0, SPEC92_PROFILES[0])
    args = {
        "out": array("q", [7, 7]),
        "n": 500,
        "fractions": app._fractions,
        "segments": app._segments,
        "cursors": (0, 0, 0, 0, 0),
        "recent": app._recent,
        "recent_fill": app._recent_fill,
        "batch": app._uniform,
        "index": app._uniform_index,
        "refill": app._refill,
    }
    args.update(change)
    return args


def _with(fields, at, value):
    return fields[:at] + (value,) + fields[at + 1:]


def _spec_batch(length=2048, dtype=np.float64, value=0.5):
    return np.full(length, value, dtype=dtype)


class TestSpecBurst:
    def test_refills_before_the_draw_that_needs_one(self):
        from repro.trace.engine import native
        calls = []

        def refill():
            calls.append(None)
            return _spec_batch()

        args = _spec_args(index=2048, refill=refill, n=0)
        assert native.load().spec_burst(*args.values())[-1] == 2048
        assert not calls
        args = _spec_args(index=2048, refill=refill, n=1)
        *_, fill, index = native.load().spec_burst(*args.values())
        assert len(calls) == 1
        # a new loop (3 draws) and the block's reference count (1)
        assert index == 4
        assert args["out"][:2].tolist() == [7, 7]

    @pytest.mark.parametrize("change", [
        _hostile("out-a-list", out=[7, 7]),
        _hostile("out-of-int32", out=array("i", [7, 7])),
        _hostile("out-numpy", out=np.array([7, 7])),
        _hostile("recent-a-list", recent=[0] * 48),
        _hostile("recent-47", recent=array("q", [0]) * 47),
        _hostile("recent-49", recent=array("q", [0]) * 49),
        _hostile("recent-of-int32", recent=array("i", [0]) * 48),
        _hostile("recent-negative-offset",
                 recent=array("q", [-16]) + array("q", [0]) * 47),
        _hostile("recent-fill-negative", recent_fill=-1),
        _hostile("recent-fill-past-the-lines", recent_fill=49),
        _hostile("negative-quantum", n=-1),
        _hostile("index-past-the-batch", index=2049),
        _hostile("index-negative", index=-1),
        _hostile("batch-short", batch=_spec_batch(2047)),
        _hostile("batch-float32", batch=_spec_batch(dtype=np.float32)),
        _hostile("batch-int64", batch=_spec_batch(dtype=np.int64, value=0)),
        _hostile("batch-holds-one", batch=_spec_batch(value=1.0)),
        _hostile("batch-holds-nan", batch=_spec_batch(value=np.nan)),
        _hostile("refill-short", index=2048,
                 refill=lambda: _spec_batch(100)),
        _hostile("refill-int64", index=2048,
                 refill=lambda: _spec_batch(dtype=np.int64, value=0)),
        _hostile("refill-none", index=2048, refill=lambda: None),
        _hostile("refill-not-callable", refill=3),
        _hostile("four-fractions", fractions=(0.1, 0.1, 0.1, 0.1)),
        _hostile("refs-negative", fractions=(0.1, 0.1, 0.1, 0.8, -0.5)),
        _hostile("refs-nan", fractions=(0.1, 0.1, 0.1, 0.8, float("nan"))),
        _hostile("seven-segment-numbers", segments=(1 << 20,) * 7),
        _hostile("negative-base", segments=(-1,) + (1 << 20,) * 7),
        _hostile("four-cursors", cursors=(0, 0, 0, 0)),
        _hostile("negative-cursor", cursors=(0, 0, 0, 0, -16)),
    ] + [
        _hostile(f"segment-{which}-size-{size}",
                 segments=_with(_spec_args()["segments"], at, size))
        for at, which in ((1, "code"), (3, "stack"), (5, "hot"),
                          (7, "scan"))
        for size in (0, -64)
    ])
    def test_hostile_inputs_raise_before_a_word_is_written(self, change):
        from repro.trace.engine import native
        args = _spec_args(**change)
        out = args["out"]
        before = list(out)
        recent = args["recent"]
        recent_before = list(recent)
        with pytest.raises((ValueError, TypeError)):
            native.load().spec_burst(*args.values())
        assert list(out) == before
        assert list(recent) == recent_before


# ----------------------------------------------------------------------
# The C processes: MP3D's and Barnes-Hut's are two kinds of one iterator
# ----------------------------------------------------------------------

def _one_c_process(kind):
    """The one process of a uniprocessor run of ``kind``'s C processes."""
    from repro.core.config import SystemConfig
    from repro.workloads import barnes_hut, mp3d
    config = SystemConfig(clusters=1, processors_per_cluster=1)
    run = (mp3d._KernelRun(mp3d.MP3D(n_particles=4, steps=1), config)
           if kind == "mp3d" else
           barnes_hut._KernelRun(
               barnes_hut.BarnesHut(n_bodies=40, steps=1), config))
    process, = run.processes
    return process


@pytest.mark.parametrize("kind", ["mp3d", "barnes-hut"])
def test_processes_run_apart_from_their_interleaver(kind):
    """A C process is an iterator like any other, whichever its kind:
    ``iter`` is itself, ``send`` ignores its value, a chunk is a
    ``PackedChunk`` of an ``array('q')`` (what the reference loop reads
    in place), and it stays ended once it has ended."""
    from repro.trace.packed import PackedChunk
    process = _one_c_process(kind)
    assert iter(process) is process
    first = process.send("ignored")
    assert type(first) is PackedChunk
    assert type(first.data) is array and first.data.typecode == "q"
    assert list(process)
    with pytest.raises(StopIteration):
        process.send(None)
    with pytest.raises(StopIteration):
        next(process)
    with pytest.raises(TypeError):
        type(process)()


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
        [cc, *native._CFLAGS, "-Wall", "-Wextra", "-Werror", "-shared",
         "-fPIC", f"-I{sysconfig.get_paths()['include']}",
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
        # the module's own tables, and its process types' (the types
        # themselves are the module's state, made at init)
        "methods", "moduledef", "process_methods"}
    assert len(declared) > len(mutable)     # (the const ones were seen)
