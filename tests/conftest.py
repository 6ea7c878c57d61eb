"""Fixtures shared by more than one test directory."""

import sys

import pytest

#: The statements the mutants change, each ``(needle, replacement)``:
#: when a read miss lets its processor carry on (the timing path) ...
READ_MISS_DONE = ("*done = fill + 1;", "*done = fill + 2;")
#: ... and the last bin's share of a span that straddles a bin boundary
#: (the metrics section: no clock, no statistic depends on it).
SPAN_LAST_BIN = ("s->bins[last] += end - last * width;",
                 "s->bins[last] += end - last * width + 1;")
#: ... and where a stack distance stops counting marks (the profile
#: section: the query forgets that the line's own previous occurrence
#: is marked, so every warm distance reads one too many).
STACK_DISTANCE_QUERY = ("for (at = previous + 1; at > 0; at -= at & -at)",
                        "for (at = previous; at > 0; at -= at & -at)")
#: ... and two in the state a native run keeps for itself: the ready
#: heap's order on tied clocks (``seq`` decides; without it heap layout
#: does) ...
READY_TIE_BREAK = ("((a->time == b->time) & (a->seq < b->seq))", "0")
#: ... and when a hit forgets the fill it found landed (a cycle late
#: moves no clock: only the table the run writes back shows it).
FILL_FORGOTTEN = ("if (*ready <= start) {", "if (*ready < start) {")
#: ... and two in the synchronization a run keeps there too: the waiter
#: a released lock is handed to pays the lock operation as well ...
WAITER_SKIPS_OVERHEAD = ("*time + ctx->lock_overhead);", "*time);")
#: ... and a barrier opens at its latest arrival, not its earliest.
BARRIER_EARLIEST = ("time > barrier->latest", "time < barrier->latest")
#: ... and three in the code a run and a ladder rung share, so both
#: engines answer for them: the victim's fill surviving its eviction (a
#: fill for a line the SCC no longer holds) ...
VICTIM_FILL_KEPT = (
    "fill_set(&scc->words, line, idx, ready);",
    "if (!victim_state) fill_set(&scc->words, line, idx, ready);")
#: ... a write buffer that gives up its newest entry first ...
WBUF_NEWEST_FIRST = ("return a < b;", "return a > b;")
#: ... and a dirty victim's write-back holding the bus a cycle too long
#: (the one miss path: ``install`` under ``run`` and the ladder alike).
WRITEBACK_HOLDS_BUS = (
    "bus_acquire(m, scc, start, m->bus_occ, &unawaited)",
    "bus_acquire(m, scc, start, m->bus_occ + 1, &unawaited)")
#: ... and one in what only a ladder has: a rung's skew against the
#: shared clock.
LADDER_SKEW = ("c->skew[s] = done - base - 1;", "c->skew[s] = done - base;")


@pytest.fixture(autouse=True)
def no_workload_kept_from_another_test():
    """Every sweep stage takes its workload object from the process's
    table (``runner.process_workload``), and the object remembers things
    between runs; a test must not meet one an earlier test left -- some
    patch a profile's factory and expect it to be called."""
    from repro.experiments import runner
    runner._WORKER_WORKLOADS.clear()


@pytest.fixture(scope="session")
def mutant_native(tmp_path_factory):
    """``mutant_native(needle, replacement)``: ``_native`` with that one
    statement changed, built from the source text into a cache of its
    own (once per session) -- the production object carries no mutation
    switch.  Skips, with the loader's reason, on a host that cannot
    build the extension at all."""
    from repro.trace.engine import native, native_unavailable_reason
    built = {}
    root = tmp_path_factory.mktemp("mutant-native")

    def build(needle, replacement):
        if (needle, replacement) in built:
            return built[needle, replacement]
        if native.load() is None:
            pytest.skip(f"native replay backend unavailable: "
                        f"{native_unavailable_reason()}")
        source = native._source_path().read_text()
        assert source.count(needle) == 1
        mutated = root / f"mutant{len(built)}" / "_native.c"
        mutated.parent.mkdir()
        mutated.write_text(source.replace(needle, replacement))
        # Loading a single-phase extension also registers it in
        # sys.modules, where a later ``load()`` would find the mutant as
        # the in-place build.
        name = "repro.trace.engine._native"
        registered = sys.modules.get(name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_CACHE", str(root / "cache"))
            patch.setattr(native, "_source_path", lambda: mutated)
            patch.setattr(native, "LOAD_ERROR", None)
            try:
                module = native._compile_on_demand()
                assert module is not None, native.LOAD_ERROR
            finally:
                if registered is None:
                    sys.modules.pop(name, None)
                else:
                    sys.modules[name] = registered
        built[needle, replacement] = module
        return module

    return build


@pytest.fixture
def off_by_one_read_miss(mutant_native, monkeypatch):
    """Run the native engine (and only it: the reference loop shares no
    code with ``_native.c``) on the timing mutant for one test."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod", mutant_native(*READ_MISS_DONE))


@pytest.fixture
def off_by_one_last_bin(mutant_native, monkeypatch):
    """... on the metrics mutant for one test."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod", mutant_native(*SPAN_LAST_BIN))


@pytest.fixture
def off_by_one_stack_distance(mutant_native, monkeypatch):
    """... on the profile mutant for one test."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod",
                        mutant_native(*STACK_DISTANCE_QUERY))


@pytest.fixture
def no_native_extension(monkeypatch):
    """The loader as ``REPRO_NATIVE=0`` leaves it, for one test: the
    reference loop, and ``build_row_profile`` on its python kernel."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod", None)


@pytest.fixture
def engines_used(monkeypatch):
    """``engine_used`` of every interleaver run in the test, in order."""
    from repro.trace.interleave import TimingInterleaver
    used = []
    real = TimingInterleaver.run

    def run(self, max_cycles=None):
        try:
            return real(self, max_cycles)
        finally:
            used.append(self.engine_used)

    monkeypatch.setattr(TimingInterleaver, "run", run)
    return used
