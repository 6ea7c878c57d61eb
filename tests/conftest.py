"""Fixtures and helpers shared by more than one test directory."""

import sys

import pytest

#: The statements the mutants change, each ``(needle, replacement)``:
#: when a read miss lets its processor carry on (the timing path) ...
READ_MISS_DONE = ("*done = fill + 1;", "*done = fill + 2;")
#: ... and where a stack distance stops counting marks (the profile
#: section: the query forgets that the line's own previous occurrence
#: is marked, so every warm distance reads one too many).
STACK_DISTANCE_QUERY = ("for (at = previous + 1; at > 0; at -= at & -at)",
                        "for (at = previous; at > 0; at -= at & -at)")
#: ... and three in the state a native run keeps for itself: the ready
#: queue's order on tied clocks -- ``seq`` decides between the window and
#: the overflow heap, and inside the heap (without it, which half and heap
#: layout do) ...
READY_TIE_BREAK = ("((a->time == b->time) & (a->seq < b->seq))", "0")
#: ... a window bucket that hands out the process pushed last first (a
#: push links the pid at its bucket's head, not its tail) ...
READY_BUCKET_LIFO = ("q->link[q->tail[s]].next = (int)pid;",
                     "link->next = q->head[s], q->head[s] = (int)pid;")
#: ... and when a hit forgets the fill it found landed (a cycle late
#: moves no clock: only the table the run writes back shows it).
FILL_FORGOTTEN = ("if (*ready <= start) {", "if (*ready < start) {")
#: ... and two in the synchronization a run keeps there too: the waiter
#: a released lock is handed to pays the lock operation as well ...
WAITER_SKIPS_OVERHEAD = ("*time + ctx->m.lock_overhead);", "*time);")
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
    "(void)bus_acquire(scc, start, m->bus_occ);",
    "(void)bus_acquire(scc, start, m->bus_occ + 1);")
#: ... and one in what only a ladder has: a rung's skew against the
#: shared clock.
LADDER_SKEW = ("c->skew[s] = done - base - 1;", "c->skew[s] = done - base;")
#: ... and one in the locks a ladder keeps for its one process: a lock it
#: holds already, taken again, is taken as if it were free.
LADDER_LOCK_HELD = ("if (lock->holder == 0) {", "if (lock->holder == 1) {")
#: ... and one in a run's instruction-cache refills: each refill's stall
#: is the latency alone, as if it never queued on the bus, nor behind the
#: line before it.
ICACHE_REFILL_CHAIN = ("stall = grant + m->ic_lat - now;",
                       "stall = m->ic_lat;")
#: ... and one in the SPEC-stream kernel, which every engine calls: the
#: word of a hot line is the other one of its pair.
SPEC_HOT_PARITY = ("(d.index % 2) * 8", "((d.index + 1) % 2) * 8")
#: ... and two in what a run keeps as C words and a ladder never
#: reaches: a lost line's deletion that shifts no entry back over the
#: hole (the lines behind it in their run of the table are lost to every
#: later probe) ...
LOST_NO_BACKWARD_SHIFT = (
    "if (((at - home) & mask) >= ((at - hole) & mask)) {", "if (0) {")
#: ... and a preemption's one-exchange switch that takes the window's head
#: past an entry of the overflow heap as early or earlier.
SWITCH_PASSES_THE_HEAP = (
    "|| (q->n_heap && q->heap[0].time <= wmin)) {", ") {")
#: ... and one in MP3D's C processes, which every engine runs: a
#: particle's partner-slot write is dropped instead of carried into the
#: next chunk.
MP3D_PARTNER_CARRY = ("if (p->carry >= 0) {", "if (0) {")
#: ... and one in Barnes-Hut's C processes: an insert that takes a cell's
#: lock acts on the slot as it found it before, never reading it again,
#: so a subtree another processor installed meanwhile is overwritten.
BH_RACED_REREAD = ("p->child = c->children[p->octant];", "/* no re-read */")
#: ... and one in how a run tells those C processes from a generator: it
#: takes them for generators and resumes them through ``PyIter_Send``.
C_PROCESS_UNSEEN = (
    "if (Py_TYPE(proc->generator)->tp_iternext == process_next) {",
    "if (0) {")
#: ... and two in how each driver ends: a run that raised writes nothing
#: back into its plan ...
RUN_RAISED_UNEXPORTED = ("int exported = ctx_export(ctx);",
                         "int exported = drive[0] ? 0 : ctx_export(ctx);")
#: ... and a ladder pass that raised leaves its rungs' containers empty.
LADDER_RAISED_UNEXPORTED = (
    "int exported = lctx_export(ctx);",
    "int exported = drive[0] ? 0 : lctx_export(ctx);")
#: Not mutants but faults: a write-back that always fails, as it would
#: for want of memory, after a run's and after a ladder pass's drive.
RUN_WRITE_BACK_FAILS = (
    "return sync_export(ctx, &ctx->barriers);",
    "return sync_export(ctx, &ctx->barriers) < 0 || (PyErr_SetString("
    "PyExc_MemoryError, \"write-back\"), 1) ? -1 : 0;")
LADDER_WRITE_BACK_FAILS = (
    "if (words_export(&ctx->rungs[s].sccs->words) < 0)",
    "if (words_export(&ctx->rungs[s].sccs->words) < 0 || (PyErr_SetString("
    "PyExc_MemoryError, \"write-back\"), 1))")


def unpacked(app):
    """``app`` with every :class:`~repro.trace.packed.PackedChunk` its
    generators yield decoded into event objects, one per resume, and each
    response forwarded: the event-object form of the same stream, which
    both engines must simulate exactly as they do the chunks."""
    from repro.trace.packed import PackedChunk, decode_events
    from repro.workloads.base import TracedApplication

    def decoded(generator):
        response = None
        while True:
            try:
                item = generator.send(response)
            except StopIteration:
                return
            if type(item) is PackedChunk:
                yield from decode_events(item.data)
                response = None
            else:
                response = yield item

    class Unpacked(TracedApplication):
        name = app.name

        def processes(self, config):
            return {proc: decoded(generator)
                    for proc, generator in app.processes(config).items()}

    return Unpacked()


@pytest.fixture(scope="session", autouse=True)
def cache_root_outside_the_checkout(tmp_path_factory):
    """Every default location (results, tapes, profiles, journals,
    repros) derives from ``REPRO_CACHE_DIR``: point it at a temporary
    directory for the whole session, so no test writes ``.repro_cache/``
    into the checkout.  A test that needs a root of its own sets the
    variable itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("cache-root")))
        yield


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
    switch.  A mutant that does not build raises the loader's
    ``ImportError``."""
    from repro.trace.engine import native
    built = {}
    root = tmp_path_factory.mktemp("mutant-native")

    def build(needle, replacement):
        if (needle, replacement) in built:
            return built[needle, replacement]
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
            try:
                module = native._compile_on_demand()
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
def off_by_one_stack_distance(mutant_native, monkeypatch):
    """... on the profile mutant for one test."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod",
                        mutant_native(*STACK_DISTANCE_QUERY))


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
