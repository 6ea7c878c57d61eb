"""Tests for the instrumented Barnes-Hut application."""

import math
import random
import sys
import threading
from array import array
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import KB, SystemConfig
from repro.simulation import run_simulation
from repro.trace.engine import native_available, native_unavailable_reason
from repro.trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                                Read, Write)
from repro.trace.packed import PackedChunk, decode_events
from repro.trace.record import StreamRecorder
from repro.workloads import barnes_hut
from repro.workloads.barnes_hut import (BarnesHut, Body, Cell,
                                        _BarnesHutRun, _bounding_cube,
                                        _cost_chunks, _quiet_build,
                                        _tree_ordered_bodies)

from ..conftest import unpacked

def small_config(procs=2, clusters=2):
    return SystemConfig(clusters=clusters, processors_per_cluster=procs,
                        scc_size=8 * KB)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BarnesHut(n_bodies=1)
        with pytest.raises(ValueError):
            BarnesHut(steps=0)
        with pytest.raises(ValueError):
            BarnesHut(theta=5.0)

    def test_processes_covers_every_processor(self):
        app = BarnesHut(n_bodies=32, steps=1)
        config = small_config()
        processes = app.processes(config)
        assert sorted(processes) == list(range(config.total_processors))


class TestOctree:
    def test_quiet_build_holds_every_body_once(self):
        app = BarnesHut(n_bodies=64, steps=1)
        run = _BarnesHutRun(app, small_config())
        root = _quiet_build(run.bodies)
        ordered = _tree_ordered_bodies(root)
        assert sorted(b.index for b in ordered) == list(range(64))

    def test_near_coincident_bodies_share_bucket_cells(self, monkeypatch):
        """The traced insert (locks, races and all) bounds its depth like
        the quiet build: ten bodies a denormal apart overflow one bucket
        cell into a second instead of splitting forever."""
        from repro.workloads import barnes_hut
        real = barnes_hut._plummer_bodies

        def crowded(count, rng):
            bodies = real(count, rng)
            for index, body in enumerate(bodies[:10]):
                body.pos = [index * 5e-324, 0.0, 0.0]
                body.vel = [0.0, 0.0, 0.0]
            return bodies

        monkeypatch.setattr(barnes_hut, "_plummer_bodies", crowded)
        app = BarnesHut(n_bodies=24, steps=1)
        config = small_config()
        run = _BarnesHutRun(app, config)

        class ThisRun:      # BarnesHut.processes, keeping hold of the run
            def processes(self, config):
                return {proc: run.process(proc)
                        for proc in range(config.total_processors)}

        assert run_simulation(config, ThisRun()).execution_time > 0
        ordered = _tree_ordered_bodies(run.root)
        assert sorted(b.index for b in ordered) == list(range(24))
        deepest = max(len(run.levels) - 1, 0)
        assert barnes_hut._MAX_DEPTH < deepest <= barnes_hut._MAX_DEPTH + 2

    def test_bounding_cube_covers_all_bodies(self):
        app = BarnesHut(n_bodies=64, steps=1)
        run = _BarnesHutRun(app, small_config())
        centre, half = _bounding_cube(run.bodies)
        for body in run.bodies:
            for axis in range(3):
                assert abs(body.pos[axis] - centre[axis]) <= half

    def test_octants_partition_space(self):
        cell = Cell(0, [0.0, 0.0, 0.0], 1.0, 0)
        seen = {cell.octant_of([x, y, z])
                for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                for z in (-0.5, 0.5)}
        assert seen == set(range(8))

    def test_child_centres_are_inside_parent(self):
        cell = Cell(0, [0.0, 0.0, 0.0], 1.0, 0)
        for octant in range(8):
            centre = cell.child_centre(octant)
            assert all(abs(c) == 0.5 for c in centre)


class TestCostPartition:
    def test_chunks_cover_in_order(self):
        bodies = [Body(i, [0, 0, 0], [0, 0, 0], 1.0) for i in range(10)]
        chunks = _cost_chunks(bodies, 3)
        flattened = [b.index for chunk in chunks for b in chunk]
        assert flattened == list(range(10))

    def test_costs_balance_chunks(self):
        bodies = [Body(i, [0, 0, 0], [0, 0, 0], 1.0) for i in range(100)]
        for body in bodies:
            body.cost = 1 + (body.index % 7)
        chunks = _cost_chunks(bodies, 4)
        costs = [sum(b.cost for b in chunk) for chunk in chunks]
        assert max(costs) < 1.5 * min(costs)


class TestPhysics:
    def test_momentum_is_roughly_conserved(self):
        """Equal-mass gravity is symmetric, so total momentum drift per
        step stays near zero (softened forces are exactly pairwise)."""
        app = BarnesHut(n_bodies=48, steps=2, theta=0.1)  # near-exact
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=64 * KB)
        run = _BarnesHutRun(app, config)
        before = [sum(b.vel[axis] * b.mass for b in run.bodies)
                  for axis in range(3)]
        system_result = run_simulation(config, app)
        assert system_result.execution_time > 0
        # Re-derive from a fresh run object driven through simulation.
        run2 = _BarnesHutRun(app, config)
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        interleaver = TimingInterleaver(MultiprocessorSystem(config))
        interleaver.add_process(0, run2.process(0))
        interleaver.run()
        after = [sum(b.vel[axis] * b.mass for b in run2.bodies)
                 for axis in range(3)]
        for axis in range(3):
            assert math.isfinite(after[axis])
            assert abs(after[axis] - before[axis]) < 0.05

    def test_positions_change_between_steps(self):
        app = BarnesHut(n_bodies=32, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _BarnesHutRun(app, config)
        initial = [list(b.pos) for b in run.bodies]
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        interleaver = TimingInterleaver(MultiprocessorSystem(config))
        interleaver.add_process(0, run.process(0))
        interleaver.run()
        moved = sum(1 for b, init in zip(run.bodies, initial)
                    if b.pos != init)
        assert moved > 16


def iter_events(stream):
    """Flatten a trace stream, expanding packed chunks into events."""
    for item in stream:
        if isinstance(item, PackedChunk):
            yield from decode_events(item.data)
        else:
            yield item


class TestTraceProperties:
    def test_single_processor_stream_is_well_formed(self):
        app = BarnesHut(n_bodies=32, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _BarnesHutRun(app, config)
        held = set()
        events = 0
        for event in iter_events(run.process(0)):
            events += 1
            if isinstance(event, LockAcquire):
                assert event.lock_id not in held
                held.add(event.lock_id)
            elif isinstance(event, LockRelease):
                assert event.lock_id in held
                held.remove(event.lock_id)
            elif isinstance(event, (Read, Write)):
                assert event.addr >= 0
            elif isinstance(event, Compute):
                assert event.cycles >= 0
        assert not held
        assert events > 500

    def test_addresses_stay_inside_allocations(self):
        app = BarnesHut(n_bodies=32, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _BarnesHutRun(app, config)
        lo = min(run.body_region.base, run.cell_region.base)
        hi = max(run.body_region.end, run.cell_region.end)
        for event in iter_events(run.process(0)):
            if isinstance(event, (Read, Write)):
                assert lo <= event.addr < hi


class TestDeterminism:
    def test_same_seed_same_execution_time(self):
        app = BarnesHut(n_bodies=48, steps=1, seed=11)
        config = small_config()
        first = run_simulation(config, app)
        second = run_simulation(config, app)
        assert first.execution_time == second.execution_time
        assert first.stats.total_scc.reads == second.stats.total_scc.reads

    def test_different_seeds_differ(self):
        config = small_config()
        first = run_simulation(config, BarnesHut(n_bodies=48, steps=1,
                                                 seed=1))
        second = run_simulation(config, BarnesHut(n_bodies=48, steps=1,
                                                  seed=2))
        assert first.execution_time != second.execution_time


class TestArchitecturalBehaviour:
    def test_sharing_reduces_per_cluster_misses(self):
        """The prefetching effect: two procs sharing an SCC miss less,
        per reference, than one proc with the same SCC."""
        app = BarnesHut(n_bodies=96, steps=2)
        solo = run_simulation(
            SystemConfig.paper_parallel(1, 4 * KB), app)
        shared = run_simulation(
            SystemConfig.paper_parallel(2, 4 * KB), app)
        assert shared.stats.read_miss_rate < solo.stats.read_miss_rate

    def test_invalidations_flat_with_cluster_width(self):
        app = BarnesHut(n_bodies=96, steps=2)
        narrow = run_simulation(
            SystemConfig.paper_parallel(1, 8 * KB), app)
        wide = run_simulation(
            SystemConfig.paper_parallel(4, 8 * KB), app)
        assert (wide.stats.total_invalidations
                < narrow.stats.total_invalidations * 1.5 + 50)


# ----------------------------------------------------------------------
# What a BarnesHut object remembers between runs (its cost seeds and
# force plans) must never show: a run on a used object is, byte for
# byte, the run a fresh object makes.
# ----------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not native_available(),
    reason=f"native replay backend unavailable: "
           f"{native_unavailable_reason()}")
ENGINES = [pytest.param("python", id="python"),
           pytest.param("native", id="native", marks=needs_native)]

GRID = [(procs, scc, protocol)
        for procs in (1, 2, 4, 8)
        for scc in (8 * KB, 128 * KB)
        for protocol in ("msi", "mesi")]


def new_app(**parameters):
    return BarnesHut(**{"n_bodies": 40, "steps": 2, **parameters})


def run_point(app, point, engine=None, packed=True):
    """Everything a run leaves behind: the machine's statistics and the
    tape of every processor's event stream (``packed=False``: the run of
    the stream decoded into event objects)."""
    procs, scc, protocol = point
    config = replace(SystemConfig.paper_parallel(procs, scc),
                     protocol=protocol)
    recorder = StreamRecorder(app if packed else unpacked(app))
    result = run_simulation(config, recorder, backend=engine)
    return (result.stats.as_dict(),
            {proc: tape.tobytes()
             for proc, tape in recorder.streams.items()})


def fresh_runs(packed, engine, points=GRID, **parameters):
    return {point: run_point(new_app(**parameters), point, engine, packed)
            for point in points}


def assert_remembered_equals_fresh(app, engine, fresh, packed=True):
    """Run ``fresh``'s points on the one ``app``, in an order of their
    own, each against the fresh object's run of the same point."""
    points = list(fresh)
    random.Random(7).shuffle(points)
    for point in points:
        stats, tapes = run_point(app, point, engine, packed)
        assert stats == fresh[point][0], point
        assert tapes == fresh[point][1], point


@pytest.fixture
def relocations(monkeypatch):
    """Every pre-order -> cell-index map the runs of one test took."""
    taken = []
    real = barnes_hut._cell_indexes

    def spy(cells):
        indexes = real(cells)
        taken.append(tuple(indexes.tolist()))
        return indexes

    monkeypatch.setattr(barnes_hut, "_cell_indexes", spy)
    return taken


def nudged_plummer(monkeypatch, ulps_of):
    """Sample the usual bodies, then move body 0's x up by
    ``ulps_of()`` units in the last place."""
    real = barnes_hut._plummer_bodies

    def nudged(count, rng):
        bodies = real(count, rng)
        for _ in range(ulps_of()):
            bodies[0].pos[0] = math.nextafter(bodies[0].pos[0], math.inf)
        return bodies

    monkeypatch.setattr(barnes_hut, "_plummer_bodies", nudged)


class TestRememberedRuns:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("packed", [True, False],
                             ids=["packed", "objects"])
    def test_grid_on_one_object_equals_fresh_objects(self, packed, engine,
                                                     relocations):
        fresh = fresh_runs(packed, engine)
        del relocations[:]
        app = new_app()
        assert_remembered_equals_fresh(app, engine, fresh, packed)
        # Not vacuously: the runs shared their walks (one plan per step
        # for all 16 machines) and did not share their addresses.
        assert len(app._plans) == app.steps
        assert len(relocations) == len(GRID) * app.steps
        assert len(set(relocations)) > app.steps

    @pytest.mark.parametrize("packed", [True, False],
                             ids=["packed", "objects"])
    def test_grid_without_the_extension(self, packed, relocations,
                                        monkeypatch):
        """The same on a host where the extension does not load, whose
        runs relocate in numpy (and run on the reference loop)."""
        from repro.trace.engine import native
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_mod", native._UNSET)
        monkeypatch.setattr(native, "LOAD_ERROR", native.LOAD_ERROR)
        self.test_grid_on_one_object_equals_fresh_objects(packed, "python",
                                                          relocations)
        assert native.load() is None

    @pytest.mark.parametrize("mutant", ["identity", "first run's"])
    def test_a_plan_used_without_relocation_is_caught(self, monkeypatch,
                                                      mutant):
        """The bug the grid test exists for -- a remembered walk naming
        cells where *another* run (or no run) put them -- fails it."""
        fresh = fresh_runs(True, None)
        first = {}

        def unrelocated(cells):
            if mutant == "identity":
                return np.arange(len(cells))
            return first.setdefault(
                len(cells), np.array([cell.index for cell in cells]))

        monkeypatch.setattr(barnes_hut, "_cell_indexes", unrelocated)
        with pytest.raises(AssertionError):
            assert_remembered_equals_fresh(new_app(), None, fresh)

    def test_coincident_bodies_on_two_machines(self, monkeypatch):
        """Two bodies a denormal apart end in a ``_MAX_DEPTH`` bucket
        whose slot order is arrival order -- the one place structure
        depends on the interleaving.  The key covers structure, so that
        is at worst a miss."""
        real = barnes_hut._plummer_bodies

        def coincident(count, rng):
            bodies = real(count, rng)
            bodies[0].pos = [0.0, 0.0, 0.0]
            bodies[1].pos = [5e-324, 0.0, 0.0]
            return bodies

        monkeypatch.setattr(barnes_hut, "_plummer_bodies", coincident)
        # (bodies enough that the chain of cells down to the bucket fits
        # the one processor's cell pool it comes out of)
        points = [(1, 8 * KB, "msi"), (2, 8 * KB, "msi")]
        fresh = fresh_runs(True, None, points, n_bodies=96, steps=1)
        app = new_app(n_bodies=96, steps=1)
        assert_remembered_equals_fresh(app, None, fresh)
        assert app.steps <= len(app._plans) <= app._plans_kept

    def test_one_ulp_is_a_miss(self, monkeypatch):
        ulps = 0
        nudged_plummer(monkeypatch, lambda: ulps)
        point = (2, 8 * KB, "msi")
        app = new_app()
        run_point(app, point)
        seeds, plans = set(app._seeded), set(app._plans)
        ulps = 1
        assert run_point(app, point) == run_point(new_app(), point)
        assert not seeds & set(app._seeded)
        assert len(set(app._plans) - plans) == app.steps

    def test_plans_kept_are_bounded_oldest_out(self, monkeypatch):
        ulps = 0
        nudged_plummer(monkeypatch, lambda: ulps)
        app = new_app(steps=1)
        seen = []
        for ulps in range(app._plans_kept + 2):
            run_point(app, (1, 8 * KB, "msi"))
            assert len(app._plans) <= app._plans_kept
            assert len(app._seeded) == 1
            seen += [key for key in app._plans if key not in seen]
        assert len(seen) == app._plans_kept + 2
        assert list(app._plans) == seen[-app._plans_kept:]

    def test_threads_sharing_one_object(self):
        """What ``LocalFabric(workers=2)`` does: threads of one process
        running different machines on the process's one object."""
        points = GRID[::4]
        fresh = fresh_runs(True, None, points)
        app = new_app()
        results, errors = {}, []

        def work(point):
            try:
                for _ in range(3):
                    results[point] = run_point(app, point)
            except Exception as error:     # reported by the assert below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(point,))
                   for point in points]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        assert results == fresh
        assert len(app._plans) <= app._plans_kept

    def test_what_is_stored_is_read_only(self):
        app = new_app()
        run_point(app, GRID[0])
        stored = [part for plan in app._plans.values() for part in plan]
        assert stored
        for part in stored:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 0


# ----------------------------------------------------------------------
# A run's force-phase words are written by the native extension's
# ``force_words``; numpy's ``_expand`` is what it must equal, word for word
# ----------------------------------------------------------------------

def force_kernel():
    from repro.trace.engine import native
    return native.load().force_words


def assert_kernel_equals_numpy(args):
    words = force_kernel()(*args)
    assert type(words) is list
    assert all(type(chunk) is array and chunk.typecode == "q"
               for chunk in words)
    assert ([chunk.tobytes() for chunk in words]
            == [chunk.tobytes() for chunk in barnes_hut._expand(*args)])
    return words


def random_relocation(seed, n_bodies=24, n_cells=10, procs=4,
                      walks=range(12), kinds=range(3), owned=None):
    """The arguments of one relocation over a seeded random plan:
    ``walks`` the lengths a walk is drawn from, ``kinds`` the visit
    kinds, ``owned`` (drawn when ``None``) each processor's share of a
    shuffled order."""
    rng = random.Random(seed)
    lengths = [rng.choice(walks) for _ in range(n_bodies)]
    visits = []
    for _ in range(sum(lengths)):
        kind = rng.choice(kinds)
        visits.append(rng.randrange(n_bodies if kind == 0 else n_cells) * 4
                      + kind)
    order = list(range(n_bodies))
    rng.shuffle(order)
    if owned is None:
        cuts = sorted(rng.randrange(n_bodies + 1) for _ in range(procs - 1))
        owned = np.diff([0, *cuts, n_bodies]).tolist()
    cells = np.array(rng.sample(range(4 * n_cells), n_cells))
    return (np.array(visits, dtype=np.int32),
            np.cumsum([0] + lengths).astype(np.int64),
            array("q", order), owned,
            (1 << 20) + np.arange(n_bodies) * 96,
            (1 << 24) + cells * 112,
            barnes_hut._FORCE_PATTERNS)


@needs_native
class TestForceKernel:
    def test_equals_numpy_on_every_quick_grid_tree(self, monkeypatch):
        """2 steps x 2p/8p x 8/128 KB (paper sizes) on the quick
        profile's object: every relocation the grid makes."""
        from types import SimpleNamespace
        from repro.experiments.spec import PROFILES
        profile = PROFILES["quick"]
        seen = []

        def checked(*args):
            seen.append(assert_kernel_equals_numpy(args))
            return seen[-1]

        monkeypatch.setattr(barnes_hut, "native", SimpleNamespace(
            load=lambda: SimpleNamespace(force_words=checked)))
        app = profile.barnes_hut()
        for procs in (2, 8):
            for scc in (8 * KB, 128 * KB):
                run_simulation(SystemConfig.paper_parallel(
                    procs, scc // profile.ladder_scale), app)
        assert len(seen) == 4 * app.steps
        assert {len(words) for words in seen} == {2 * 4, 8 * 4}

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_numpy_on_random_plans(self, seed):
        assert_kernel_equals_numpy(random_relocation(seed))

    @pytest.mark.parametrize("case", [
        {"owned": [0, 10, 0, 14]},
        {"n_bodies": 1, "procs": 1},
        {"n_bodies": 1, "procs": 3, "owned": [0, 0, 1]},
        {"walks": [0, 0, 3]},
        {"walks": [0]},
        {"kinds": [0]}, {"kinds": [1]}, {"kinds": [2]},
    ], ids=["a-processor-owns-no-body", "one-body-walk",
            "one-body-on-the-last-processor", "walks-with-no-visits",
            "no-walk-visits-anything", "bodies-only", "accepted-cells-only",
            "opened-cells-only"])
    def test_equals_numpy_at_the_edges(self, case):
        for seed in range(3):
            words = assert_kernel_equals_numpy(random_relocation(seed,
                                                                 **case))
        if case.get("owned"):
            assert [len(chunk) for chunk in words][0] == 0


# ----------------------------------------------------------------------
# The insert phase is under the chunk contract: packed or event by
# event, the same run
# ----------------------------------------------------------------------

class TestInsertChunks:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("procs", [2, 8])
    def test_packed_and_objects_are_one_run(self, procs, engine):
        """The lock-racing tree build yields chunks that end at every
        touch of the tree: the same statistics, and the same events on
        every processor's tape, as yielding them one by one."""
        point = (procs, 8 * KB, "msi")
        packed = run_point(new_app(), point, engine)
        assert packed == run_point(new_app(), point, engine, packed=False)
        # not vacuous: inserts raced (a lock was waited for)
        assert sum(proc["sync_stall_cycles"]
                   for proc in packed[0]["processors"]) > 0

    def test_buckets_fill_in_arrival_order_either_way(self, monkeypatch):
        """Bodies a denormal apart end in ``_MAX_DEPTH`` buckets, whose
        free-slot scan reads the tree: a chunk ends before it too."""
        real = barnes_hut._plummer_bodies

        def coincident(count, rng):
            bodies = real(count, rng)
            for k in range(12):     # enough to overflow one bucket
                bodies[k].pos = [k * 5e-324, 0.0, 0.0]
            return bodies

        monkeypatch.setattr(barnes_hut, "_plummer_bodies", coincident)
        point = (4, 8 * KB, "msi")
        parameters = {"n_bodies": 256, "steps": 1}
        packed = run_point(new_app(**parameters), point)
        assert packed == run_point(new_app(**parameters), point,
                                   packed=False)

    def test_a_chunk_ends_at_every_touch_of_the_tree(self):
        """Between two resumes of an inserting process lies exactly one
        racy touch: no insert-phase chunk carries events past a slot
        read, a lock acquire's re-read or a subcell's private write."""
        app = new_app(n_bodies=64, steps=1)
        config = SystemConfig.paper_parallel(2, 8 * KB)
        run = _BarnesHutRun(app, config)
        run._reset_tree()
        chunks = [item.data for item in run._insert_phase(0)]
        assert len(chunks) > 2 * len(run.assignments[0])
        for data in chunks[:-1]:
            kinds = [type(event) for event in decode_events(data)]
            assert kinds[-1] in (Read, Write)
            body = kinds[:-1]
            # what may ride along: the release of the last cell's lock
            # with its slot write, the next body's position read, the
            # descent's compute, the acquire before a re-read
            assert LockAcquire not in body[1:]
            assert body.count(LockRelease) <= 1
        assert [type(event) for event in decode_events(chunks[-1])] == [
            Write, LockRelease]
