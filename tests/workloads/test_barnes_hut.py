"""Tests for the instrumented Barnes-Hut application."""

import math
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.spec import PROCS_SWEPT, PROFILES
from repro.simulation import run_simulation
from repro.trace.engine import native
from repro.trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                                Read, Write)
from repro.trace.packed import PackedChunk, decode_events
from repro.trace.record import StreamRecorder
from repro.workloads import barnes_hut
from repro.workloads.barnes_hut import (BarnesHut, Body, Cell,
                                        _bounding_cube, _KernelRun,
                                        _quiet_build)

from ..conftest import unpacked
from ..oracles import barnes_hut as oracle
from ..oracles.barnes_hut import (BarnesHutRun, cost_chunks,
                                  tree_ordered_bodies)
from .test_mp3d import GivenProcesses, packed_words, recorded_run

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

    @pytest.mark.parametrize("value", [0.0, -0.5, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["softening", "dt"])
    def test_softening_and_dt_must_be_finite_and_positive(self, name,
                                                           value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite and positive$"):
            BarnesHut(**{name: value})

    @pytest.mark.parametrize("count", [2, 192, 1024])
    def test_plummer_bodies_hold_the_per_element_doubles(self, count):
        """The bodies carry, bit for bit, the python floats ``float()``
        of each sampled element makes: the same draws, converted one
        coordinate at a time."""
        bodies = barnes_hut._plummer_bodies(count, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        radii = 1.0 / np.sqrt(
            rng.uniform(0.1, 1.0, count) ** (-2.0 / 3.0) - 0.9)
        directions = rng.normal(size=(count, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        positions = directions * radii[:, None]
        velocities = rng.normal(scale=0.1, size=(count, 3))

        def bits(values):
            return [(type(x), float.hex(x)) for x in values]

        assert [body.index for body in bodies] == list(range(count))
        assert {body.mass for body in bodies} == {1.0 / count}
        for body, pos, vel in zip(bodies, positions, velocities):
            assert bits(body.pos) == bits([float(x) for x in pos])
            assert bits(body.vel) == bits([float(v) for v in vel])

    def test_processes_covers_every_processor(self):
        app = BarnesHut(n_bodies=32, steps=1)
        config = small_config()
        processes = app.processes(config)
        assert sorted(processes) == list(range(config.total_processors))


class TestOctree:
    def test_quiet_build_holds_every_body_once(self):
        app = BarnesHut(n_bodies=64, steps=1)
        run = BarnesHutRun(app, small_config())
        root = _quiet_build(run.bodies)
        ordered = tree_ordered_bodies(root)
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
        run = BarnesHutRun(app, config)

        class ThisRun:      # BarnesHut.processes, keeping hold of the run
            def processes(self, config):
                return {proc: run.process(proc)
                        for proc in range(config.total_processors)}

        assert run_simulation(config, ThisRun()).execution_time > 0
        ordered = tree_ordered_bodies(run.root)
        assert sorted(b.index for b in ordered) == list(range(24))
        deepest = max(len(run.levels) - 1, 0)
        assert barnes_hut._MAX_DEPTH < deepest <= barnes_hut._MAX_DEPTH + 2

    def test_bounding_cube_covers_all_bodies(self):
        app = BarnesHut(n_bodies=64, steps=1)
        run = BarnesHutRun(app, small_config())
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
        chunks = cost_chunks(bodies, 3)
        flattened = [b.index for chunk in chunks for b in chunk]
        assert flattened == list(range(10))

    def test_costs_balance_chunks(self):
        bodies = [Body(i, [0, 0, 0], [0, 0, 0], 1.0) for i in range(100)]
        for body in bodies:
            body.cost = 1 + (body.index % 7)
        chunks = cost_chunks(bodies, 4)
        costs = [sum(b.cost for b in chunk) for chunk in chunks]
        assert max(costs) < 1.5 * min(costs)


class TestPhysics:
    def test_momentum_is_roughly_conserved(self):
        """Equal-mass gravity is symmetric, so total momentum drift per
        step stays near zero (softened forces are exactly pairwise)."""
        app = BarnesHut(n_bodies=48, steps=2, theta=0.1)  # near-exact
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=64 * KB)
        run = BarnesHutRun(app, config)
        before = [sum(b.vel[axis] * b.mass for b in run.bodies)
                  for axis in range(3)]
        system_result = run_simulation(config, app)
        assert system_result.execution_time > 0
        # Re-derive from a fresh run object driven through simulation.
        run2 = BarnesHutRun(app, config)
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
        run = BarnesHutRun(app, config)
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
        held = set()
        events = 0
        for event in iter_events(app.processes(config)[0]):
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
        bodies, cells = barnes_hut._layout(app)
        lo = min(bodies.base, cells.base)
        hi = max(bodies.end, cells.end)
        for event in iter_events(app.processes(config)[0]):
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
# What a BarnesHut object remembers between runs (its cost seeds) must
# never show: a run on a used object is, byte for byte, the run a fresh
# object makes.
# ----------------------------------------------------------------------

ENGINES = ["python", "native"]

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
    def test_grid_on_one_object_equals_fresh_objects(self, packed, engine):
        fresh = fresh_runs(packed, engine)
        app = new_app()
        assert_remembered_equals_fresh(app, engine, fresh, packed)
        # Not vacuously: one cost seeding served all 16 machines.
        assert len(app._seeded) == 1

    def test_coincident_bodies_on_two_machines(self, monkeypatch):
        """Two bodies a denormal apart end in a ``_MAX_DEPTH`` bucket
        whose slot order is arrival order -- the one place structure
        depends on the interleaving.  The seeds are worked out from the
        positions alone, so one serves both machines."""
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
        assert len(app._seeded) == 1

    def test_one_ulp_is_a_miss(self, monkeypatch):
        ulps = 0
        nudged_plummer(monkeypatch, lambda: ulps)
        point = (2, 8 * KB, "msi")
        app = new_app()
        run_point(app, point)
        seeds = set(app._seeded)
        ulps = 1
        assert run_point(app, point) == run_point(new_app(), point)
        assert not seeds & set(app._seeded)
        assert len(app._seeded) == 1

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
        assert len(app._seeded) == 1


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
        coincident(monkeypatch, 12)
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
        run = BarnesHutRun(app, config)
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


# ----------------------------------------------------------------------
# The C processes (``barnes_processes`` in ``_native.c``) against their
# reference, ``BarnesHutRun.process`` in tests/oracles/barnes_hut.py:
# event for event, and the same bodies after
# ----------------------------------------------------------------------

def quick_point(procs, scc):
    """The quick profile's object and its Figure-2 machine of ``procs``
    processors per cluster and a paper-size ``scc``."""
    profile = PROFILES["quick"]
    return profile.barnes_hut(), SystemConfig.paper_parallel(
        procs, scc // profile.ladder_scale)


def reference_processes(run):
    return {proc: run.process(proc) for proc in range(run.n_procs)}


def kernel_run(app, config):
    return _KernelRun(app, config)


def coincident(monkeypatch, count):
    """The usual bodies, the first ``count`` of them a denormal apart."""
    real = barnes_hut._plummer_bodies

    def crowded(n, rng):
        bodies = real(n, rng)
        for k in range(count):
            bodies[k].pos = [k * 5e-324, 0.0, 0.0]
        return bodies

    monkeypatch.setattr(barnes_hut, "_plummer_bodies", crowded)


def assert_process_matches(app, config, backend):
    """One machine on the C processes -- their chunks as yielded, and
    decoded into event objects -- and on ``BarnesHutRun.process``: the
    same events, statistics and final positions, velocities and
    costs."""
    reference = BarnesHutRun(app, config)
    expected = recorded_run(reference_processes(reference), config,
                            backend)
    for decoded in (False, True):
        run = kernel_run(app, config)
        assert recorded_run(dict(enumerate(run.processes)), config,
                            backend, decoded) == expected, decoded
        assert run.pos.tolist() == [body.pos for body in reference.bodies]
        assert run.vel.tolist() == [body.vel for body in reference.bodies]
        assert run.cost.tolist() == [body.cost
                                     for body in reference.bodies]


class TestBarnesHutProcess:
    @pytest.mark.parametrize("backend", ["python", "native"])
    @pytest.mark.parametrize("scc", [8 * KB, 128 * KB])
    @pytest.mark.parametrize("procs", PROCS_SWEPT)
    def test_equals_the_python_process(self, procs, scc, backend):
        assert_process_matches(*quick_point(procs, scc), backend)

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_buckets_fill_in_arrival_order_alike(self, backend,
                                                 monkeypatch):
        """Twelve bodies a denormal apart overflow a ``_MAX_DEPTH``
        bucket into another; a bucket's slots go to whoever gets there
        first."""
        coincident(monkeypatch, 12)
        assert_process_matches(BarnesHut(n_bodies=256, steps=1),
                               SystemConfig.paper_parallel(4, 8 * KB),
                               backend)

    def test_resume_for_resume_on_one_processor(self):
        app = new_app()
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        expected = [packed_words(item)
                    for item in BarnesHutRun(app, config).process(0)]
        process, = kernel_run(app, config).processes
        assert [packed_words(item) for item in process] == expected

    def test_a_native_run_resumes_nothing(self):
        """``run`` steps a Barnes-Hut process itself: the quick
        ``fig2_cold`` machines resume no generator, where the python
        processes are resumed thousands of times."""
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        resumes = []
        for procs in (2, 8):
            app, config = quick_point(procs, 8 * KB)
            for processes in (
                    dict(enumerate(kernel_run(app, config).processes)),
                    reference_processes(BarnesHutRun(app, config))):
                interleaver = TimingInterleaver(
                    MultiprocessorSystem(config), backend="native")
                for proc, process in processes.items():
                    interleaver.add_process(proc, process)
                interleaver.run()
                assert interleaver.engine_used == "native"
                resumes.append(interleaver.generator_resumes)
        assert resumes[0] == resumes[2] == 0
        assert min(resumes[1], resumes[3]) > 2000

    @pytest.mark.parametrize("path", ["python", "kernel"])
    def test_an_exhausted_cell_pool_raises_where_the_generator_does(
            self, path):
        """Eight cell records dealt to sixteen processors: processor 0's
        pool is empty before it seeds the root."""
        app = BarnesHut(n_bodies=2, steps=1)
        config = SystemConfig(clusters=4, processors_per_cluster=4)
        processes = (reference_processes(BarnesHutRun(app, config))
                     if path == "python" else
                     dict(enumerate(kernel_run(app, config).processes)))
        with pytest.raises(RuntimeError,
                           match="cell pool of processor 0 exhausted"):
            run_simulation(config, GivenProcesses(processes))

    def test_a_cost_rewritten_mid_run_is_refused(self):
        """The costs are read in place: one a caller scribbles over is
        refused by the partition that deals it."""
        run = kernel_run(new_app(steps=1),
                         SystemConfig(clusters=1, processors_per_cluster=1))
        process, = run.processes
        next(process)
        run.cost[:] = 0
        with pytest.raises(ValueError, match="cost 0 lies outside"):
            list(process)


# ----------------------------------------------------------------------
# A processor charges ``_PARTITION_COMPUTE`` per body it owns after the
# last summarize barrier, counted at its own resume: one that resumes
# before processor 0 has dealt the step's bodies charges the last deal.
# A modeling quirk, kept for golden stability -- and both paths must
# keep it alike
# ----------------------------------------------------------------------

def partition_charges(events):
    """Per step: what a processor's partition compute charged, and what
    its share of the step's own deal would have cost."""
    charged, owned, updating = [], [], False
    for before, event in zip(events, events[1:]):
        if type(event) is Barrier:
            if event.barrier_id == 4:
                charged.append(before.cycles)
            updating = event.barrier_id == 5
            if updating:
                owned.append(0)
        elif updating and type(event) is Compute:
            owned[-1] += barnes_hut._PARTITION_COMPUTE
    return list(zip(charged, owned))


class TestPartitionComputeRace:
    @pytest.mark.parametrize("procs", [2, 8])
    def test_python_and_c_charge_the_same_stale_deal(self, procs,
                                                     monkeypatch):
        """The generator's computes, counted against the deals made by
        then, include stale ones; the C processes charge every one of
        them alike."""
        app, config = quick_point(procs, 8 * KB)
        deals, read = [], []
        real_partition, real_compute = (BarnesHutRun._partition,
                                        oracle.Compute)

        def partition(run):
            real_partition(run)
            deals.append(run)

        def compute(cycles):
            read.append(len(deals))
            return real_compute(cycles)

        monkeypatch.setattr(BarnesHutRun, "_partition", partition)
        monkeypatch.setattr(oracle, "Compute", compute)
        expected = recorded_run(
            reference_processes(BarnesHutRun(app, config)), config,
            "native")[2]
        monkeypatch.undo()
        streams = recorded_run(
            dict(enumerate(kernel_run(app, config).processes)), config,
            "native")[2]
        assert ({proc: partition_charges(events)
                 for proc, events in streams.items()}
                == {proc: partition_charges(events)
                    for proc, events in expected.items()})
        # a step's computes come after the deals of the steps before it;
        # one that comes before the step's own deal read the last one
        n = config.total_processors
        stale = [sum(made == step for made in read[step * n:(step + 1) * n])
                 for step in range(app.steps)]
        assert sum(stale) > 0, stale


# ----------------------------------------------------------------------
# ``barnes_processes`` is an entry point any caller reaches: everything
# is checked before a process exists
# ----------------------------------------------------------------------

def _barnes_args(**change):
    """Three bodies, two steps, two clusters of one processor, with
    ``change`` applied."""
    args = {
        "pos": np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6],
                         [0.7, -0.8, 0.9]]),
        "vel": np.full((3, 3), 0.01),
        "mass": np.full(3, 1 / 3),
        "cost": np.ones(3, dtype=np.int64),
        "steps": 2,
        "theta": 0.55,
        "softening": 0.05,
        "dt": 0.025,
        "n_procs": 2,
        "partition": (2, 1),
        "bases": (1 << 28, 1 << 29),
        "chunk_type": PackedChunk,
    }
    args.update(change)
    return args


def _hostile(name, **change):
    return pytest.param(change, id=name)


def _one(at, value, shape=(3, 3)):
    """A 0.5-filled float64 array with one entry replaced."""
    values = np.full(shape, 0.5)
    values.flat[at] = value
    return values


class TestBarnesHutProcessInputs:
    def test_the_checked_arguments_make_processes(self):
        processes = native.load().barnes_processes(*_barnes_args().values())
        assert len(processes) == 2
        config = SystemConfig(clusters=2, processors_per_cluster=1)
        result = run_simulation(config,
                                GivenProcesses(dict(enumerate(processes))))
        assert result.execution_time > 0

    @pytest.mark.parametrize("change", [
        _hostile("pos-a-list", pos=[0.5] * 9),
        _hostile("pos-float32", pos=np.full((3, 3), 0.5, dtype=np.float32)),
        _hostile("pos-int64", pos=np.zeros((3, 3), dtype=np.int64)),
        _hostile("pos-not-contiguous", pos=np.full((3, 6), 0.5)[:, ::2]),
        _hostile("pos-not-triples", pos=np.full(8, 0.5)),
        _hostile("one-body", pos=np.full((1, 3), 0.5),
                 vel=np.zeros((1, 3)), mass=np.ones(1),
                 cost=np.ones(1, dtype=np.int64)),
        _hostile("no-bodies", pos=np.zeros((0, 3)), vel=np.zeros((0, 3)),
                 mass=np.zeros(0), cost=np.zeros(0, dtype=np.int64)),
        _hostile("vel-one-body-short", vel=np.full((2, 3), 0.01)),
        _hostile("mass-one-body-short", mass=np.ones(2)),
        _hostile("mass-int64", mass=np.ones(3, dtype=np.int64)),
        _hostile("cost-int32", cost=np.ones(3, dtype=np.int32)),
        _hostile("cost-float64", cost=np.ones(3)),
        _hostile("cost-one-body-short", cost=np.ones(2, dtype=np.int64)),
        _hostile("cost-zero", cost=np.array([1, 0, 1], dtype=np.int64)),
        _hostile("cost-negative", cost=np.array([1, 1, -5],
                                                dtype=np.int64)),
        _hostile("cost-past-2**28", cost=np.array([1, (1 << 28) + 1, 1],
                                                  dtype=np.int64)),
        _hostile("position-nan", pos=_one(4, np.nan)),
        _hostile("position-inf", pos=_one(0, -np.inf)),
        _hostile("velocity-nan", vel=_one(2, np.nan)),
        _hostile("velocity-inf", vel=_one(8, np.inf)),
        _hostile("mass-nan", mass=np.array([1.0, np.nan, 1.0])),
        _hostile("mass-inf", mass=np.array([np.inf, 1.0, 1.0])),
        _hostile("steps-zero", steps=0),
        _hostile("steps-negative", steps=-2),
        _hostile("steps-huge", steps=1 << 40),
        _hostile("steps-past-int64", steps=1 << 70),
        _hostile("theta-zero", theta=0.0),
        _hostile("theta-nan", theta=float("nan")),
        _hostile("softening-negative", softening=-0.05),
        _hostile("softening-inf", softening=float("inf")),
        _hostile("dt-zero", dt=0.0),
        _hostile("dt-nan", dt=float("nan")),
        _hostile("procs-zero", n_procs=0, partition=(0, 0)),
        _hostile("procs-huge", n_procs=1 << 20, partition=(1 << 10, 1 << 10)),
        _hostile("partition-mismatch", partition=(2, 2)),
        _hostile("partition-no-clusters", partition=(0, 2)),
        _hostile("partition-one-count", partition=(2,)),
        _hostile("partition-a-list", partition=[2, 1]),
        _hostile("one-base", bases=(1 << 28,)),
        _hostile("base-negative", bases=(-96, 1 << 29)),
        _hostile("body-records-overflow", bases=((1 << 60) - 96, 0)),
        _hostile("cell-records-overflow", bases=(0, (1 << 60) - 1000)),
        _hostile("base-past-int64", bases=(1 << 70, 0)),
        _hostile("chunk-type-not-a-class", chunk_type=3),
    ])
    def test_hostile_inputs_raise_before_a_process_exists(self, change):
        args = _barnes_args(**change)
        buffers = {name: np.array(args[name], copy=True)
                   for name in ("pos", "vel", "cost")
                   if isinstance(args[name], np.ndarray)}
        with pytest.raises((ValueError, TypeError, OverflowError,
                            BufferError)):
            native.load().barnes_processes(*args.values())
        for name, before in buffers.items():
            assert np.array_equal(args[name], before, equal_nan=True), name

    @pytest.mark.parametrize("name", ["pos", "vel", "cost"])
    def test_a_read_only_state_is_refused(self, name):
        args = _barnes_args()
        args[name].flags.writeable = False
        with pytest.raises((ValueError, BufferError)):
            native.load().barnes_processes(*args.values())

    @pytest.mark.parametrize("name", ["softening", "dt"])
    def test_the_constructor_refuses_with_the_kernels_message(self, name):
        with pytest.raises(ValueError) as kernel:
            native.load().barnes_processes(
                *_barnes_args(**{name: -1.0}).values())
        with pytest.raises(ValueError) as constructor:
            BarnesHut(**{name: -1.0})
        assert str(constructor.value) == str(kernel.value)
