"""Tests for the instrumented MP3D application."""

import json

import numpy as np
import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.spec import PROCS_SWEPT, PROFILES
from repro.simulation import run_simulation
from repro.trace.engine import native
from repro.trace.events import Read, Write
from repro.trace.packed import PackedChunk, decode_events, encode_events
from repro.trace.record import StreamRecorder
from repro.workloads.base import TracedApplication
from repro.workloads.mp3d import MP3D, _KernelRun, _layout

from ..conftest import unpacked
from ..equivalence.test_golden_stats import GOLDEN, fingerprint, run_key
from ..oracles import mp3d as oracle
from ..oracles.mp3d import MP3DRun


def small_config(procs=2, clusters=2):
    return SystemConfig(clusters=clusters, processors_per_cluster=procs,
                        scc_size=8 * KB)


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MP3D(n_particles=0)
        with pytest.raises(ValueError):
            MP3D(steps=0)
        with pytest.raises(ValueError):
            MP3D(grid=(1, 4, 4))
        with pytest.raises(ValueError):
            MP3D(collision_probability=1.5)

    def test_every_particle_is_assigned_once(self):
        app = MP3D(n_particles=100, steps=1)
        run = MP3DRun(app, small_config())
        seen = sorted(p for mine in run.assignment for p in mine)
        assert seen == list(range(100))


class TestGeometry:
    def test_cell_index_in_range(self):
        app = MP3D(n_particles=200, steps=1)
        run = MP3DRun(app, small_config())
        for particle in range(200):
            assert 0 <= run.cell_index_of(particle) < run.n_cells

    def test_particles_stay_in_the_tunnel(self):
        app = MP3D(n_particles=100, steps=4)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = MP3DRun(app, config)
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        interleaver = TimingInterleaver(MultiprocessorSystem(config))
        interleaver.add_process(0, run.process(0))
        interleaver.run()
        pos = np.asarray(run.pos)
        assert (pos >= -1e-9).all()
        assert (pos <= 1.0 + 1e-9).all()

    @pytest.mark.parametrize("path", [
        "python", "kernel"])
    def test_a_particle_faster_than_the_tunnel_stays_inside(self, path):
        """The wedge adds 0.02 to ``|vel_y|`` on every visit; past a speed
        of 1 one reflection off a wall used to leave a particle outside
        the tunnel (``pos_y`` -5.2 on a 2,000-step run), its cell index
        negative and its accumulator address below the space cells, until
        an ``IndexError`` ended the run.  Both paths now fold it back in,
        and agree on every word and the final state."""
        app = MP3D(n_particles=1, steps=60)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        nx, ny, nz = app.grid
        regions = _layout(app)
        if path == "python":
            run = MP3DRun(app, config)
            process, pos, vel = run.process(0), run.pos[0], run.vel[0]
        else:
            run = _KernelRun(app, config)
            process, pos, vel = run.processes[0], run.pos[0], run.vel[0]
        vel[:] = [0.3, 1.7, -2.9]
        words = []
        for item in process:
            assert all(0.0 <= coordinate <= 1.0 for coordinate in pos)
            cell = ((min(int(pos[0] * nx), nx - 1) * ny
                     + min(int(pos[1] * ny), ny - 1)) * nz
                    + min(int(pos[2] * nz), nz - 1))
            assert 0 <= cell < nx * ny * nz
            words += packed_words(item)
        for event in decode_events(words):
            if isinstance(event, (Read, Write)):
                assert any(region.contains(event.addr)
                           for region in regions), hex(event.addr)
        assert abs(vel[1]) > 1 and abs(vel[2]) > 1     # (not vacuous)
        if path == "kernel":
            reference = MP3DRun(app, config)
            reference.vel[0][:] = [0.3, 1.7, -2.9]
            assert words == [word for item in reference.process(0)
                             for word in packed_words(item)]
            assert list(pos) == reference.pos[0]
            assert list(vel) == reference.vel[0]


def packed_words(item):
    """What a process yielded -- a chunk, or an event object -- as words."""
    if type(item) is PackedChunk:
        return list(item.data)
    return encode_events([item]).tolist()


def iter_events(stream):
    """Flatten a trace stream, expanding packed chunks into events."""
    for item in stream:
        if isinstance(item, PackedChunk):
            yield from decode_events(item.data)
        else:
            yield item


class TestTraceProperties:
    def test_addresses_stay_inside_allocations(self):
        app = MP3D(n_particles=60, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        regions = _layout(app)
        for event in iter_events(app.processes(config)[0]):
            if isinstance(event, (Read, Write)):
                assert any(r.contains(event.addr) for r in regions), \
                    hex(event.addr)

    def test_space_cells_are_written(self):
        """The migratory accumulator updates must appear in the trace --
        they are the invalidation source the paper studies."""
        app = MP3D(n_particles=60, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        _, cells, _, _ = _layout(app)
        cell_writes = sum(
            1 for event in iter_events(app.processes(config)[0])
            if isinstance(event, Write) and cells.contains(event.addr))
        assert cell_writes >= 60  # several per particle-step


class TestDeterminism:
    def test_same_seed_reproduces(self):
        app = MP3D(n_particles=120, steps=2, seed=3)
        config = small_config()
        assert (run_simulation(config, app).execution_time
                == run_simulation(config, app).execution_time)


class TestArchitecturalBehaviour:
    def test_invalidations_flat_with_cluster_width(self):
        """Section 3.1.2: adding processors to a cluster does not raise
        inter-cluster invalidation traffic."""
        app = MP3D(n_particles=300, steps=2)
        narrow = run_simulation(SystemConfig.paper_parallel(1, 8 * KB), app)
        wide = run_simulation(SystemConfig.paper_parallel(4, 8 * KB), app)
        assert (wide.stats.total_invalidations
                < narrow.stats.total_invalidations * 1.4 + 50)

    def test_large_caches_scale_better_than_small(self):
        app = MP3D(n_particles=300, steps=2)

        def self_relative(size):
            slow = run_simulation(SystemConfig.paper_parallel(1, size), app)
            fast = run_simulation(SystemConfig.paper_parallel(8, size), app)
            return slow.execution_time / fast.execution_time

        assert self_relative(64 * KB) > self_relative(1 * KB)


# ----------------------------------------------------------------------
# The C processes (``mp3d_processes`` in ``_native.c``) against their
# reference, ``MP3DRun.process`` in tests/oracles/mp3d.py: event for
# event, and the same state after
# ----------------------------------------------------------------------

#: Small enough for the reference loop, with every processor of a
#: 32-processor machine owning particles, a few wedge bounces and some
#: 25 collisions a run (the default probability gives about 6).
PROCESS_APP = dict(n_particles=120, steps=3, collision_probability=0.8)


class GivenProcesses(TracedApplication):
    """One run's processes, already made."""

    name = "mp3d"

    def __init__(self, processes):
        self._processes = processes

    def processes(self, config):
        return self._processes


def recorded_run(processes, config, backend, decoded=False):
    """Statistics, events and every processor's stream, decoded, of one
    run of ``processes`` (their chunks decoded into one event object per
    resume first, with ``decoded``)."""
    app = GivenProcesses(processes)
    recorder = StreamRecorder(unpacked(app) if decoded else app)
    result = run_simulation(config, recorder, backend=backend)
    return (json.dumps(result.stats.as_dict(), sort_keys=True),
            result.events_processed,
            {proc: list(decode_events(stream))
             for proc, stream in recorder.streams.items()})


def assert_process_matches(seed, procs, scc, backend):
    """One point on the C processes -- their chunks as yielded, and decoded
    into event objects -- and on ``MP3DRun.process``: the same events,
    statistics and final positions, velocities and partner slots."""
    app = MP3D(seed=seed, **PROCESS_APP)
    config = SystemConfig.paper_parallel(procs, scc)
    reference = MP3DRun(app, config)
    expected = recorded_run({proc: reference.process(proc)
                             for proc in range(reference.n_procs)},
                            config, backend)
    for decoded in (False, True):
        run = _KernelRun(app, config)
        assert recorded_run(dict(enumerate(run.processes)), config, backend,
                            decoded) == expected, decoded
        assert run.pos.tolist() == reference.pos
        assert run.vel.tolist() == reference.vel
        assert run.cell_partner.tolist() == reference.cell_partner


def quick_row_stats():
    """Every quick-profile MP3D point of the parallel grid's two end
    rungs, and every MP3D golden's fingerprint."""
    profile = PROFILES["quick"]
    rows = {(procs, scc): run_simulation(
                SystemConfig.paper_parallel(procs,
                                            scc // profile.ladder_scale),
                profile.mp3d()).stats.as_dict()
            for procs in PROCS_SWEPT for scc in (8 * KB, 128 * KB)}
    goldens = {key: fingerprint(run_key(key))
               for key in GOLDEN if key.startswith("mp3d|")}
    return rows, goldens


class TestMp3dProcess:
    @pytest.mark.parametrize("backend", ["python", "native"])
    @pytest.mark.parametrize("scc", [8 * KB, 128 * KB])
    @pytest.mark.parametrize("procs", PROCS_SWEPT)
    @pytest.mark.parametrize("seed", [7, 11])
    def test_equals_the_python_process(self, seed, procs, scc, backend):
        assert_process_matches(
            seed, procs, scc // PROFILES["quick"].ladder_scale, backend)

    def test_quick_rows_and_goldens_equal_without_it(self, monkeypatch):
        """{1, 2, 4, 8}p x 8 KB/128 KB of the quick grid and the MP3D
        goldens: the same statistics on the C processes and on the
        oracle's generators run by the reference loop."""
        rows, goldens = quick_row_stats()
        assert goldens == {key: GOLDEN[key] for key in goldens}
        monkeypatch.setattr(MP3D, "processes", oracle.processes)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert quick_row_stats() == (rows, goldens)

    def test_a_native_run_resumes_nothing(self):
        """``run`` steps an MP3D process itself; resumed through the
        iterator protocol -- by the reference loop, or by ``run`` behind a
        python wrapper -- it counts once per call."""
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver

        class Counted:
            def __init__(self, process):
                self.process, self.calls = process, 0

            def __iter__(self):
                return self

            def __next__(self):
                self.calls += 1
                return next(self.process)

        app = MP3D(**PROCESS_APP)
        config = SystemConfig.paper_parallel(2, 1 * KB)
        outcomes = []
        for backend, wrapped in [("native", False), ("native", True),
                                 ("python", False), ("python", True)]:
            interleaver = TimingInterleaver(MultiprocessorSystem(config),
                                            backend=backend)
            processes = {proc: Counted(process) if wrapped else process
                         for proc, process in app.processes(config).items()}
            for proc, process in processes.items():
                interleaver.add_process(proc, process)
            finish = interleaver.run()
            assert interleaver.engine_used == backend
            calls = (sum(process.calls for process in processes.values())
                     if wrapped else None)
            outcomes.append((finish, interleaver.generator_resumes, calls))
        (finish, native_resumes, _), *others = outcomes
        assert native_resumes == 0
        assert all(other[0] == finish for other in others)
        # every resume is one call, whichever engine makes it
        counted = others[0][2]
        assert counted > 700
        assert [other[1:] for other in others] == [
            (counted, counted), (counted, None), (counted, counted)]

    def test_a_partner_slot_rewritten_mid_run_is_refused(self):
        """The slots are read in place: one a caller scribbles over names
        no particle, and the resume that reads it raises instead of
        indexing outside the velocities."""
        run = _KernelRun(MP3D(n_particles=4, steps=1),
                         SystemConfig(clusters=1, processors_per_cluster=1))
        process, = run.processes
        next(process)           # the load
        next(process)           # the move and the accumulator update
        run.cell_partner[:] = 4
        with pytest.raises(ValueError, match="names particle 4 of 4"):
            next(process)


# ----------------------------------------------------------------------
# ``mp3d_processes`` is an entry point any caller reaches: everything is
# checked before a process exists
# ----------------------------------------------------------------------

def _mp3d_args(**change):
    """Three particles on a 2x2x2 grid, two steps, two processors, with
    ``change`` applied."""
    args = {
        "pos": np.full((3, 3), 0.5),
        "vel": np.full((3, 3), 0.01),
        "cell_partner": np.full(8, -1, dtype=np.int64),
        "draws": np.full((2, 3), 0.5),
        "steps": 2,
        "grid": (2, 2, 2),
        "n_procs": 2,
        "collision_probability": 0.2,
        "bases": (1 << 28, 1 << 29, 1 << 30, (1 << 30) + 64),
        "chunk_type": PackedChunk,
    }
    args.update(change)
    return args


def _hostile(name, **change):
    return pytest.param(change, id=name)


def _one(at, value, shape=(3, 3)):
    """A 0.5-filled float64 array with one entry replaced."""
    array = np.full(shape, 0.5)
    array.flat[at] = value
    return array


class TestMp3dProcessInputs:
    def test_the_checked_arguments_make_processes(self):
        processes = native.load().mp3d_processes(*_mp3d_args().values())
        assert len(processes) == 2
        assert all(type(chunk) is PackedChunk
                   for process in processes for chunk in process)

    @pytest.mark.parametrize("change", [
        _hostile("pos-a-list", pos=[0.5] * 9),
        _hostile("pos-float32", pos=np.full((3, 3), 0.5, dtype=np.float32)),
        _hostile("pos-int64", pos=np.zeros((3, 3), dtype=np.int64)),
        _hostile("pos-not-contiguous", pos=np.full((3, 6), 0.5)[:, ::2]),
        _hostile("pos-not-triples", pos=np.full(8, 0.5)),
        _hostile("no-particles", pos=np.zeros((0, 3)), vel=np.zeros((0, 3)),
                 draws=np.zeros((2, 0))),
        _hostile("vel-one-particle-short", vel=np.full((2, 3), 0.01)),
        _hostile("partner-int32", cell_partner=np.full(8, -1,
                                                       dtype=np.int32)),
        _hostile("partner-float64", cell_partner=np.full(8, -1.0)),
        _hostile("partner-grid-mismatch",
                 cell_partner=np.full(9, -1, dtype=np.int64)),
        _hostile("partner-past-the-particles",
                 cell_partner=np.array([-1] * 7 + [3], dtype=np.int64)),
        _hostile("partner-below-none",
                 cell_partner=np.array([-2] + [-1] * 7, dtype=np.int64)),
        _hostile("draws-one-step-short", draws=np.full((1, 3), 0.5)),
        _hostile("draws-one-particle-short", draws=np.full((2, 2), 0.5)),
        _hostile("draws-float32", draws=np.full((2, 3), 0.5,
                                                dtype=np.float32)),
        _hostile("steps-zero", steps=0, draws=np.zeros((0, 3))),
        _hostile("steps-negative", steps=-2),
        _hostile("steps-huge", steps=1 << 40),
        _hostile("steps-past-int64", steps=1 << 70),
        _hostile("grid-two-sizes", grid=(2, 4)),
        _hostile("grid-size-one", grid=(1, 2, 4),
                 cell_partner=np.full(8, -1, dtype=np.int64)),
        _hostile("grid-huge", grid=(1 << 21, 1, 1)),
        _hostile("grid-negative", grid=(-2, -2, 2)),
        _hostile("grid-a-list", grid=[2, 2, 2]),
        _hostile("procs-zero", n_procs=0),
        _hostile("procs-negative", n_procs=-1),
        _hostile("procs-huge", n_procs=1 << 20),
        _hostile("probability-negative", collision_probability=-0.1),
        _hostile("probability-above-one", collision_probability=1.5),
        _hostile("probability-nan", collision_probability=float("nan")),
        _hostile("three-bases", bases=(0, 0, 0)),
        _hostile("base-negative", bases=(-16, 0, 0, 0)),
        _hostile("base-past-2**60", bases=(0, 1 << 60, 0, 0)),
        _hostile("position-nan", pos=_one(4, np.nan)),
        _hostile("position-inf", pos=_one(0, np.inf)),
        _hostile("position-below-the-floor", pos=_one(4, -0.25)),
        _hostile("position-past-the-roof", pos=_one(8, 1.5)),
        _hostile("velocity-nan", vel=_one(2, np.nan)),
        _hostile("velocity-inf", vel=_one(3, -np.inf)),
        _hostile("velocity-huge", vel=_one(5, 1e6)),
        _hostile("chunk-type-not-a-class", chunk_type=3),
    ])
    def test_hostile_inputs_raise_before_a_process_exists(self, change):
        args = _mp3d_args(**change)
        buffers = {name: np.array(args[name], copy=True)
                   for name in ("pos", "vel", "cell_partner")
                   if isinstance(args[name], np.ndarray)}
        with pytest.raises((ValueError, TypeError, OverflowError,
                            BufferError)):
            native.load().mp3d_processes(*args.values())
        for name, before in buffers.items():
            assert np.array_equal(args[name], before, equal_nan=True), name

    def test_a_read_only_state_is_refused(self):
        pos = np.full((3, 3), 0.5)
        pos.flags.writeable = False
        with pytest.raises((ValueError, BufferError)):
            native.load().mp3d_processes(*_mp3d_args(pos=pos).values())
