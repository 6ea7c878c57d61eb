"""Tests for the instrumented MP3D application."""

import numpy as np
import pytest

from repro.core.config import KB, SystemConfig
from repro.simulation import run_simulation
from repro.trace.events import Read, Write
from repro.workloads.mp3d import MP3D, _MP3DRun


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
        run = _MP3DRun(app, small_config())
        seen = sorted(p for mine in run.assignment for p in mine)
        assert seen == list(range(100))


class TestGeometry:
    def test_cell_index_in_range(self):
        app = MP3D(n_particles=200, steps=1)
        run = _MP3DRun(app, small_config())
        for particle in range(200):
            assert 0 <= run.cell_index_of(particle) < run.n_cells

    def test_particles_stay_in_the_tunnel(self):
        app = MP3D(n_particles=100, steps=4)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _MP3DRun(app, config)
        from repro.core.system import MultiprocessorSystem
        from repro.trace.interleave import TimingInterleaver
        interleaver = TimingInterleaver(MultiprocessorSystem(config))
        interleaver.add_process(0, run.process(0))
        interleaver.run()
        pos = np.asarray(run.pos)
        assert (pos >= -1e-9).all()
        assert (pos <= 1.0 + 1e-9).all()


def iter_events(stream):
    """Flatten a trace stream, expanding packed chunks into events."""
    from repro.trace.packed import PackedChunk, decode_events
    for item in stream:
        if isinstance(item, PackedChunk):
            yield from decode_events(item.data)
        else:
            yield item


class TestTraceProperties:
    def test_addresses_stay_inside_allocations(self):
        app = MP3D(n_particles=60, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _MP3DRun(app, config)
        regions = (run.particle_region, run.cell_region,
                   run.globals_region, run.table_region)
        for event in iter_events(run.process(0)):
            if isinstance(event, (Read, Write)):
                assert any(r.contains(event.addr) for r in regions), \
                    hex(event.addr)

    def test_space_cells_are_written(self):
        """The migratory accumulator updates must appear in the trace --
        they are the invalidation source the paper studies."""
        app = MP3D(n_particles=60, steps=1)
        config = SystemConfig(clusters=1, processors_per_cluster=1)
        run = _MP3DRun(app, config)
        cell_writes = sum(
            1 for event in iter_events(run.process(0))
            if isinstance(event, Write)
            and run.cell_region.contains(event.addr))
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
