"""Instrumented MP3D rarefied-flow simulation (SPLASH equivalent).

Section 2.2.1's second parallel benchmark: a particle-based Monte Carlo
simulation of rarefied hypersonic flow around an object in a wind tunnel.
The SPLASH code's defining memory behaviour -- and the reason the paper
uses it -- is its *lack of locality*: particles are statically assigned to
processors but fly freely through the discretised wind tunnel, so the
space-cell accumulators they update are written by every processor in the
machine.  On snoopy machines that write sharing makes invalidation misses
the limiting factor (Section 3.1.2); on the clustered architecture the
invalidation traffic between clusters stays flat as processors are added
to a cluster, because cluster-mates coalesce their updates in the shared
SCC copy.

This module implements the simulation for real (particles move ballistic
paths, reflect off the tunnel walls and the wedge, and collide
probabilistically with partners in their cell) and emits every shared
reference:

* per particle per step: read position/velocity, write position, read and
  write the space-cell accumulator record (the migratory data);
* collisions read-modify-write the *partner particle's* record, which may
  belong to any processor -- the classic MP3D cross-processor traffic;
* global step counters are updated under a lock by processor 0.

Like the paper's runs, particles are dealt round-robin (no locality by
construction) and each step ends at a barrier.

The processes are the native extension's (``mp3d_processes``,
``trace/engine/_native.c``), one kind of its C process: an iterator
whose chunks are ``PackedChunk``s of an ``array('q')``, and which a
native run steps without resuming anything.  Their python twin, the
reference the tests hold them to resume for resume, is
``tests/oracles/mp3d.py``.  Nothing of a run can be remembered for the
next: the partner slots and the partners' velocities every processor
reads and writes make each stream depend on the interleaving.
"""

from __future__ import annotations

from typing import Dict, Generator, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..trace.engine import native
from ..trace.packed import PackedChunk
from .base import TracedApplication
from .memory import ArrayRegion, Region, SharedHeap

__all__ = ["MP3D"]

# Record layouts; ``M3_*`` in _native.c mirrors them and the cycle costs
# below.
_PARTICLE_RECORD = 48   # pos @0 (24 B), vel @24 (24 B)
_PARTICLE_POS = 0
_PARTICLE_VEL = 24
_CELL_RECORD = 32       # density/momentum accumulators + partner slot
_CELL_ACCUM = 0
_CELL_PARTNER = 24      # slot remembering the last particle seen (for
                        # collision pairing), as in the SPLASH code
_TABLE_SIZE = 2048      # read-only collision cross-section table (bytes)

_MOVE_COMPUTE = 60      # ballistic move + boundary handling
_COLLIDE_COMPUTE = 60   # collision mechanics
_ACCUM_COMPUTE = 15     # cell accumulator update

_GLOBAL_LOCK = 0


class MP3D(TracedApplication):
    """MP3D wind-tunnel simulation, instrumented for tracing.

    The paper ran 10,000 particles for 5 steps; the reproduction default
    is scaled down (DESIGN.md's scaling note).  ``grid`` is the wind
    tunnel discretisation ``(nx, ny, nz)``; a wedge occupying the centre
    of the tunnel reflects particles, as in the original benchmark.
    """

    name = "mp3d"

    def __init__(self, n_particles: int = 900, steps: int = 5,
                 grid=(16, 16, 8), collision_probability: float = 0.2,
                 seed: int = 7):
        if n_particles < 1:
            raise ValueError("need at least one particle")
        if steps < 1:
            raise ValueError("need at least one step")
        if any(dim < 2 for dim in grid):
            raise ValueError("grid dimensions must each be >= 2")
        if not 0.0 <= collision_probability <= 1.0:
            raise ValueError("collision_probability must be in [0, 1]")
        self.n_particles = n_particles
        self.steps = steps
        self.grid = tuple(grid)
        self.collision_probability = collision_probability
        self.seed = seed

    def __repr__(self) -> str:
        return (f"MP3D(n_particles={self.n_particles}, steps={self.steps}, "
                f"grid={self.grid}, "
                f"collision_probability={self.collision_probability}, "
                f"seed={self.seed})")

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        return dict(enumerate(_KernelRun(self, config).processes))


def _initial_state(app: MP3D) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities (``(n_particles, 3)`` each) and the collision
    coin flips (``(steps, n_particles)``) a run starts from."""
    rng = np.random.default_rng(app.seed)
    # Particles enter from the left with a strong +x drift (hypersonic
    # free stream) plus thermal scatter.
    pos = rng.uniform(0.0, 1.0, size=(app.n_particles, 3))
    pos[:, 0] *= 0.5                 # start in the left half
    vel = rng.normal(scale=0.015, size=(app.n_particles, 3))
    vel[:, 0] += 0.03                # free-stream drift
    # Per-particle RNGs would be slow; draw per-step random numbers in
    # bulk, deterministically: one coin flip per particle per step.
    return pos, vel, rng.uniform(size=(app.steps, app.n_particles))


def _layout(app: MP3D) -> Tuple[ArrayRegion, ArrayRegion, Region, Region]:
    """The shared heap of a run: the particles, the space cells, the
    global counters and the read-only collision cross-section table (read
    by every processor; its lines live SHARED in every SCC)."""
    nx, ny, nz = app.grid
    heap = SharedHeap()
    return (heap.alloc_array("particles", app.n_particles, _PARTICLE_RECORD),
            heap.alloc_array("space", nx * ny * nz, _CELL_RECORD),
            heap.alloc("globals", 64),
            heap.alloc("xsection", _TABLE_SIZE))


class _KernelRun:
    """One MP3D run whose processes are C's: the particles' state, in the
    numpy buffers the processes read and write in place."""

    def __init__(self, app: MP3D, config: SystemConfig):
        self.pos, self.vel, draws = _initial_state(app)
        regions = _layout(app)
        self.cell_partner = np.full(regions[1].count, -1, dtype=np.int64)
        self.processes = native.load().mp3d_processes(
            self.pos, self.vel, self.cell_partner, draws, app.steps,
            app.grid, config.total_processors, app.collision_probability,
            tuple(region.base for region in regions), PackedChunk)
