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
"""

from __future__ import annotations

from typing import Dict, Generator, List

import numpy as np

from ..core.config import SystemConfig
from ..trace.events import Barrier, Compute, LockAcquire, LockRelease, Read, Write
from ..trace.packed import (OP_COMPUTE, OP_READ, OP_READ_SPAN, OP_WRITE,
                            OP_WRITE_SPAN, PackedChunk, decode_events)
from .base import TracedApplication
from .memory import SharedHeap

__all__ = ["MP3D"]

# Record layouts.
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
        run = _MP3DRun(self, config)
        return {proc: run.process(proc)
                for proc in range(config.total_processors)}


class _MP3DRun:
    """Shared state of one MP3D run."""

    def __init__(self, app: MP3D, config: SystemConfig):
        self.app = app
        self.config = config
        self.n_procs = config.total_processors
        nx, ny, nz = app.grid
        self.n_cells = nx * ny * nz
        rng = np.random.default_rng(app.seed)
        # Particles enter from the left with a strong +x drift (hypersonic
        # free stream) plus thermal scatter.  The draws are numpy's; the
        # physics then runs on python floats (``[x, y, z]`` per particle):
        # the same IEEE doubles, component by component, without an
        # ``ndarray`` scalar per access.
        pos = rng.uniform(0.0, 1.0, size=(app.n_particles, 3))
        pos[:, 0] *= 0.5                 # start in the left half
        vel = rng.normal(scale=0.015, size=(app.n_particles, 3))
        vel[:, 0] += 0.03                # free-stream drift
        self.pos: List[List[float]] = pos.tolist()
        self.vel: List[List[float]] = vel.tolist()
        # Per-particle RNGs would be slow; draw per-step random numbers in
        # bulk, deterministically.
        self._rng = rng
        heap = SharedHeap()
        self.particle_region = heap.alloc_array(
            "particles", app.n_particles, _PARTICLE_RECORD)
        self.cell_region = heap.alloc_array(
            "space", self.n_cells, _CELL_RECORD)
        self.globals_region = heap.alloc("globals", 64)
        # Read-only collision cross-section lookup table (read-shared by
        # every processor; its lines live SHARED in every SCC).
        self.table_region = heap.alloc("xsection", _TABLE_SIZE)
        # Last particle index seen in each cell (collision partner slot).
        self.cell_partner: List[int] = [-1] * self.n_cells
        # Static round-robin particle assignment: no locality, as in the
        # SPLASH code.
        self.assignment = [
            list(range(proc, app.n_particles, self.n_procs))
            for proc in range(self.n_procs)
        ]
        # Pre-drawn collision coin flips, one per particle per step.
        self.collision_draw: List[List[float]] = rng.uniform(
            size=(app.steps, app.n_particles)).tolist()

    # -- geometry -----------------------------------------------------------

    def cell_index_of(self, particle: int) -> int:
        nx, ny, nz = self.app.grid
        px, py, pz = self.pos[particle]
        x = min(int(px * nx), nx - 1)
        y = min(int(py * ny), ny - 1)
        z = min(int(pz * nz), nz - 1)
        return (x * ny + y) * nz + z

    def _in_wedge(self, particle: int) -> bool:
        """The wedge model: a ramp in the middle of the tunnel floor."""
        x, y, _ = self.pos[particle]
        return 0.45 <= x <= 0.75 and y <= (x - 0.45) * 1.2

    # -- process generators ---------------------------------------------------

    def process(self, proc: int) -> Generator:
        mine = self.assignment[proc]
        for step in range(self.app.steps):
            yield from self._move_phase(proc, mine, step)
            yield Barrier(0, self.n_procs)
            if proc == 0:
                yield from self._bookkeeping()
            yield Barrier(1, self.n_procs)

    def _flush(self, buf: List[int]) -> Generator:
        """Yield a built-up packed buffer in the form the app is set to."""
        if not buf:
            return
        if self.app.packed:
            yield PackedChunk(buf)
        else:
            yield from decode_events(buf)

    def _move_phase(self, proc: int, mine: List[int],
                    step: int) -> Generator:
        """One step's worth of particle moves, emitted as packed chunks.

        Chunk safety (see repro.trace.packed): the racy state here is
        ``cell_partner`` (read to pick a collision partner, written after)
        and particle velocities (a collision writes the *partner's*
        record, which any processor may own).  Each chunk therefore ends
        exactly where the event-at-a-time generator resumed to touch that
        state: after the move compute (``_advance``), after the
        partner-slot read (``partner = cell_partner[cell]``), after the
        collide compute (``_collide``), and after the collide writes
        (``cell_partner[cell] = particle``, whose trailing partner-slot
        write is carried into the next particle's first chunk).  Within a
        chunk only this particle's own addresses -- functions of its index
        and its own position -- are touched.
        """
        pbase = self.particle_region.base
        cbase = self.cell_region.base
        tbase = self.table_region.base
        cell_partner = self.cell_partner
        draws = self.collision_draw[step]
        p_col = self.app.collision_probability
        buf: List[int] = []
        for particle in mine:
            # Load the particle (position and velocity are contiguous, so
            # one span covers all six fields), look up the read-only
            # cross-section table, and charge the move.
            paddr = pbase + particle * _PARTICLE_RECORD
            table_slot = (particle * 37 + step * 11) % (_TABLE_SIZE // 8)
            buf += (OP_READ_SPAN, paddr + _PARTICLE_POS, 48, 8,
                    OP_READ, tbase + table_slot * 8,
                    OP_READ, tbase + (table_slot * 8 + 256) % _TABLE_SIZE,
                    OP_COMPUTE, _MOVE_COMPUTE)
            yield from self._flush(buf)
            self._advance(particle)
            # Write the moved position; update the space-cell accumulators
            # (globally shared, migratory data -- the source of MP3D's
            # invalidation traffic); read the collision-partner slot.
            cell = self.cell_index_of(particle)
            caddr = cbase + cell * _CELL_RECORD
            buf = [OP_WRITE_SPAN, paddr + _PARTICLE_POS, 24, 8,
                   OP_READ_SPAN, caddr + _CELL_ACCUM, 24, 8,
                   OP_COMPUTE, _ACCUM_COMPUTE,
                   OP_WRITE_SPAN, caddr + _CELL_ACCUM, 24, 8,
                   OP_READ, caddr + _CELL_PARTNER]
            yield from self._flush(buf)
            # Collision: pair with the last particle that visited this
            # cell, whoever owns it.
            partner = cell_partner[cell]
            if (partner >= 0 and partner != particle
                    and draws[particle] < p_col):
                vaddr = pbase + partner * _PARTICLE_RECORD + _PARTICLE_VEL
                myvel = paddr + _PARTICLE_VEL
                buf = [OP_READ_SPAN, vaddr, 24, 8,
                       OP_COMPUTE, _COLLIDE_COMPUTE]
                yield from self._flush(buf)
                self._collide(particle, partner)
                buf = [OP_WRITE, vaddr, OP_WRITE, myvel,
                       OP_WRITE, vaddr + 8, OP_WRITE, myvel + 8,
                       OP_WRITE, vaddr + 16, OP_WRITE, myvel + 16]
                yield from self._flush(buf)
            cell_partner[cell] = particle
            buf = [OP_WRITE, caddr + _CELL_PARTNER]
        yield from self._flush(buf)

    def _bookkeeping(self) -> Generator:
        """Per-step global statistics update (lock-protected)."""
        yield LockAcquire(_GLOBAL_LOCK)
        yield Read(self.globals_region.addr(0))
        yield Compute(20)
        yield Write(self.globals_region.addr(0))
        yield LockRelease(_GLOBAL_LOCK)

    # -- physics --------------------------------------------------------------

    def _advance(self, particle: int) -> None:
        """Ballistic move with reflecting walls and the wedge."""
        pos = self.pos[particle]
        vel = self.vel[particle]
        pos[0] += vel[0]
        pos[1] += vel[1]
        pos[2] += vel[2]
        # Reflect off tunnel walls in y and z; recycle in x (wind tunnel).
        for axis in (1, 2):
            if pos[axis] < 0.0:
                pos[axis] = -pos[axis]
                vel[axis] = -vel[axis]
            elif pos[axis] > 1.0:
                pos[axis] = 2.0 - pos[axis]
                vel[axis] = -vel[axis]
        if pos[0] > 1.0:
            pos[0] -= 1.0          # re-enter at the inlet
        elif pos[0] < 0.0:
            pos[0] += 1.0
        if self._in_wedge(particle):
            vel[0] = -abs(vel[0]) * 0.8   # bounce back off the ramp
            vel[1] = abs(vel[1]) + 0.02

    def _collide(self, particle: int, partner: int) -> None:
        """Hard-sphere-like velocity exchange with mixing."""
        v1 = self.vel[particle]
        v2 = self.vel[partner]
        self.vel[particle] = [0.5 * (a + b) + 0.5 * (b - a)
                              for a, b in zip(v1, v2)]
        self.vel[partner] = [0.5 * (a + b) + 0.5 * (a - b)
                             for a, b in zip(v1, v2)]
