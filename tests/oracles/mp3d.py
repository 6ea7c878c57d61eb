"""MP3D's processes on python generators: the reference
``mp3d_processes`` is held to.

One :class:`MP3DRun` is one run of a :class:`~repro.workloads.mp3d.MP3D`
on one machine configuration, and :meth:`MP3DRun.process` is processor
``proc``'s stream -- resume for resume the chunks of the C processes (a
step's sync tail, one chunk in C, is up to eight resumes here), with the
same physics in the same IEEE order and the same positions, velocities
and partner slots at the end.
"""

from __future__ import annotations

from typing import Generator, List

from repro.core.config import SystemConfig
from repro.trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                                Read, Write)
from repro.trace.packed import (OP_COMPUTE, OP_READ, OP_READ_SPAN, OP_WRITE,
                                OP_WRITE_SPAN, PackedChunk)
from repro.workloads.mp3d import (_ACCUM_COMPUTE, _CELL_ACCUM,
                                  _CELL_PARTNER, _CELL_RECORD,
                                  _COLLIDE_COMPUTE, _GLOBAL_LOCK,
                                  _MOVE_COMPUTE, _PARTICLE_POS,
                                  _PARTICLE_RECORD, _PARTICLE_VEL,
                                  _TABLE_SIZE, MP3D, _initial_state,
                                  _layout)


class MP3DRun:
    """Shared state of one MP3D run on python generators."""

    def __init__(self, app: MP3D, config: SystemConfig):
        self.app = app
        self.config = config
        self.n_procs = config.total_processors
        nx, ny, nz = app.grid
        self.n_cells = nx * ny * nz
        # The physics runs on python floats (``[x, y, z]`` per particle):
        # the same IEEE doubles as the numpy draws, component by
        # component, without an ``ndarray`` scalar per access.
        pos, vel, collision_draw = _initial_state(app)
        self.pos: List[List[float]] = pos.tolist()
        self.vel: List[List[float]] = vel.tolist()
        self.collision_draw: List[List[float]] = collision_draw.tolist()
        (self.particle_region, self.cell_region, self.globals_region,
         self.table_region) = _layout(app)
        # Last particle index seen in each cell (collision partner slot).
        self.cell_partner: List[int] = [-1] * self.n_cells
        # Static round-robin particle assignment: no locality, as in the
        # SPLASH code.
        self.assignment = [
            list(range(proc, app.n_particles, self.n_procs))
            for proc in range(self.n_procs)
        ]

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
        """Yield a built-up packed buffer as one chunk, if it is not empty."""
        if buf:
            yield PackedChunk(buf)

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
        # As often as it takes: the wedge speeds a particle up on every
        # visit, and above a speed of 1 one step can cross the tunnel.
        for axis in (1, 2):
            while True:
                if pos[axis] < 0.0:
                    pos[axis] = -pos[axis]
                    vel[axis] = -vel[axis]
                elif pos[axis] > 1.0:
                    pos[axis] = 2.0 - pos[axis]
                    vel[axis] = -vel[axis]
                else:
                    break
        while pos[0] > 1.0:
            pos[0] -= 1.0          # re-enter at the inlet
        while pos[0] < 0.0:
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


def processes(app: MP3D, config: SystemConfig):
    """What ``MP3D.processes`` returns, on the python generators."""
    run = MP3DRun(app, config)
    return {proc: run.process(proc) for proc in range(run.n_procs)}
