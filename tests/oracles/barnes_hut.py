"""Barnes-Hut's processes on python generators: the reference
``barnes_processes`` is held to.

One :class:`BarnesHutRun` is one run of a
:class:`~repro.workloads.barnes_hut.BarnesHut` on one machine
configuration, and :meth:`BarnesHutRun.process` is processor ``proc``'s
stream -- resume for resume the chunks, tree, deal and physics of the C
processes, with the same bodies (positions, velocities, costs) at the
end.  It starts from the object's cost seeds, as they do.

The record layouts, cycle costs and helpers are the workload's own; the
bodies are sampled through ``barnes_hut._plummer_bodies`` so a test that
patches it changes both programs alike.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.trace.events import Barrier, Compute, Write
from repro.trace.packed import (OP_COMPUTE, OP_LOCK_ACQ, OP_LOCK_REL,
                                OP_READ, OP_WRITE, PackedChunk)
from repro.workloads import barnes_hut
from repro.workloads.barnes_hut import (_BODY_ACC, _BODY_POS, _BODY_VEL,
                                        _CELL_CHILDREN, _CELL_COM,
                                        _CELL_LOCK_BASE, _INSERT_COMPUTE,
                                        _INTERACTION_COMPUTE, _MAX_DEPTH,
                                        _OPEN_TEST_COMPUTE,
                                        _PARTITION_COMPUTE, _UPDATE_COMPUTE,
                                        BarnesHut, Body, Cell,
                                        _bounding_cube, _layout,
                                        _seeded_costs)


class BarnesHutRun:
    """Shared state of one run on python generators (one per machine
    configuration)."""

    def __init__(self, app: BarnesHut, config: SystemConfig):
        self.app = app
        self.config = config
        self.n_procs = config.total_processors
        rng = np.random.default_rng(app.seed)
        self.bodies = barnes_hut._plummer_bodies(app.n_bodies, rng)
        self.body_region, self.cell_region = _layout(app)
        self.root: Optional[Cell] = None
        # Per-processor cell-index pools so parallel insertion needs no
        # global allocation lock (the SPLASH code uses per-process pools
        # the same way).
        pool = self.cell_region.count // self.n_procs
        self._cell_pool_next = [p * pool for p in range(self.n_procs)]
        self._cell_pool_end = [(p + 1) * pool for p in range(self.n_procs)]
        # Partition of bodies (tree order), recomputed after each build;
        # the first one deals the seeded costs.
        for body, cost in zip(self.bodies, _seeded_costs(app, self.bodies)):
            body.cost = cost
        self.assignments: List[List[Body]] = cluster_partition(
            list(self.bodies), config)
        self.levels: List[List[Cell]] = []

    # -- address helpers ------------------------------------------------

    def body_addr(self, body: Body, field: int) -> int:
        return self.body_region.record(body.index, field)

    def cell_addr(self, cell: Cell, field: int) -> int:
        return self.cell_region.record(cell.index, field)

    @staticmethod
    def cell_lock(cell: Cell) -> int:
        return _CELL_LOCK_BASE + cell.index

    def _flush(self, buf: Sequence[int]) -> Generator:
        """Yield a built-up packed buffer as one chunk, if it is not empty.

        Chunk safety (see repro.trace.packed): the summarize, force and
        update phases only read tree/body state that no other process
        mutates between the enclosing barriers, and their own mutations
        (cell.com, body.acc, body.vel/pos, body.cost) are read by other
        processes only after a later barrier -- so computing a whole
        phase's events up front observes exactly the values one event per
        resume would.  The *insert* phase races on per-cell locks: its
        chunks carry the lock operations and end at every touch of the
        tree (:meth:`_insert_phase`).
        """
        if buf:
            yield PackedChunk(buf)

    # -- process generators ----------------------------------------------

    def process(self, proc: int) -> Generator:
        """The event stream of processor ``proc``.

        Per step: processor 0 seeds a fresh root; everyone inserts its
        bodies in parallel under per-cell locks; centres of mass are
        computed level-parallel; processor 0 re-partitions in tree order;
        then the parallel force and integration phases.
        """
        n = self.n_procs
        for _ in range(self.app.steps):
            yield Barrier(0, n)
            if proc == 0:
                self._reset_tree()
                yield Write(self.cell_addr(self.root, _CELL_CHILDREN))
            yield Barrier(1, n)
            yield from self._insert_phase(proc)
            yield Barrier(2, n)
            if proc == 0:
                self._collect_levels()
            yield Barrier(3, n)
            yield from self._summarize_phase(proc)
            if proc == 0:
                self._partition()
            yield Compute(_PARTITION_COMPUTE * len(self.assignments[proc]))
            yield Barrier(4, n)
            yield from self._force_phase(proc)
            yield Barrier(5, n)
            yield from self._update_phase(proc)
            yield Barrier(6, n)

    # -- tree construction -------------------------------------------------

    def _reset_tree(self) -> None:
        pool = self.cell_region.count // self.n_procs
        self._cell_pool_next = [p * pool for p in range(self.n_procs)]
        # The root comes out of processor 0's pool.
        centre, half = _bounding_cube(self.bodies)
        self.root = self._new_cell(0, centre, half, depth=0)

    def _new_cell(self, proc: int, centre, half: float, depth: int) -> Cell:
        index = self._cell_pool_next[proc]
        if index >= self._cell_pool_end[proc]:
            raise RuntimeError(f"cell pool of processor {proc} exhausted")
        self._cell_pool_next[proc] = index + 1
        return Cell(index, centre, half, depth)

    def _insert_phase(self, proc: int) -> Generator:
        """Insert this processor's bodies with optimistic descent and
        per-cell locks.

        As in the SPLASH code, the descent reads child slots without
        locking; a lock is taken only on the cell whose slot must be
        mutated, and the slot is re-read under the lock in case another
        processor raced in (the descent then resumes from the freshly
        installed subtree).  Cells never move or disappear, so the
        optimistic read is safe.

        The tree is what processes race on, so a chunk ends at every
        touch of it -- the optimistic read, the re-read under the lock,
        a subcell's publishing, a bucket's free-slot scan -- and nowhere
        else: what lies between two touches (a lock's release with the
        descent to the next slot, or the next body's first step) rides
        in ``buf``, and every mutation happens at the resume it would
        happen at event by event.
        """
        buf: List[int] = []
        for body in self.assignments[proc]:
            buf += (OP_READ, self.body_addr(body, _BODY_POS))
            cell = self.root
            while True:
                if cell.depth >= _MAX_DEPTH:
                    # a bucket's slot depends on who got there first
                    yield from self._flush(buf)
                    buf = []
                octant = cell.slot_of(body.pos)
                slot = self.cell_addr(cell, _CELL_CHILDREN + octant * 8)
                buf += (OP_COMPUTE, _INSERT_COMPUTE, OP_READ, slot)
                yield from self._flush(buf)
                buf = []
                child = cell.children[octant]
                if isinstance(child, Cell):
                    cell = child
                    continue
                # Slot is empty or holds a body: mutate under the cell lock.
                lock = self.cell_lock(cell)
                yield from self._flush([OP_LOCK_ACQ, lock, OP_READ, slot])
                child = cell.children[octant]
                if isinstance(child, Cell):
                    # Raced: someone installed a subtree here meanwhile.
                    buf = [OP_LOCK_REL, lock]
                    cell = child
                    continue
                if child is None:
                    cell.children[octant] = body
                    buf = [OP_WRITE, slot, OP_LOCK_REL, lock]
                    break
                # The slot holds a body: split it into a subcell -- private
                # until it is published -- and resume the descent inside.
                subcell = self._new_cell(proc, *cell.subcell_cube(octant),
                                         cell.depth + 1)
                sub_octant = subcell.slot_of(child.pos)
                subcell.children[sub_octant] = child
                yield from self._flush([
                    OP_READ, self.body_addr(child, _BODY_POS),
                    OP_WRITE, self.cell_addr(
                        subcell, _CELL_CHILDREN + sub_octant * 8)])
                cell.children[octant] = subcell
                buf = [OP_WRITE, slot, OP_LOCK_REL, lock]
                cell = subcell
        yield from self._flush(buf)

    def _collect_levels(self) -> None:
        """Group cells by depth for the level-parallel summarize phase."""
        levels: List[List[Cell]] = []
        stack = [self.root]
        while stack:
            cell = stack.pop()
            while len(levels) <= cell.depth:
                levels.append([])
            levels[cell.depth].append(cell)
            for child in cell.children:
                if isinstance(child, Cell):
                    stack.append(child)
        self.levels = levels

    def _summarize_phase(self, proc: int) -> Generator:
        """Centre-of-mass computation, deepest level first.

        Within a level cells are independent, so each processor takes a
        contiguous block (DFS collection order is roughly spatial order,
        which keeps a cluster's cells spatially close); a barrier
        separates levels because parents read their children's results.
        """
        n = self.n_procs
        for depth in range(len(self.levels) - 1, -1, -1):
            level = self.levels[depth]
            lo = (proc * len(level)) // n
            hi = ((proc + 1) * len(level)) // n
            buf: List[int] = []
            for cell in level[lo:hi]:
                self._summarize_cell(cell, buf)
            yield from self._flush(buf)
            yield Barrier(7, n)

    def _summarize_cell(self, cell: Cell, buf: List[int]) -> None:
        mass = 0.0
        com = [0.0, 0.0, 0.0]
        for child in cell.children:
            if child is None:
                continue
            if isinstance(child, Cell):
                buf += (OP_READ, self.cell_addr(child, _CELL_COM))
                child_mass, child_com = child.mass, child.com
            else:
                buf += (OP_READ, self.body_addr(child, _BODY_POS))
                child_mass, child_com = child.mass, child.pos
            mass += child_mass
            for axis in range(3):
                com[axis] += child_mass * child_com[axis]
        if mass > 0.0:
            for axis in range(3):
                com[axis] /= mass
        cell.mass = mass
        cell.com = com
        buf += (OP_WRITE, self.cell_addr(cell, _CELL_COM),
                OP_COMPUTE, _INTERACTION_COMPUTE)

    # -- partitioning -----------------------------------------------------

    def _partition(self) -> None:
        """Assign contiguous runs of tree-ordered bodies to processors.

        Tree order (the in-order walk of the leaves) puts spatially
        adjacent bodies next to each other, so neighbouring processors --
        and therefore processors in the same cluster -- receive adjacent
        regions of space.  This is the property behind the paper's
        intra-cluster prefetching observation.

        Chunks are weighted by each body's interaction count from the
        previous force phase (SPLASH's costzones strategy), which keeps
        the force phase load-balanced even though central bodies interact
        far more than peripheral ones.
        """
        self.assignments = cluster_partition(
            tree_ordered_bodies(self.root), self.config)

    # -- force computation -------------------------------------------------

    def _force_phase(self, proc: int) -> Generator:
        """Walk the tree for each of this processor's bodies: its
        acceleration and cost onto the body, every visit's words into
        one chunk.  Nothing a walk reads moves before barrier 5."""
        buf: List[int] = []
        for body in self.assignments[proc]:
            buf += (OP_READ, self.body_addr(body, _BODY_POS))
            body.acc, body.cost = self._gravity(body, buf)
            buf += (OP_WRITE, self.body_addr(body, _BODY_ACC),
                    OP_WRITE, self.body_addr(body, _BODY_ACC + 16))
        yield from self._flush(buf)

    def _gravity(self, body: Body, buf: List[int]):
        """Traverse the tree accumulating acceleration on ``body``,
        writing each visit's words into ``buf``; returns the acceleration
        with the body's cost (its interaction count).

        Operation for operation the C processes' walk: interaction
        physics is inlined in the same IEEE order.
        """
        eps2 = self.app.softening ** 2
        theta2 = self.app.theta ** 2
        interactions = 0
        bx, by, bz = body.pos
        ax = ay = az = 0.0
        stack: List[object] = [self.root]
        while stack:
            node = stack.pop()
            if node.__class__ is Body:
                if node is body:
                    continue
                pos = self.body_addr(node, _BODY_POS)
                buf += (OP_READ, pos, OP_READ, pos + 16,
                        OP_COMPUTE, _INTERACTION_COMPUTE)
                src = node.pos
                dx = src[0] - bx
                dy = src[1] - by
                dz = src[2] - bz
                dist2 = dx * dx + dy * dy + dz * dz + eps2
                inv = node.mass / (dist2 * math.sqrt(dist2))
                ax += dx * inv
                ay += dy * inv
                az += dz * inv
                interactions += 1
                continue
            cell = node
            com_addr = self.cell_addr(cell, _CELL_COM)
            buf += (OP_READ, com_addr, OP_READ, com_addr + 16,
                    OP_COMPUTE, _OPEN_TEST_COMPUTE)
            com = cell.com
            dx = com[0] - bx
            dy = com[1] - by
            dz = com[2] - bz
            dist2 = dx * dx + dy * dy + dz * dz + eps2
            size = 2.0 * cell.half
            if size * size < dist2 * theta2:
                # Far enough: use the cell's centre-of-mass approximation.
                buf += (OP_COMPUTE, _INTERACTION_COMPUTE)
                inv = cell.mass / (dist2 * math.sqrt(dist2))
                ax += dx * inv
                ay += dy * inv
                az += dz * inv
                interactions += 1
                continue
            children = self.cell_addr(cell, _CELL_CHILDREN)
            buf += (OP_READ, children, OP_READ, children + 32)
            for child in cell.children:
                if child is not None:
                    stack.append(child)
        return [ax, ay, az], max(interactions, 1)

    # -- integration ---------------------------------------------------------

    def _update_phase(self, proc: int) -> Generator:
        dt = self.app.dt
        buf: List[int] = []
        for body in self.assignments[proc]:
            vel = self.body_addr(body, _BODY_VEL)
            pos = self.body_addr(body, _BODY_POS)
            buf += (OP_READ, self.body_addr(body, _BODY_ACC), OP_READ, vel)
            for axis in range(3):
                body.vel[axis] += body.acc[axis] * dt
                body.pos[axis] += body.vel[axis] * dt
            buf += (OP_WRITE, vel, OP_WRITE, vel + 16, OP_READ, pos,
                    OP_WRITE, pos, OP_WRITE, pos + 16,
                    OP_COMPUTE, _UPDATE_COMPUTE)
        yield from self._flush(buf)


def cost_chunks(ordered: List[Body], n_chunks: int) -> List[List[Body]]:
    """Split tree-ordered bodies into contiguous chunks of roughly equal
    total cost (the costzones idea)."""
    total = sum(body.cost for body in ordered)
    target = total / n_chunks
    chunks: List[List[Body]] = [[] for _ in range(n_chunks)]
    accumulated = 0.0
    for body in ordered:
        slot = min(int(accumulated / target), n_chunks - 1)
        chunks[slot].append(body)
        accumulated += body.cost
    return chunks


def cluster_partition(ordered: List[Body],
                      config: SystemConfig) -> List[List[Body]]:
    """Two-level partition: contiguous cost-balanced chunks per *cluster*,
    then a round-robin deal to the processors within each cluster.

    The deal is what makes cluster-mates work on bodies that are adjacent
    in the tree *at the same time*: processor ``i`` and processor ``i+1``
    of a cluster hold interleaved bodies of the same zone, so they walk
    nearly identical interaction lists in near lock-step.  That is the
    mechanism behind the paper's observation that "one processor
    effectively brings in data to the cache which will be used by the
    remaining processors in the cluster before it is replaced"
    (Section 3.1.1).
    """
    per_cluster = cost_chunks(ordered, config.clusters)
    assignments: List[List[Body]] = []
    for chunk in per_cluster:
        for port in range(config.processors_per_cluster):
            assignments.append(chunk[port::config.processors_per_cluster])
    return assignments


def tree_ordered_bodies(root: Cell) -> List[Body]:
    """Bodies in the in-order (depth-first, octant-ordered) walk."""
    ordered: List[Body] = []
    stack: List[object] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Body):
            ordered.append(node)
            continue
        for child in reversed(node.children):
            if child is not None:
                stack.append(child)
    return ordered
