"""Instrumented Barnes-Hut N-body simulation (SPLASH equivalent).

Section 2.2.1's first parallel benchmark: a hierarchical N-body code that
builds an octree over the bodies each time step and computes forces by
traversing it with an opening criterion.  This module really implements
the algorithm -- bodies move under gravity, the octree is rebuilt from the
new positions every step -- and emits a trace event for every shared-data
reference, so the locality phenomena the paper analyses arise from the
data structures themselves:

* bodies are partitioned among processors in **tree order** (the in-order
  walk of the octree's leaves), so processors with adjacent ids work on
  spatially adjacent bodies and "traverse the same regions of the tree at
  around the same times" (Section 3.1.1) -- the source of the
  intra-cluster prefetching effect;
* the octree is built **in parallel** with hand-over-hand per-cell locks,
  as in the SPLASH code; centres of mass are computed level-parallel,
  deepest level first;
* cells are read-shared during force computation and each body's
  accelerations/positions are written only by its owner, so invalidation
  traffic does not grow with processors per cluster.

Scaled down from the paper's 1024 bodies, with the footprint/cache-size
ratio preserved by scaling the SCC ladder by the matching factor (see
DESIGN.md).

The processes are the native extension's (``barnes_processes``,
``trace/engine/_native.c``) when it loads, :meth:`_BarnesHutRun.process`
generators when it does not -- resume for resume the same chunks, tree
and physics either way.  A sweep prices many machine configurations of
this one program, and a :class:`BarnesHut` object remembers between runs
what no configuration can change: the cost-seeding pre-pass, which both
start from, and, for the generators alone, each tree's *force plan* --
every body's walk with no address in it (:class:`_ForcePlan`).  Which
cell sits at which address is decided by lock races during insertion, so
each run fills the addresses in from its own tree with :func:`_expand`
(DESIGN.md section 7, "What a workload object may remember between
runs").  The C processes keep no plan: they walk a tree in less time
than looking its plan up and relocating it takes.
"""

from __future__ import annotations

import math
from array import array
from typing import (Dict, Generator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.config import SystemConfig
from ..trace.engine import native
from ..trace.events import Barrier, Compute, Write
from ..trace.packed import (OP_COMPUTE, OP_LOCK_ACQ, OP_LOCK_REL, OP_READ,
                            OP_WRITE, PackedChunk)
from .base import TracedApplication
from .memory import ArrayRegion, SharedHeap

__all__ = ["BarnesHut", "Body", "Cell"]

# Record layouts (byte offsets within a record).
_BODY_RECORD = 96      # pos @0 (24 B), vel @32 (24 B), acc @64 (24 B), mass @88
_BODY_POS = 0
_BODY_VEL = 32
_BODY_ACC = 64
_CELL_RECORD = 112     # centre of mass @0 (24 B), mass @24, children @48 (64 B)
_CELL_COM = 0
_CELL_CHILDREN = 48

# Cycle costs for the arithmetic between references.
_INTERACTION_COMPUTE = 22   # one body-cell or body-body interaction
_OPEN_TEST_COMPUTE = 8      # evaluating the opening criterion
_UPDATE_COMPUTE = 16        # leapfrog integration of one body
_INSERT_COMPUTE = 6         # one level of tree descent during insertion
_PARTITION_COMPUTE = 40     # per-body share of the partitioning pass

# Lock-id namespace: cell locks start here (cell index + base).
_CELL_LOCK_BASE = 100

# Cells this deep stop halving space.  Halving never separates bodies
# that are coincident for the model's purposes (0.0 next to 5e-324: the
# cell size underflows first), so without a bound such a pair splits
# cells until memory runs out.  The paper workloads reach depth 6-8.
_MAX_DEPTH = 32

# Child-slot codes in a tree's content key (a body is its index, >= 0).
_SLOT_EMPTY = -1
_SLOT_CELL = -2


def _pattern(*events: Tuple[int, int]):
    """A fixed run of ``(opcode, operand)`` events as packed words, and
    which of those words are offsets from the address of the record the
    run is about (every operand but a ``Compute``'s cycles)."""
    words = tuple(word for event in events for word in event)
    relative = tuple(flag for op, _ in events
                     for flag in (0, int(op != OP_COMPUTE)))
    return words, relative


# What one node visit of the force walk emits, by visit kind: the low two
# bits of a plan word (the rest is the node: a body's index, or a cell's
# pre-order number in its tree).
_VISIT_BODY, _VISIT_ACCEPTED, _VISIT_OPENED = range(3)
_VISIT_WORDS = (
    # another body: read its position, interact
    _pattern((OP_READ, _BODY_POS), (OP_READ, _BODY_POS + 16),
             (OP_COMPUTE, _INTERACTION_COMPUTE)),
    # a cell far enough away: its centre of mass stands for its bodies
    _pattern((OP_READ, _CELL_COM), (OP_READ, _CELL_COM + 16),
             (OP_COMPUTE, _OPEN_TEST_COMPUTE),
             (OP_COMPUTE, _INTERACTION_COMPUTE)),
    # a cell too close: read its child slots and descend
    _pattern((OP_READ, _CELL_COM), (OP_READ, _CELL_COM + 16),
             (OP_COMPUTE, _OPEN_TEST_COMPUTE),
             (OP_READ, _CELL_CHILDREN), (OP_READ, _CELL_CHILDREN + 32)),
)
# Around each body's visits: read its own position, store the result.
_WALK_BEGIN = _pattern((OP_READ, _BODY_POS))
_WALK_END = _pattern((OP_WRITE, _BODY_ACC), (OP_WRITE, _BODY_ACC + 16))
# All of it, in the order a relocation takes it.
_FORCE_PATTERNS = (_WALK_BEGIN, _WALK_END, *_VISIT_WORDS)


class _ForcePlan(NamedTuple):
    """The force phase over one tree with no address in it: what the
    walks visit and what they compute, for every body.  Read-only."""

    visits: np.ndarray   # int32 ``node * 4 + kind``, bodies' walks end to end
    starts: np.ndarray   # body b's walk is visits[starts[b]:starts[b + 1]]
    acc: np.ndarray      # float64 (n_bodies, 3)
    cost: np.ndarray     # interactions per body, at least 1


class Body:
    """One simulated body (state lives here; the trace names its record)."""

    __slots__ = ("index", "pos", "vel", "acc", "mass", "cost")

    def __init__(self, index: int, pos, vel, mass: float):
        self.index = index
        self.pos = pos          # length-3 list of floats
        self.vel = vel
        self.acc = [0.0, 0.0, 0.0]
        self.mass = mass
        self.cost = 1           # interactions in the last force phase


class Cell:
    """One octree cell; children are Body, Cell or None."""

    __slots__ = ("index", "order", "centre", "half", "children", "com",
                 "mass", "depth")

    def __init__(self, index: int, centre, half: float, depth: int):
        self.index = index      # which record of the cell array: its address
        self.order = -1         # pre-order number, once the tree is built
        self.centre = centre
        self.half = half
        self.depth = depth
        self.children: List[Optional[object]] = [None] * 8
        self.com = [0.0, 0.0, 0.0]
        self.mass = 0.0

    def octant_of(self, pos) -> int:
        """Child slot for a position (one bit per axis)."""
        octant = 0
        for axis in range(3):
            if pos[axis] >= self.centre[axis]:
                octant |= 1 << axis
        return octant

    def child_centre(self, octant: int):
        """Centre of the child cell in ``octant``."""
        quarter = self.half / 2.0
        return [self.centre[axis]
                + (quarter if octant & (1 << axis) else -quarter)
                for axis in range(3)]

    def slot_of(self, pos) -> int:
        """Child slot a body at ``pos`` goes into: its octant -- or, in
        a cell at the depth bound (a bucket of bodies too close to
        separate), the first free slot, and the last one once full."""
        if self.depth < _MAX_DEPTH:
            return self.octant_of(pos)
        for slot, child in enumerate(self.children):
            if child is None:
                return slot
        return len(self.children) - 1

    def subcell_cube(self, slot: int):
        """``(centre, half)`` of the subcell a body in ``slot`` splits
        into; a bucket overflows into another bucket on the same cube."""
        if self.depth < _MAX_DEPTH:
            return self.child_centre(slot), self.half / 2.0
        return self.centre, self.half


class BarnesHut(TracedApplication):
    """Barnes-Hut galaxy simulation, instrumented for tracing.

    ``n_bodies`` and ``steps`` default to the reproduction scale (the
    paper ran 1024 bodies for many steps); ``theta`` is the opening
    criterion, ``softening`` the Plummer softening length.
    """

    name = "barnes-hut"

    def __init__(self, n_bodies: int = 256, steps: int = 2,
                 theta: float = 0.55, dt: float = 0.025,
                 softening: float = 0.05, seed: int = 42):
        if n_bodies < 2:
            raise ValueError("need at least two bodies")
        if steps < 1:
            raise ValueError("need at least one step")
        if not 0.1 <= theta <= 2.0:
            raise ValueError("theta outside a sensible range")
        for name, value in (("softening", softening), ("dt", dt)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        self.n_bodies = n_bodies
        self.steps = steps
        self.theta = theta
        self.dt = dt
        self.softening = softening
        self.seed = seed
        # What runs on this object have worked out that the machine
        # configuration cannot change, keyed by all of the content it
        # was worked out from.  Neither dict is ever mutated in place --
        # a new one replaces it -- so threads running different
        # configurations on one object need no lock: at worst both work
        # out the same plan.
        self._seeded: Dict[tuple, Tuple[int, ...]] = {}
        self._plans: Dict[tuple, _ForcePlan] = {}
        # One tree per step, and room for each to come out a second way
        # (a ``_MAX_DEPTH`` bucket fills in arrival order).
        self._plans_kept = 2 * steps

    def __repr__(self) -> str:
        return (f"BarnesHut(n_bodies={self.n_bodies}, steps={self.steps}, "
                f"theta={self.theta}, dt={self.dt}, "
                f"softening={self.softening}, seed={self.seed})")

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        kernel = native.load()
        if kernel is not None:
            return dict(enumerate(_KernelRun(self, config, kernel).processes))
        run = _BarnesHutRun(self, config)
        return {proc: run.process(proc)
                for proc in range(config.total_processors)}


def _layout(app: BarnesHut) -> Tuple[ArrayRegion, ArrayRegion]:
    """The shared heap of a run: the bodies' records and the cells' (four
    per body: every processor's pool of them)."""
    heap = SharedHeap()
    return (heap.alloc_array("bodies", app.n_bodies, _BODY_RECORD),
            heap.alloc_array("cells", 4 * app.n_bodies, _CELL_RECORD))


def _seeded_costs(app: BarnesHut, bodies: Sequence[Body]) -> Tuple[int, ...]:
    """Every body's interaction count in a quiet (no events) tree walk,
    so even the first measured step is cost-balanced -- the equivalent
    of SPLASH's unmeasured warm-up steps before its costzones
    partitioner reaches steady state.  A pure function of where the
    bodies start, so the object's first run works it out for the rest."""
    key = (app.theta, app.softening, _positions(bodies))
    costs = app._seeded.get(key)
    if costs is None:
        costs = _count_interactions(bodies, app.theta, app.softening)
        app._seeded = {key: costs}
    return costs


class _KernelRun:
    """One Barnes-Hut run whose processes are C's: the bodies' state, in
    the numpy buffers the processes read and write in place."""

    def __init__(self, app: BarnesHut, config: SystemConfig, kernel):
        bodies = _plummer_bodies(app.n_bodies,
                                 np.random.default_rng(app.seed))
        self.pos = np.array([body.pos for body in bodies])
        self.vel = np.array([body.vel for body in bodies])
        self.cost = np.array(_seeded_costs(app, bodies), dtype=np.int64)
        self.processes = kernel.barnes_processes(
            self.pos, self.vel, np.array([body.mass for body in bodies]),
            self.cost, app.steps, app.theta, app.softening, app.dt,
            config.total_processors,
            (config.clusters, config.processors_per_cluster),
            tuple(region.base for region in _layout(app)), PackedChunk)


class _BarnesHutRun:
    """Shared state of one run on python generators (one per machine
    configuration): the reference the C processes are held to."""

    def __init__(self, app: BarnesHut, config: SystemConfig):
        self.app = app
        self.config = config
        self.n_procs = config.total_processors
        rng = np.random.default_rng(app.seed)
        self.bodies = _plummer_bodies(app.n_bodies, rng)
        self.body_region, self.cell_region = _layout(app)
        self.root: Optional[Cell] = None
        # The force phase of the step named first, one packed chunk per
        # processor, each taken (and dropped) by its processor.
        self._force_chunks: Tuple[int, List[Optional[array]]] = (-1, [])
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
        self.assignments: List[List[Body]] = _cluster_partition(
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
        mutates between the enclosing barriers, and their own Python-side
        mutations (cell.com, body.acc, body.vel/pos, body.cost) are read
        by other processes only after a later barrier -- so computing a
        whole phase's events up front observes exactly the values one
        event per resume would.  The force phase goes one step
        further on the same argument: whichever processor resumes first
        after barrier 4 works it out for *every* processor
        (:meth:`_plan_force_phase`), because nothing a walk reads changes
        before barrier 5 and what it writes (``acc``, ``cost``) is read
        only after barrier 5 and by the next step's :meth:`_partition`.
        The *insert* phase races on per-cell locks: its chunks carry
        the lock operations and end at every touch of the tree
        (:meth:`_insert_phase`).
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
        for step in range(self.app.steps):
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
            yield from self._force_phase(proc, step)
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
                buf.append(OP_READ)
                buf.append(self.cell_addr(child, _CELL_COM))
                child_mass, child_com = child.mass, child.com
            else:
                buf.append(OP_READ)
                buf.append(self.body_addr(child, _BODY_POS))
                child_mass, child_com = child.mass, child.pos
            mass += child_mass
            for axis in range(3):
                com[axis] += child_mass * child_com[axis]
        if mass > 0.0:
            for axis in range(3):
                com[axis] /= mass
        cell.mass = mass
        cell.com = com
        buf.append(OP_WRITE)
        buf.append(self.cell_addr(cell, _CELL_COM))
        buf.append(OP_COMPUTE)
        buf.append(_INTERACTION_COMPUTE)

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
        ordered = _tree_ordered_bodies(self.root)
        self.assignments = _cluster_partition(ordered, self.config)

    # -- force computation -------------------------------------------------

    def _force_phase(self, proc: int, step: int) -> Generator:
        if self._force_chunks[0] != step:
            self._force_chunks = (step, self._plan_force_phase())
        chunks = self._force_chunks[1]
        chunk, chunks[proc] = chunks[proc], None
        yield from self._flush(chunk)

    def _plan_force_phase(self) -> List[Optional[array]]:
        """This step's force phase for every processor: accelerations
        and costs onto the bodies, and one packed chunk per processor.

        The walks are the object's to remember (:class:`_ForcePlan`);
        only where this run's insert races put each cell is taken from
        the live tree (:func:`_cell_indexes`), and :func:`_expand` writes
        the words.
        """
        app = self.app
        slots, cells = _tree_content(self.root)
        key = (app.theta, app.softening, slots, _positions(self.bodies))
        plan = app._plans.get(key)
        if plan is None:
            plan = self._walk_tree()
            app._plans = dict([*app._plans.items(),
                               (key, plan)][-app._plans_kept:])
        for body, acc, cost in zip(self.bodies, plan.acc.tolist(),
                                   plan.cost.tolist()):
            body.acc = acc
            body.cost = cost
        body_address = (self.body_region.base
                        + np.arange(len(self.bodies)) * _BODY_RECORD)
        cell_address = (self.cell_region.base
                        + _cell_indexes(cells) * _CELL_RECORD)
        order = array("q", [body.index for bodies in self.assignments
                            for body in bodies])
        owned = [len(bodies) for bodies in self.assignments]
        return _expand(plan.visits, plan.starts, order, owned,
                       body_address, cell_address, _FORCE_PATTERNS)

    def _walk_tree(self) -> _ForcePlan:
        """Walk the tree for every body (the object's first run on a
        tree does; later runs find the plan)."""
        visits: List[int] = []
        starts = [0]
        accs = []
        costs = []
        for body in self.bodies:
            acc, cost = self._gravity(body, visits)
            starts.append(len(visits))
            accs.append(acc)
            costs.append(cost)
        plan = _ForcePlan(np.array(visits, dtype=np.int32),
                          np.array(starts, dtype=np.int64),
                          np.array(accs, dtype=np.float64),
                          np.array(costs, dtype=np.int64))
        for stored in plan:
            stored.flags.writeable = False
        return plan

    def _gravity(self, body: Body, visits: List[int]):
        """Traverse the tree accumulating acceleration on ``body``;
        returns it with the body's cost (its interaction count).

        The reference of the C processes' walk, operation for operation:
        interaction physics is inlined (no per-node helper calls) and
        each node visited costs one ``append`` of ``node * 4 + kind`` --
        the events and addresses come later, from each run's relocation
        (:meth:`_plan_force_phase`).
        """
        eps2 = self.app.softening ** 2
        theta2 = self.app.theta ** 2
        interactions = 0
        bpos = body.pos
        bx = bpos[0]
        by = bpos[1]
        bz = bpos[2]
        ax = ay = az = 0.0
        sqrt = math.sqrt
        visit = visits.append
        stack: List[object] = [self.root]
        while stack:
            node = stack.pop()
            if node.__class__ is Body:
                if node is body:
                    continue
                visit(node.index * 4 + _VISIT_BODY)
                src = node.pos
                dx = src[0] - bx
                dy = src[1] - by
                dz = src[2] - bz
                dist2 = dx * dx + dy * dy + dz * dz + eps2
                inv = node.mass / (dist2 * sqrt(dist2))
                ax += dx * inv
                ay += dy * inv
                az += dz * inv
                interactions += 1
                continue
            cell = node
            com = cell.com
            dx = com[0] - bx
            dy = com[1] - by
            dz = com[2] - bz
            dist2 = dx * dx + dy * dy + dz * dz + eps2
            size = 2.0 * cell.half
            if size * size < dist2 * theta2:
                # Far enough: use the cell's centre-of-mass approximation.
                visit(cell.order * 4 + _VISIT_ACCEPTED)
                inv = cell.mass / (dist2 * sqrt(dist2))
                ax += dx * inv
                ay += dy * inv
                az += dz * inv
                interactions += 1
                continue
            visit(cell.order * 4 + _VISIT_OPENED)
            for child in cell.children:
                if child is not None:
                    stack.append(child)
        return [ax, ay, az], max(interactions, 1)

    # -- integration ---------------------------------------------------------

    def _update_phase(self, proc: int) -> Generator:
        dt = self.app.dt
        buf: List[int] = []
        for body in self.assignments[proc]:
            buf.append(OP_READ)
            buf.append(self.body_addr(body, _BODY_ACC))
            buf.append(OP_READ)
            buf.append(self.body_addr(body, _BODY_VEL))
            for axis in range(3):
                body.vel[axis] += body.acc[axis] * dt
                body.pos[axis] += body.vel[axis] * dt
            buf.append(OP_WRITE)
            buf.append(self.body_addr(body, _BODY_VEL))
            buf.append(OP_WRITE)
            buf.append(self.body_addr(body, _BODY_VEL + 16))
            buf.append(OP_READ)
            buf.append(self.body_addr(body, _BODY_POS))
            buf.append(OP_WRITE)
            buf.append(self.body_addr(body, _BODY_POS))
            buf.append(OP_WRITE)
            buf.append(self.body_addr(body, _BODY_POS + 16))
            buf.append(OP_COMPUTE)
            buf.append(_UPDATE_COMPUTE)
        yield from self._flush(buf)


# ----------------------------------------------------------------------
# Physics and geometry helpers
# ----------------------------------------------------------------------

def _plummer_bodies(count: int, rng: np.random.Generator) -> List[Body]:
    """Sample a Plummer-like sphere of bodies with small random velocities."""
    radii = 1.0 / np.sqrt(rng.uniform(0.1, 1.0, count) ** (-2.0 / 3.0) - 0.9)
    directions = rng.normal(size=(count, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    positions = directions * radii[:, None]
    velocities = rng.normal(scale=0.1, size=(count, 3))
    mass = 1.0 / count
    return [Body(index,
                 [float(x) for x in positions[index]],
                 [float(v) for v in velocities[index]],
                 mass)
            for index in range(count)]


def _bounding_cube(bodies: Sequence[Body]):
    """Centre and half-size of a cube covering every body."""
    low = [min(b.pos[axis] for b in bodies) for axis in range(3)]
    high = [max(b.pos[axis] for b in bodies) for axis in range(3)]
    centre = [(low[axis] + high[axis]) / 2.0 for axis in range(3)]
    half = max(high[axis] - low[axis] for axis in range(3)) / 2.0
    return centre, half * 1.0001 + 1e-9


def _cost_chunks(ordered: List[Body], n_chunks: int) -> List[List[Body]]:
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


def _cluster_partition(ordered: List[Body],
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
    per_cluster = _cost_chunks(ordered, config.clusters)
    assignments: List[List[Body]] = []
    for chunk in per_cluster:
        for port in range(config.processors_per_cluster):
            assignments.append(chunk[port::config.processors_per_cluster])
    return assignments


def _quiet_build(bodies: Sequence[Body]) -> Cell:
    """Build an octree without emitting events (cost-seeding pre-pass)."""
    centre, half = _bounding_cube(bodies)
    root = Cell(-1, centre, half, depth=0)
    for body in bodies:
        cell = root
        while True:
            octant = cell.slot_of(body.pos)
            child = cell.children[octant]
            if child is None:
                cell.children[octant] = body
                break
            if isinstance(child, Body):
                subcell = Cell(-1, *cell.subcell_cube(octant),
                               cell.depth + 1)
                subcell.children[subcell.slot_of(child.pos)] = child
                cell.children[octant] = subcell
                cell = subcell
                continue
            cell = child
    # Bottom-up centres of mass (post-order).
    stack = [(root, False)]
    while stack:
        cell, expanded = stack.pop()
        if not expanded:
            stack.append((cell, True))
            for child in cell.children:
                if isinstance(child, Cell):
                    stack.append((child, False))
            continue
        mass = 0.0
        com = [0.0, 0.0, 0.0]
        for child in cell.children:
            if child is None:
                continue
            child_mass = child.mass
            child_com = child.com if isinstance(child, Cell) else child.pos
            mass += child_mass
            for axis in range(3):
                com[axis] += child_mass * child_com[axis]
        if mass > 0.0:
            for axis in range(3):
                com[axis] /= mass
        cell.mass = mass
        cell.com = com
    return root


def _count_interactions(bodies: Sequence[Body], theta: float,
                        softening: float) -> Tuple[int, ...]:
    """Each body's interaction count in a walk of the quiet tree."""
    root = _quiet_build(bodies)
    theta2 = theta ** 2
    eps2 = softening ** 2
    costs = []
    for body in bodies:
        cost = 0
        stack: List[object] = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Body):
                if node is not body:
                    cost += 1
                continue
            dist2 = _distance2(body.pos, node.com) + eps2
            if (2.0 * node.half) ** 2 < dist2 * theta2:
                cost += 1
                continue
            for child in node.children:
                if child is not None:
                    stack.append(child)
        costs.append(max(cost, 1))
    return tuple(costs)


def _tree_ordered_bodies(root: Cell) -> List[Body]:
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


def _distance2(a, b) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def _positions(bodies: Sequence[Body]) -> bytes:
    """Every body's position, exactly, as part of a content key."""
    return array("d", [x for body in bodies for x in body.pos]).tobytes()


def _tree_content(root: Cell) -> Tuple[bytes, List[Cell]]:
    """One pre-order pass over a built tree: number its cells
    (``cell.order``) and write down its structure -- per cell, eight
    slots, each empty, a cell or a body's index.

    With the bodies' positions that is everything a force walk reads:
    cell geometry, centres of mass and masses are functions of the two.
    Cell *indexes* are left out on purpose -- lock races during insertion
    choose them, and they only say where a cell's record lives.
    """
    slots = array("i")
    cells: List[Cell] = []
    stack = [root]
    while stack:
        cell = stack.pop()
        cell.order = len(cells)
        cells.append(cell)
        for child in cell.children:
            if child is None:
                slots.append(_SLOT_EMPTY)
            elif child.__class__ is Cell:
                slots.append(_SLOT_CELL)
                stack.append(child)
            else:
                slots.append(child.index)
    return slots.tobytes(), cells


def _cell_indexes(cells: List[Cell]) -> np.ndarray:
    """This run's pre-order number -> cell index map: the relocation a
    remembered plan goes through before it names a single cache line."""
    return np.array([cell.index for cell in cells], dtype=np.int64)


def _scatter(out: np.ndarray, at: np.ndarray, pattern,
             address: np.ndarray) -> None:
    """Write ``pattern`` at each word offset in ``at``, about the record
    at the matching ``address``."""
    words, relative = (np.array(part, dtype=np.int64) for part in pattern)
    out[at[:, None] + np.arange(len(words))] = (
        words + relative * address[:, None])


def _expand(visits: np.ndarray, starts: np.ndarray, order, owned,
            body_address: np.ndarray, cell_address: np.ndarray,
            patterns) -> List[Optional[array]]:
    """The packed force-phase chunk of each processor: the walks of
    ``order``'s bodies from the plan (``owned[p]`` of them processor
    ``p``'s), every visit written out as the events of its kind at this
    run's addresses.

    What the python processes write their force phase with; the tests
    hold it to a loop that writes one visit at a time.  ``patterns`` is
    ``(begin, end, kind 0, kind 1, kind 2)``."""
    walk_begin, walk_end, *visit_words = patterns
    order = np.asarray(order, dtype=np.int64)
    # Gather the walks in that order.
    first = starts[order]
    count = starts[order + 1] - first
    ends = np.cumsum(count)
    visits = visits[np.repeat(first - (ends - count), count)
                    + np.arange(count.sum())]
    kind = visits & 3
    node = visits >> 2
    # Word offsets: each walk is its begin words, its visits, its end
    # words; ``walk_at`` has one entry past the last walk.
    width = np.array([len(words) for words, _ in visit_words])[kind]
    before = np.append(0, np.cumsum(width))   # visit words before each
    begin, end = len(walk_begin[0]), len(walk_end[0])
    walk = np.arange(len(order) + 1)
    walk_at = before[np.append(0, ends)] + (begin + end) * walk
    at = before[:-1] + np.repeat((begin + end) * walk[:-1] + begin, count)
    out = np.empty(walk_at[-1], dtype=np.int64)
    _scatter(out, walk_at[:-1], walk_begin, body_address[order])
    _scatter(out, walk_at[1:] - end, walk_end, body_address[order])
    for which, pattern in enumerate(visit_words):
        chosen = np.flatnonzero(kind == which)
        address = body_address if which == _VISIT_BODY else cell_address
        _scatter(out, at[chosen], pattern, address[node[chosen]])
    bounds = walk_at[np.append(0, np.cumsum(owned))].tolist()
    return [array("q", out[low:high].tobytes())
            for low, high in zip(bounds, bounds[1:])]
