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
``trace/engine/_native.c``), one kind of its C process: an iterator
whose chunks are ``PackedChunk``s of an ``array('q')``, and which a
native run steps without resuming anything.  Their python twin, the
reference the tests hold them to resume for resume, is
``tests/oracles/barnes_hut.py``.  A sweep prices many machine
configurations of this one program, and a :class:`BarnesHut` object
remembers between runs what no configuration can change: the
cost-seeding pre-pass every run starts from (DESIGN.md section 7, "What
a workload object may remember between runs").  Which cell sits at which
address is decided by lock races during insertion, so nothing of a
tree's walks is remembered.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..trace.engine import native
from ..trace.packed import PackedChunk
from .base import TracedApplication
from .memory import ArrayRegion, SharedHeap

__all__ = ["BarnesHut", "Body", "Cell"]

# Record layouts (byte offsets within a record); ``BH_*`` in _native.c
# mirrors them and the cycle costs below.
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

    __slots__ = ("index", "centre", "half", "children", "com", "mass",
                 "depth")

    def __init__(self, index: int, centre, half: float, depth: int):
        self.index = index      # which record of the cell array: its address
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
        # The cost seeds runs on this object have worked out (the machine
        # configuration cannot change them), keyed by all of the content
        # they were worked out from.  The dict is never mutated in place
        # -- a new one replaces it -- so threads running different
        # configurations on one object need no lock: at worst both work
        # out the same seeds.
        self._seeded: Dict[tuple, Tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return (f"BarnesHut(n_bodies={self.n_bodies}, steps={self.steps}, "
                f"theta={self.theta}, dt={self.dt}, "
                f"softening={self.softening}, seed={self.seed})")

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        return dict(enumerate(_KernelRun(self, config).processes))


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

    def __init__(self, app: BarnesHut, config: SystemConfig):
        bodies = _plummer_bodies(app.n_bodies,
                                 np.random.default_rng(app.seed))
        self.pos = np.array([body.pos for body in bodies])
        self.vel = np.array([body.vel for body in bodies])
        self.cost = np.array(_seeded_costs(app, bodies), dtype=np.int64)
        self.processes = native.load().barnes_processes(
            self.pos, self.vel, np.array([body.mass for body in bodies]),
            self.cost, app.steps, app.theta, app.softening, app.dt,
            config.total_processors,
            (config.clusters, config.processors_per_cluster),
            tuple(region.base for region in _layout(app)), PackedChunk)


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
    # (``tolist`` makes the very doubles ``float()`` of each element does)
    return [Body(index, pos, vel, mass) for index, (pos, vel) in
            enumerate(zip(positions.tolist(), velocities.tolist()))]


def _bounding_cube(bodies: Sequence[Body]):
    """Centre and half-size of a cube covering every body."""
    low = [min(b.pos[axis] for b in bodies) for axis in range(3)]
    high = [max(b.pos[axis] for b in bodies) for axis in range(3)]
    centre = [(low[axis] + high[axis]) / 2.0 for axis in range(3)]
    half = max(high[axis] - low[axis] for axis in range(3)) / 2.0
    return centre, half * 1.0001 + 1e-9


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


def _distance2(a, b) -> float:
    return ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def _positions(bodies: Sequence[Body]) -> bytes:
    """Every body's position, exactly, as part of a content key."""
    return array("d", [x for body in bodies for x in body.pos]).tobytes()
