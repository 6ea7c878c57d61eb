"""Property-based tests over the workload generators' internals."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import KB, SystemConfig
from repro.workloads.barnes_hut import (Body, Cell, _bounding_cube,
                                        _quiet_build)
from repro.workloads.spec import SPEC92_PROFILES, SpecApp

from ..oracles.barnes_hut import cost_chunks, tree_ordered_bodies

POSITIONS = st.lists(
    st.tuples(st.floats(-10, 10, allow_nan=False),
              st.floats(-10, 10, allow_nan=False),
              st.floats(-10, 10, allow_nan=False)),
    min_size=2, max_size=80, unique=True)


# Hypothesis drew this pair once: halving the cell never separates them
# (the cell size underflows first) and the build ran out of memory.
NEAR_COINCIDENT = [(0.0, 0.0, 0.0), (5e-324, 0.0, 0.0)]
# More of them than one bucket cell has slots.
CROWD = [(index * 5e-324, 1.0, -1.0) for index in range(20)]


def bodies_from(positions):
    return [Body(index, list(pos), [0.0, 0.0, 0.0], 1.0)
            for index, pos in enumerate(positions)]


class TestOctreeProperties:
    @given(POSITIONS)
    @example(NEAR_COINCIDENT)
    @example(NEAR_COINCIDENT + [(1.0, 2.0, 3.0)] + CROWD)
    @settings(max_examples=80, deadline=None)
    def test_build_preserves_every_body_exactly_once(self, positions):
        bodies = bodies_from(positions)
        root = _quiet_build(bodies)
        ordered = tree_ordered_bodies(root)
        assert sorted(b.index for b in ordered) == \
            list(range(len(bodies)))

    @given(POSITIONS)
    @example(NEAR_COINCIDENT + [(1.0, 2.0, 3.0)] + CROWD)
    @settings(max_examples=60, deadline=None)
    def test_bodies_lie_inside_their_cells(self, positions):
        """Walking the tree, every body must sit inside the cube of the
        cell whose child slot holds it."""
        bodies = bodies_from(positions)
        root = _quiet_build(bodies)
        stack = [root]
        while stack:
            cell = stack.pop()
            for octant, child in enumerate(cell.children):
                if child is None:
                    continue
                if isinstance(child, Cell):
                    stack.append(child)
                    continue
                for axis in range(3):
                    assert (abs(child.pos[axis] - cell.centre[axis])
                            <= cell.half + 1e-9)

    @given(POSITIONS)
    @settings(max_examples=60, deadline=None)
    def test_total_mass_is_conserved_in_the_summary(self, positions):
        bodies = bodies_from(positions)
        root = _quiet_build(bodies)
        assert root.mass == pytest.approx(len(bodies), rel=1e-9)

    @given(POSITIONS, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_cost_chunks_partition_and_preserve_order(self, positions,
                                                      n_chunks):
        bodies = bodies_from(positions)
        for body in bodies:
            body.cost = 1 + body.index % 5
        chunks = cost_chunks(bodies, n_chunks)
        assert len(chunks) == n_chunks
        flattened = [b.index for chunk in chunks for b in chunk]
        assert flattened == [b.index for b in bodies]


class TestSpecGeneratorProperties:
    @given(st.integers(0, 7), st.integers(1, 4).map(lambda k: 2 ** k),
           st.integers(100, 5000))
    @settings(max_examples=40, deadline=None)
    def test_instruction_budget_is_exact(self, app_id, scale, budget):
        from repro.trace.events import Ifetch
        from repro.trace.packed import decode_events
        app = SpecApp(app_id, SPEC92_PROFILES[app_id], scale=scale)
        words = app.burst_chunk(budget).data
        assert sum(event.count for event in decode_events(words)
                   if isinstance(event, Ifetch)) == budget
        assert app.instructions_executed == budget

    @given(st.integers(0, 7), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_addresses_stay_in_the_process_address_space(self, app_id,
                                                         seed):
        from repro.trace.events import Ifetch, Read, Write
        from repro.trace.packed import decode_events
        from repro.workloads.spec import _ADDRESS_SPACE
        app = SpecApp(app_id, SPEC92_PROFILES[app_id], scale=8, seed=seed)
        base = app_id * _ADDRESS_SPACE
        for event in decode_events(app.burst_chunk(2000).data):
            if isinstance(event, (Read, Write, Ifetch)):
                assert base <= event.addr < base + _ADDRESS_SPACE
