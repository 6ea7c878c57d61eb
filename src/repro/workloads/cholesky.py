"""Instrumented parallel sparse Cholesky factorization (SPLASH equivalent).

Section 2.2.1's third parallel benchmark: supernodal sparse Cholesky
factorization of a stiffness matrix (the paper uses BCSSTK14; we use the
synthetic equivalent from :mod:`repro.workloads.matrices`).  The SPLASH
code is right-looking and dynamically scheduled: a supernode whose
incoming updates have all arrived is pushed on a global task queue; a
worker pops it, factors it (``cdiv``), then applies its outgoing updates
(``cmod``) to later supernodes under per-supernode locks, decrementing
their dependence counters and enqueueing any that become ready.

The factorization is performed *numerically* (real doubles in the
supernode blocks, checked against a dense Cholesky in the tests), and
every block access is emitted as trace events over the supernode's region
of the shared heap.  The paper's Cholesky characteristics all emerge from
the task structure of the matrix itself: early parallelism from the many
leaf supernodes, then a serial tail near the root of the elimination tree
("limited concurrency, bad load balancing and high synchronization
overhead", Section 3.1.3).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..trace.events import (Barrier, Compute, LockAcquire, LockRelease,
                            TaskDequeue, TaskEnqueue)
from ..trace.packed import (OP_COMPUTE, OP_READ_SPAN, OP_WRITE_SPAN,
                            PackedChunk)
from .base import TracedApplication
from .matrices import (SparsePattern, Supernode, bcsstk_like, supernodes,
                       symbolic_factor)
from .memory import SharedHeap

__all__ = ["Cholesky"]

_ENTRY = 8                 # bytes per double
_SUPER_LOCK_BASE = 1000    # lock ids for per-supernode counters
_COLUMN_LOCK_BASE = 100000  # lock ids for per-column update locks
_TASK_QUEUE = 0
_SPIN_COMPUTE = 60         # idle loop when the task queue is empty
_FLOP_CYCLES = 2           # cycles charged per multiply-add pair
_EVENT_STRIDE = 16         # bytes per emitted reference when streaming a
                           # block (two doubles per load/store event keeps
                           # event counts tractable; lines are 16 B, so
                           # per-line behaviour is identical)


class Cholesky(TracedApplication):
    """Task-queue parallel supernodal Cholesky, instrumented for tracing.

    The default matrix is the BCSSTK14-like synthetic stiffness pattern
    at reproduction scale.  Pass a custom ``pattern`` to factor something
    else (the pattern must be symmetric-lower with diagonals, and the
    assembled matrix is made diagonally dominant so it is SPD).
    """

    name = "cholesky"

    def __init__(self, n: int = 416, seed: int = 3,
                 max_supernode_width: int = 4, supernode_relax: int = 2,
                 pattern: Optional[SparsePattern] = None):
        self._custom_pattern = pattern is not None
        if pattern is None:
            pattern = bcsstk_like(n=n, seed=seed)
        self.pattern = pattern
        self.n = n
        self.seed = seed
        self.max_supernode_width = max_supernode_width
        self.supernode_relax = supernode_relax

    def __repr__(self) -> str:
        if self._custom_pattern:
            return f"Cholesky(pattern=<custom n={self.pattern.n}>)"
        return (f"Cholesky(n={self.n}, seed={self.seed}, "
                f"max_supernode_width={self.max_supernode_width}, "
                f"supernode_relax={self.supernode_relax})")

    def trace_signature(self, config: SystemConfig) -> Optional[str]:
        if self._custom_pattern:
            # A caller-supplied pattern cannot be identified by repr.
            return None
        return super().trace_signature(config)

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        run = _CholeskyRun(self, config)
        return {proc: run.process(proc)
                for proc in range(config.total_processors)}

    def reference_factor(self) -> np.ndarray:
        """Dense Cholesky factor of the assembled matrix (for tests)."""
        dense = _assemble_dense(self.pattern, self.seed)
        return np.linalg.cholesky(dense)


class _CholeskyRun:
    """Shared state of one factorization run."""

    def __init__(self, app: Cholesky, config: SystemConfig):
        self.app = app
        self.config = config
        self.n_procs = config.total_processors
        factor, parent = symbolic_factor(app.pattern)
        self.factor_pattern = factor
        self.supers: List[Supernode] = supernodes(
            factor, parent, max_width=app.max_supernode_width,
            relax=app.supernode_relax)
        n = factor.n
        self.col_to_super = [0] * n
        for node in self.supers:
            for col in range(node.first, node.last + 1):
                self.col_to_super[col] = node.index
        # Numeric blocks: supernode s stores an h x w dense block whose
        # rows are rows(s); assembled from the original matrix values.
        dense = _assemble_dense(app.pattern, app.seed)
        self.blocks: List[np.ndarray] = []
        self.row_pos: List[Dict[int, int]] = []
        heap = SharedHeap()
        self.regions = []
        for node in self.supers:
            block = np.zeros((node.height, node.width))
            positions = {row: k for k, row in enumerate(node.rows)}
            for local_col in range(node.width):
                col = node.first + local_col
                for row in node.rows:
                    if row >= col:
                        block[positions[row], local_col] = dense[row, col]
            self.blocks.append(block)
            self.row_pos.append(positions)
            self.regions.append(heap.alloc(
                f"super{node.index}",
                max(node.height * node.width, 1) * _ENTRY))
        # Outgoing update lists and incoming dependence counts.
        self.updates: List[List[int]] = [[] for _ in self.supers]
        self.dep_count = [0] * len(self.supers)
        for node in self.supers:
            targets = sorted({self.col_to_super[row]
                              for row in node.rows if row > node.last})
            self.updates[node.index] = targets
            for target in targets:
                self.dep_count[target] += 1
        self.completed = 0
        self.factored: List[bool] = [False] * len(self.supers)

    # -- address helpers ------------------------------------------------

    def _block_span(self, super_index: int, local_col: int,
                    first_local_row: int, n_rows: int) -> Tuple[int, int]:
        """(base address, byte length) of a column segment of a block."""
        node = self.supers[super_index]
        offset = (local_col * node.height + first_local_row) * _ENTRY
        return (self.regions[super_index].addr(offset), n_rows * _ENTRY)

    def _flush(self, buf: List[int]) -> Generator:
        """Yield a built-up packed buffer as one chunk, if it is not empty."""
        if buf:
            yield PackedChunk(buf)

    # -- process generators ----------------------------------------------

    def process(self, proc: int) -> Generator:
        if proc == 0:
            for node in self.supers:
                if self.dep_count[node.index] == 0:
                    yield TaskEnqueue(_TASK_QUEUE, node.index)
        yield Barrier(0, self.n_procs)
        total = len(self.supers)
        while self.completed < total:
            task = yield TaskDequeue(_TASK_QUEUE)
            if task is None:
                yield Compute(_SPIN_COMPUTE)
                continue
            yield from self._factor_supernode(task)
        yield Barrier(1, self.n_procs)

    # -- numeric factorization --------------------------------------------

    def _factor_supernode(self, s: int) -> Generator:
        """cdiv(s), then cmod(s -> t) for every target t.

        The dependence counter of each target is adjusted under the
        target's supernode lock; the numeric column updates inside
        :meth:`_cmod` take per-column locks (as the SPLASH code does), so
        updates from different sources to different columns of the same
        supernode proceed concurrently.
        """
        yield from self._cdiv(s)
        for target in self.updates[s]:
            yield from self._cmod(s, target)
            yield LockAcquire(_SUPER_LOCK_BASE + target)
            self.dep_count[target] -= 1
            ready = self.dep_count[target] == 0
            yield LockRelease(_SUPER_LOCK_BASE + target)
            if ready:
                yield TaskEnqueue(_TASK_QUEUE, target)
        self.completed += 1

    def _cdiv(self, s: int) -> Generator:
        """Factor supernode ``s``'s diagonal block and scale its rows.

        Chunk safety (see repro.trace.packed): by the time ``s`` was
        dequeued every incoming update had been applied, so no other
        process touches ``blocks[s]`` again -- the numeric factorization
        can run at chunk-build time and the whole read/compute/write
        sequence travels as one chunk.  ``factored[s]`` flips only after
        the chunk drains, exactly where the event-at-a-time generator
        performed the assignment.
        """
        node = self.supers[s]
        block = self.blocks[s]
        w, h = node.width, node.height
        # Read the whole block, factor, write it back.
        buf: List[int] = []
        for local_col in range(w):
            base, length = self._block_span(s, local_col, local_col,
                                            h - local_col)
            buf += (OP_READ_SPAN, base, length, _EVENT_STRIDE)
        lower = np.tril(block[:w, :])
        symmetric = lower + lower.T - np.diag(np.diag(lower))
        chol = np.linalg.cholesky(symmetric)
        block[:w, :] = np.tril(chol)
        if h > w:
            block[w:, :] = _solve_lower_transpose(chol, block[w:, :])
        buf += (OP_COMPUTE, max(w * w * h * _FLOP_CYCLES // 2, 1))
        for local_col in range(w):
            base, length = self._block_span(s, local_col, local_col,
                                            h - local_col)
            buf += (OP_WRITE_SPAN, base, length, _EVENT_STRIDE)
        yield from self._flush(buf)
        self.factored[s] = True

    def _cmod(self, s: int, t: int) -> Generator:
        """Apply supernode ``s``'s outer-product update to supernode ``t``."""
        source = self.supers[s]
        target = self.supers[t]
        block = self.blocks[s]
        w = source.width
        # Global rows of s below its own columns.
        below = [(k, row) for k, row in enumerate(source.rows)
                 if row > source.last]
        hit = [(k, row) for k, row in below
               if target.first <= row <= target.last]
        affected = [(k, row) for k, row in below if row >= target.first]
        if not hit:
            return
        # Read the source rows involved (the L panel of s).  Chunk
        # safety: blocks[s] is quiescent (only this process reads it once
        # s is factored), so the panel reads travel as one chunk; the
        # racy target-block mutations below stay pinned to their lock
        # acquisitions.
        first_k = min(k for k, _ in affected)
        buf: List[int] = []
        for local_col in range(w):
            base, length = self._block_span(s, local_col, first_k,
                                            source.height - first_k)
            buf += (OP_READ_SPAN, base, length, _EVENT_STRIDE)
        yield from self._flush(buf)
        # Compute the outer-product contributions and scatter-subtract.
        panel = block[[k for k, _ in affected], :]      # |R| x w
        pivot = block[[k for k, _ in hit], :]           # |C| x w
        update = panel @ pivot.T                        # |R| x |C|
        tgt_block = self.blocks[t]
        tgt_pos = self.row_pos[t]
        entries = 0
        for c_idx, (_, col_row) in enumerate(hit):
            local_col = col_row - target.first
            # Rows whose structural position exists in the target block;
            # relaxed supernodes can carry source rows that are structural
            # zeros for this column, whose contribution is exactly zero.
            rows_here = []
            for r_idx, (_, row) in enumerate(affected):
                if row < col_row:
                    continue
                if row in tgt_pos:
                    rows_here.append((r_idx, row))
                elif abs(update[r_idx, c_idx]) > 1e-9:
                    raise AssertionError(
                        f"nonzero update to ({row}, {col_row}) outside the "
                        f"target supernode's structure")
            if not rows_here:
                continue
            # Per-column lock (SPLASH's column-level protection).  The
            # scatter-subtract must run after the acquire is granted: at
            # the resume that follows the ``LockAcquire``.
            yield LockAcquire(_COLUMN_LOCK_BASE + col_row)
            for r_idx, row in rows_here:
                tgt_block[tgt_pos[row], local_col] -= update[r_idx, c_idx]
            entries += len(rows_here)
            first_target_row = tgt_pos[rows_here[0][1]]
            # The touched positions are increasing but may have gaps; the
            # emitted span approximates the scatter as a contiguous run
            # capped at the block end.
            count = min(len(rows_here), target.height - first_target_row)
            base, length = self._block_span(t, local_col, first_target_row,
                                            count)
            buf = [OP_READ_SPAN, base, length, _EVENT_STRIDE,
                   OP_COMPUTE, max(len(rows_here) * w * _FLOP_CYCLES, 1),
                   OP_WRITE_SPAN, base, length, _EVENT_STRIDE]
            yield from self._flush(buf)
            yield LockRelease(_COLUMN_LOCK_BASE + col_row)


# ----------------------------------------------------------------------
# Numeric helpers
# ----------------------------------------------------------------------

def _assemble_dense(pattern: SparsePattern, seed: int) -> np.ndarray:
    """Dense SPD matrix with the given lower-triangular pattern."""
    rng = np.random.default_rng(seed)
    n = pattern.n
    dense = np.zeros((n, n))
    for j in range(n):
        for i in pattern.columns[j]:
            if i == j:
                continue
            value = rng.uniform(-1.0, 1.0)
            dense[i, j] = value
            dense[j, i] = value
    # Diagonal dominance makes it SPD regardless of the random values.
    row_sums = np.abs(dense).sum(axis=1)
    np.fill_diagonal(dense, row_sums + 1.0)
    return dense


def _solve_lower_transpose(chol: np.ndarray,
                           panel: np.ndarray) -> np.ndarray:
    """Solve X @ chol.T = panel for X (forward substitution per row)."""
    return np.linalg.solve(chol, panel.T).T
