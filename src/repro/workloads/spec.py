"""SPEC92-like synthetic reference generators (pixie-trace equivalents).

The paper's multiprogramming workload (Section 2.3, Table 2) interleaves
pixie-annotated SPEC92 binaries: sc, espresso, eqntott, xlisp, compress,
gcc, spice and wave5.  The binaries and pixie are not available, so each
application is modelled as a deterministic synthetic reference stream with
that benchmark's published memory personality: code working-set size,
data working-set size, access skew (how concentrated references are on
hot lines), write fraction, and memory-reference density.

The generator machinery is shared (:class:`SpecApp`):

* instruction fetches walk loop bodies sequentially and jump between
  functions, covering a code working set of the configured size;
* data references split between a small hot stack and a heap whose lines
  are sampled from a Zipf-like popularity distribution over the data
  working set -- the classic single-process locality model, which yields
  the right miss-rate-vs-cache-size knee for each application;
* everything is drawn from a per-app seeded RNG in pre-computed batches,
  so streams are reproducible and cheap.

A multiprogramming quantum is written as one packed chunk
(:meth:`SpecApp.burst_chunk`) by the native extension's ``spec_burst``
(``trace/engine/_native.c``); its python twin, the reference the tests
hold it to draw for draw, is ``tests/oracles/spec.py``.

Working-set sizes below are the *paper-scale* figures (bytes); the
multiprogramming workload divides them by the experiment's ladder scale so
the footprint-to-cache ratio of Figure 5 is preserved (DESIGN.md).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..trace.engine import native
from ..trace.packed import PackedChunk

__all__ = ["SpecProfile", "SpecApp", "SPEC92_PROFILES", "spec92_workload"]

_BASIC_BLOCK = 8        # instructions fetched per Ifetch event
_BATCH = 2048           # random draws generated at a time
KB = 1024


@dataclass(frozen=True)
class SpecProfile:
    """Memory personality of one benchmark (paper-scale sizes, bytes)."""

    name: str
    code_bytes: int
    """Code working set covered by instruction fetches."""

    data_bytes: int
    """Total heap footprint (hot set plus scanned arrays)."""

    hot_bytes: int
    """Primary (hot) working set repeatedly revisited by heap references."""

    scan_fraction: float
    """Fraction of data references that stream sequentially through the
    large cold arrays (compulsory misses at any cache size)."""

    write_fraction: float
    """Fraction of data references that are stores."""

    refs_per_instruction: float
    """Data references per instruction executed."""

    stack_fraction: float
    """Fraction of data references that hit the (tiny, hot) stack."""

    locality: float = 0.85
    """Probability that a hot-set reference re-touches one of the most
    recently used lines (the LRU-stack temporal-locality mass); the rest
    sample the hot set uniformly."""


#: Table 2's eight applications.  Sizes and skews are drawn from the
#: published SPEC92 characterization literature: compress and wave5 stream
#: through large arrays with little reuse (low skew, big sets); xlisp and
#: espresso have small hot working sets; gcc is code-limited.
SPEC92_PROFILES: Tuple[SpecProfile, ...] = (
    SpecProfile("sc", code_bytes=64 * KB, data_bytes=192 * KB,
                hot_bytes=10 * KB, scan_fraction=0.04,
                write_fraction=0.25, refs_per_instruction=0.33,
                stack_fraction=0.35),
    SpecProfile("espresso", code_bytes=96 * KB, data_bytes=160 * KB,
                hot_bytes=6 * KB, scan_fraction=0.02,
                write_fraction=0.15, refs_per_instruction=0.30,
                stack_fraction=0.30),
    SpecProfile("eqntott", code_bytes=32 * KB, data_bytes=448 * KB,
                hot_bytes=14 * KB, scan_fraction=0.06,
                write_fraction=0.10, refs_per_instruction=0.35,
                stack_fraction=0.20),
    SpecProfile("xlisp", code_bytes=48 * KB, data_bytes=96 * KB,
                hot_bytes=4 * KB, scan_fraction=0.02,
                write_fraction=0.30, refs_per_instruction=0.40,
                stack_fraction=0.40),
    SpecProfile("compress", code_bytes=16 * KB, data_bytes=512 * KB,
                hot_bytes=4 * KB, scan_fraction=0.18,
                write_fraction=0.30, refs_per_instruction=0.30,
                stack_fraction=0.15),
    SpecProfile("gcc", code_bytes=256 * KB, data_bytes=256 * KB,
                hot_bytes=12 * KB, scan_fraction=0.03,
                write_fraction=0.20, refs_per_instruction=0.33,
                stack_fraction=0.35),
    SpecProfile("spice", code_bytes=128 * KB, data_bytes=384 * KB,
                hot_bytes=16 * KB, scan_fraction=0.05,
                write_fraction=0.15, refs_per_instruction=0.38,
                stack_fraction=0.20),
    SpecProfile("wave5", code_bytes=64 * KB, data_bytes=448 * KB,
                hot_bytes=12 * KB, scan_fraction=0.12,
                write_fraction=0.25, refs_per_instruction=0.40,
                stack_fraction=0.15),
)


_STACK_BYTES = 2 * KB   # per-process hot stack (paper scale; also scaled)
_ADDRESS_SPACE = 1 << 26  # 64 MB per process


class SpecApp:
    """Resumable synthetic reference stream for one process.

    ``burst_chunk(n)`` is the next ``n`` instructions as one packed
    chunk; the stream picks up where it left off regardless of which
    processor runs the quantum, like a real process under a scheduler.
    """

    def __init__(self, app_id: int, profile: SpecProfile, scale: int = 1,
                 seed: int = 1234):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.app_id = app_id
        self.profile = profile
        self.scale = scale
        # Address-space layout: each process gets its own 64 MB space,
        # with its segments staggered by a per-process offset so that
        # different processes' hot regions do not land on identical cache
        # indices (as real virtual-to-physical mappings would not).
        base = app_id * _ADDRESS_SPACE
        stagger = app_id * 557 * 16
        self.code_base = base + stagger
        self.code_bytes = max(profile.code_bytes // scale, 256)
        self.stack_base = base + (_ADDRESS_SPACE // 2) + stagger
        self.stack_bytes = max(_STACK_BYTES // scale, 64)
        self.heap_base = base + (_ADDRESS_SPACE // 4) + stagger
        self.hot_bytes = max(profile.hot_bytes // scale, 128)
        # Recently-used hot lines (the dense head of the LRU stack).
        self._recent = array("q", [0]) * 48
        self._recent_fill = 1
        self.scan_base = base + (3 * _ADDRESS_SPACE // 8) + stagger
        self.scan_bytes = max((profile.data_bytes - profile.hot_bytes)
                              // scale, 1024)
        self._scan_cursor = 0
        self._rng = np.random.default_rng(seed * 1000003 + app_id)
        self.instructions_executed = 0
        self._code_cursor = 0
        self._loop_remaining = 0
        self._loop_start = 0
        self._loop_length = 0
        # What ``spec_burst`` reads of the profile and the layout.
        self._fractions = (profile.stack_fraction, profile.scan_fraction,
                           profile.write_fraction, profile.locality,
                           profile.refs_per_instruction)
        self._segments = (self.code_base, self.code_bytes, self.stack_base,
                          self.stack_bytes, self.heap_base, self.hot_bytes,
                          self.scan_base, self.scan_bytes)
        self._refill()

    def _refill(self) -> np.ndarray:
        """The next batch of uniform draws (``spec_burst`` calls this when
        the current one runs out)."""
        self._uniform = self._rng.uniform(size=_BATCH)
        self._uniform_index = 0
        return self._uniform

    # -- the stream ----------------------------------------------------------

    def burst_chunk(self, n_instructions: int) -> PackedChunk:
        """The next ``n_instructions`` instructions as one packed chunk:
        an ``Ifetch`` per basic block, then the data references the block
        carries, written into an ``array('q')`` by the native extension's
        ``spec_burst``.

        Building the quantum eagerly is chunk-safe
        (:mod:`repro.trace.packed`) because all of this state is private
        to the process -- the run queue hands an application to exactly
        one processor at a time.
        """
        words = array("q")
        (self._code_cursor, self._loop_remaining, self._loop_start,
         self._loop_length, self._scan_cursor, self._recent_fill,
         self._uniform_index) = native.load().spec_burst(
            words, n_instructions, self._fractions, self._segments,
            (self._code_cursor, self._loop_remaining, self._loop_start,
             self._loop_length, self._scan_cursor),
            self._recent, self._recent_fill, self._uniform,
            self._uniform_index, self._refill)
        self.instructions_executed += n_instructions
        return PackedChunk(words)


def spec92_workload(scale: int = 1, seed: int = 1234) -> List[SpecApp]:
    """The paper's eight-application multiprogramming mix."""
    return [SpecApp(app_id, profile, scale=scale, seed=seed)
            for app_id, profile in enumerate(SPEC92_PROFILES)]
