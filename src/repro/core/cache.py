"""Cache tag arrays with MSI line states.

This is the storage substrate shared by the Shared Cluster Cache
(:mod:`repro.core.scc`), the private-cache cluster organization
(:mod:`repro.core.private`), and the per-processor instruction caches
(:mod:`repro.core.icache`).  The paper's SCC is direct-mapped (its 64 KB
uniprocessor variant is "the largest direct-mapped cache that can be
accessed in 30 FO4 inverter delays", Section 4.2), so
:class:`DirectMappedArray` is the default; :class:`SetAssociativeArray`
(LRU) exists for the associativity ablation the cost model prices in
extra FO4 delays.

Coherence state is kept per resident line using the three states the
snoopy write-invalidate protocol of Section 2.2.2 needs:

* ``INVALID`` -- line not present.
* ``SHARED`` -- clean, possibly resident in other caches too.
* ``MODIFIED`` -- dirty and exclusive machine-wide.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

__all__ = ["INVALID", "SHARED", "MODIFIED", "EXCLUSIVE", "STATE_NAMES",
           "DirectMappedArray", "SetAssociativeArray", "make_array"]

INVALID = 0
SHARED = 1
MODIFIED = 2
EXCLUSIVE = 3
"""Clean and machine-wide exclusive (MESI protocol option only)."""

STATE_NAMES = {INVALID: "INVALID", SHARED: "SHARED", MODIFIED: "MODIFIED",
               EXCLUSIVE: "EXCLUSIVE"}


class DirectMappedArray:
    """Tags and MSI states for a direct-mapped cache of ``num_lines`` lines.

    Addresses never appear here; callers translate byte addresses to global
    line numbers first (see :meth:`repro.core.config.SystemConfig.line_of`).
    """

    __slots__ = ("num_lines", "_tags", "_states", "_index_mask",
                 "_tag_shift")

    def __init__(self, num_lines: int):
        if num_lines < 1:
            raise ValueError("cache must hold at least one line")
        self.num_lines = num_lines
        # ``array('q')`` rather than plain lists: the storage supports the
        # buffer protocol, so the native replay backend
        # (:mod:`repro.trace.engine`) can operate on the very same memory
        # (raw ``int64_t*`` pointers) while the python paths keep indexing
        # it unchanged.
        self._tags = array("q", bytes(8 * num_lines))
        self._states = array("q", bytes(8 * num_lines))
        # Power-of-two line counts (every paper configuration) replace the
        # divmod in index/tag extraction with a mask and a shift.
        if num_lines & (num_lines - 1) == 0 and num_lines > 1:
            self._index_mask = num_lines - 1
            self._tag_shift = num_lines.bit_length() - 1
        else:
            self._index_mask = 0
            self._tag_shift = 0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def index_of(self, line: int) -> int:
        """Set index a global line number maps to."""
        if self._index_mask:
            return line & self._index_mask
        return line % self.num_lines

    def tag_of(self, line: int) -> int:
        """Tag stored for a global line number."""
        if self._index_mask:
            return line >> self._tag_shift
        return line // self.num_lines

    # ------------------------------------------------------------------
    # Lookups and state transitions
    # ------------------------------------------------------------------

    def state(self, line: int) -> int:
        """Current state of ``line`` (``INVALID`` if not resident)."""
        if self._index_mask:
            index = line & self._index_mask
            state = self._states[index]
            if state != INVALID and self._tags[index] == line >> self._tag_shift:
                return state
            return INVALID
        index = line % self.num_lines
        state = self._states[index]
        if state != INVALID and self._tags[index] == line // self.num_lines:
            return state
        return INVALID

    def contains(self, line: int) -> bool:
        """True when ``line`` is resident in any valid state."""
        return self.state(line) != INVALID

    def install(self, line: int,
                state: int) -> Optional[Tuple[int, int]]:
        """Place ``line`` in the array in ``state``.

        Returns the displaced victim as ``(victim_line, victim_state)``
        when a *different* valid line occupied the slot, else ``None``.
        Installing over the same line just updates its state.
        """
        if state not in (SHARED, MODIFIED, EXCLUSIVE):
            raise ValueError(
                "lines are installed SHARED, MODIFIED or EXCLUSIVE")
        index = self.index_of(line)
        tag = self.tag_of(line)
        victim: Optional[Tuple[int, int]] = None
        old_state = self._states[index]
        if old_state != INVALID and self._tags[index] != tag:
            victim_line = self._tags[index] * self.num_lines + index
            victim = (victim_line, old_state)
        self._tags[index] = tag
        self._states[index] = state
        return victim

    def set_state(self, line: int, state: int) -> None:
        """Transition a *resident* line to ``state``.

        Raises :class:`KeyError` if the line is not resident; use
        :meth:`install` to bring lines in.
        """
        index = self.index_of(line)
        if self._states[index] == INVALID or self._tags[index] != self.tag_of(line):
            raise KeyError(f"line {line:#x} not resident")
        if state == INVALID:
            self._states[index] = INVALID
        elif state in (SHARED, MODIFIED, EXCLUSIVE):
            self._states[index] = state
        else:
            raise ValueError(f"unknown state {state}")

    def invalidate(self, line: int) -> bool:
        """Invalidate ``line`` if resident; returns whether it was."""
        index = self.index_of(line)
        if self._states[index] != INVALID and self._tags[index] == self.tag_of(line):
            self._states[index] = INVALID
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection (tests, invariant checks)
    # ------------------------------------------------------------------

    def resident_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(line, state)`` for every valid line."""
        for index, state in enumerate(self._states):
            if state != INVALID:
                yield self._tags[index] * self.num_lines + index, state

    def valid_count(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for state in self._states if state != INVALID)

    def touch(self, line: int) -> None:
        """Replacement-policy hint on a hit (no-op: direct-mapped)."""


class SetAssociativeArray:
    """LRU set-associative tag array with the same MSI interface.

    ``num_lines`` total lines across ``associativity`` ways; the set
    index of a line is ``line mod num_sets``.  Hits must be reported via
    :meth:`touch` so LRU order tracks use (the coherence controller does
    this).
    """

    __slots__ = ("num_lines", "associativity", "num_sets", "_sets")

    def __init__(self, num_lines: int, associativity: int):
        if num_lines < 1:
            raise ValueError("cache must hold at least one line")
        if associativity < 1 or num_lines % associativity:
            raise ValueError(
                "associativity must divide the line count")
        self.num_lines = num_lines
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        # Each set: list of [line, state], most recently used first.
        self._sets: List[List[List[int]]] = [
            [] for _ in range(self.num_sets)]

    def index_of(self, line: int) -> int:
        """Set index a global line number maps to."""
        return line % self.num_sets

    def _find(self, line: int):
        bucket = self._sets[line % self.num_sets]
        for position in range(len(bucket)):
            entry = bucket[position]
            if entry[0] == line:
                return bucket, position, entry
        return bucket, -1, None

    def state(self, line: int) -> int:
        """Current state of ``line`` (``INVALID`` if not resident)."""
        # The by-far hottest lookup: scan without building the
        # (bucket, position, entry) result tuple _find returns.
        for entry in self._sets[line % self.num_sets]:
            if entry[0] == line:
                return entry[1]
        return INVALID

    def contains(self, line: int) -> bool:
        """True when ``line`` is resident in any valid state."""
        return self.state(line) != INVALID

    def touch(self, line: int) -> None:
        """Move ``line`` to most-recently-used in its set (hit hint)."""
        bucket, position, entry = self._find(line)
        if position > 0:
            del bucket[position]
            bucket.insert(0, entry)

    def install(self, line: int, state: int) -> Optional[Tuple[int, int]]:
        """Place ``line`` at MRU in ``state``; returns any LRU victim."""
        if state not in (SHARED, MODIFIED, EXCLUSIVE):
            raise ValueError(
                "lines are installed SHARED, MODIFIED or EXCLUSIVE")
        bucket, position, entry = self._find(line)
        if position >= 0:
            entry[1] = state
            self.touch(line)
            return None
        victim: Optional[Tuple[int, int]] = None
        if len(bucket) >= self.associativity:
            victim_line, victim_state = bucket.pop()
            victim = (victim_line, victim_state)
        bucket.insert(0, [line, state])
        return victim

    def set_state(self, line: int, state: int) -> None:
        """Transition a *resident* line to ``state``."""
        bucket, position, entry = self._find(line)
        if position < 0:
            raise KeyError(f"line {line:#x} not resident")
        if state == INVALID:
            del bucket[position]
        elif state in (SHARED, MODIFIED, EXCLUSIVE):
            entry[1] = state
        else:
            raise ValueError(f"unknown state {state}")

    def invalidate(self, line: int) -> bool:
        """Invalidate ``line`` if resident; returns whether it was."""
        bucket, position, _ = self._find(line)
        if position >= 0:
            del bucket[position]
            return True
        return False

    def resident_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(line, state)`` for every valid line."""
        for bucket in self._sets:
            for line, state in bucket:
                yield line, state

    def valid_count(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(bucket) for bucket in self._sets)


def make_array(num_lines: int, associativity: int = 1):
    """Tag array of the right kind for an associativity."""
    if associativity == 1:
        return DirectMappedArray(num_lines)
    return SetAssociativeArray(num_lines, associativity)
