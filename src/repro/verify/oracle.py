"""A slow, obviously-correct functional model of the coherent SCCs.

:class:`FunctionalOracle` is an interleaver observer (so attaching it
automatically routes the run through the generic loop) that maintains
its own dict-based MESI line-state map per cluster and re-derives every
protocol transition from first principles -- independently of
:mod:`repro.core.coherence`, whose optimized bookkeeping it is checking.

Before each access is simulated the oracle verifies the machine against
the model state left by the *previous* access, then applies the current
access to the model; :meth:`FunctionalOracle.verify_final` closes the
loop after the run.  Four invariants are checked every transaction:

1. **Residency**: each SCC array holds exactly the (line, state) map
   the model predicts -- tags, states, and (for set-associative
   arrays) LRU-driven evictions all included.
2. **Exclusivity**: :meth:`CoherenceController.check_exclusivity`
   returns ``None``, and independently the model never holds a
   MODIFIED/EXCLUSIVE line in more than one place.
3. **Inclusion of in-flight fills**: every ``note_fill`` entry refers
   to a resident line (:meth:`SharedClusterCache.stale_inflight`), so
   no stale fill-ready time can leak across an invalidation.
4. **Write-buffer bound**: no bank's buffer ever exceeds
   ``write_buffer_depth`` entries
   (:meth:`BankInterconnect.buffered_writes`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.cache import EXCLUSIVE, MODIFIED, SHARED

__all__ = ["FunctionalOracle", "OracleViolation"]


class OracleViolation(AssertionError):
    """The machine state contradicts the functional model."""


class _RefCache:
    """Reference tag array: per-set MRU-first lists, mirroring both
    ``DirectMappedArray`` (associativity 1) and the LRU
    ``SetAssociativeArray`` through one obviously-correct structure."""

    def __init__(self, num_lines: int, associativity: int):
        self.associativity = associativity
        self.num_sets = num_lines // associativity
        self._sets: List[List[List[int]]] = [
            [] for _ in range(self.num_sets)]

    def _bucket(self, line: int) -> List[List[int]]:
        return self._sets[line % self.num_sets]

    def lookup(self, line: int) -> Optional[int]:
        for entry in self._bucket(line):
            if entry[0] == line:
                return entry[1]
        return None

    def touch(self, line: int) -> None:
        bucket = self._bucket(line)
        for position, entry in enumerate(bucket):
            if entry[0] == line:
                if position:
                    del bucket[position]
                    bucket.insert(0, entry)
                return

    def set_state(self, line: int, state: int) -> None:
        for entry in self._bucket(line):
            if entry[0] == line:
                entry[1] = state
                return
        raise KeyError(line)

    def install(self, line: int, state: int) -> None:
        bucket = self._bucket(line)
        for entry in bucket:
            if entry[0] == line:
                entry[1] = state
                self.touch(line)
                return
        if len(bucket) >= self.associativity:
            bucket.pop()
        bucket.insert(0, [line, state])

    def invalidate(self, line: int) -> bool:
        bucket = self._bucket(line)
        for position, entry in enumerate(bucket):
            if entry[0] == line:
                del bucket[position]
                return True
        return False

    def resident(self) -> Dict[int, int]:
        return {entry[0]: entry[1]
                for bucket in self._sets for entry in bucket}


class FunctionalOracle:
    """Interleaver observer that shadow-executes the coherence protocol."""

    def __init__(self, system):
        self.system = system
        config = system.config
        self._mesi = config.protocol == "mesi"
        self._shift = config.line_offset_bits
        self._cluster_of = config.cluster_of
        self._models = [_RefCache(config.scc_lines, config.associativity)
                        for _ in range(config.clusters)]
        self.accesses_checked = 0

    # ------------------------------------------------------------------
    # Model transitions (the "obviously correct" protocol)
    # ------------------------------------------------------------------

    def _apply(self, cluster: int, line: int, is_write: bool) -> None:
        model = self._models[cluster]
        state = model.lookup(line)
        if not is_write:
            if state is not None:
                model.touch(line)
                return
            # Read miss: remote dirty/clean-exclusive copies downgrade
            # to SHARED; install EXCLUSIVE only under MESI when nobody
            # else holds the line.
            held = False
            for other_id, other in enumerate(self._models):
                if other_id == cluster:
                    continue
                remote = other.lookup(line)
                if remote is None:
                    continue
                held = True
                if remote in (MODIFIED, EXCLUSIVE):
                    other.set_state(line, SHARED)
            model.install(line, EXCLUSIVE if self._mesi and not held
                          else SHARED)
            return
        if state in (MODIFIED, EXCLUSIVE):
            model.set_state(line, MODIFIED)
            model.touch(line)
            return
        for other_id, other in enumerate(self._models):
            if other_id != cluster:
                other.invalidate(line)
        if state == SHARED:
            model.touch(line)
            model.set_state(line, MODIFIED)
        else:
            model.install(line, MODIFIED)

    # ------------------------------------------------------------------
    # Machine-vs-model verification
    # ------------------------------------------------------------------

    def _verify(self) -> None:
        system = self.system
        for cluster_id, cluster in enumerate(system.clusters):
            scc = cluster.scc
            actual = dict(scc.array.resident_lines())
            expected = self._models[cluster_id].resident()
            if actual != expected:
                self._residency_error(cluster_id, expected, actual)
            stale = scc.stale_inflight()
            if stale:
                raise OracleViolation(
                    f"cluster {cluster_id} tracks in-flight fills for "
                    f"non-resident lines {sorted(stale)}")
            icn = scc.interconnect
            for bank in range(icn.num_banks):
                held = icn.buffered_writes(bank)
                if held > icn.write_buffer_depth:
                    raise OracleViolation(
                        f"cluster {cluster_id} bank {bank} buffers "
                        f"{held} writes (depth {icn.write_buffer_depth})")
        checker = getattr(system.coherence, "check_exclusivity", None)
        if checker is not None:
            bad_line = checker()
            if bad_line is not None:
                raise OracleViolation(
                    f"machine violates MODIFIED-exclusivity on line "
                    f"{bad_line:#x}")
        owners: Dict[int, int] = {}
        sharers: Dict[int, int] = {}
        for cluster_id, model in enumerate(self._models):
            for line, state in model.resident().items():
                sharers[line] = sharers.get(line, 0) + 1
                if state in (MODIFIED, EXCLUSIVE):
                    owners[line] = owners.get(line, 0) + 1
        for line, count in owners.items():
            if count > 1 or sharers[line] > 1:
                raise OracleViolation(
                    f"model violates MODIFIED-exclusivity on line "
                    f"{line:#x}")

    def _residency_error(self, cluster_id: int, expected: Dict[int, int],
                         actual: Dict[int, int]) -> None:
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        wrong = sorted(line for line in set(expected) & set(actual)
                       if expected[line] != actual[line])
        raise OracleViolation(
            f"cluster {cluster_id} array diverges from the functional "
            f"model after {self.accesses_checked} accesses: "
            f"missing={missing} unexpected={extra} wrong-state="
            f"{[(line, expected[line], actual[line]) for line in wrong]}")

    # ------------------------------------------------------------------
    # Observer interface
    # ------------------------------------------------------------------

    def on_access(self, proc: int, addr: int, is_write: bool) -> None:
        # Called just before the machine simulates the access: the
        # machine still reflects the previous transaction, which is the
        # one the model already applied.  Synchronization shapes timing,
        # not cache contents, so this is the observer's one method.
        self._verify()
        self._apply(self._cluster_of(proc), addr >> self._shift, is_write)
        self.accesses_checked += 1

    def verify_final(self) -> None:
        """Check the state left by the last transaction."""
        self._verify()
