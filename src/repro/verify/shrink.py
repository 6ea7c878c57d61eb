"""Delta-debugging reduction of diverging tapes.

Classic ddmin over the tape's decoded event objects (spans decompose
into their element accesses first, so the reducer works at single-event
granularity).  After every deletion attempt the candidate is *repaired*
back into the validity envelope the generator guarantees -- lock
acquire/release balance within each stream and barrier participation
matched across streams -- purely by deleting further events, so a
repaired candidate is never larger than the attempt.  Candidates are
accepted only if the differential runner still finds a divergence, and
the final tape is written to ``<cache root>/repros/``
(:func:`~repro.diskstore.cache_root`) as a self-contained JSON repro.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..diskstore import atomic_write, cache_root
from ..trace.events import Barrier, LockAcquire, LockRelease, TraceEvent
from ..trace.packed import decode_events, encode_events
from .differ import TapeDivergence, diff_tape
from .tapes import Tape, tape_to_json

__all__ = ["DEFAULT_MAX_CHECKS", "default_repro_dir", "shrink_tape",
           "write_repro"]

DEFAULT_MAX_CHECKS = 400
"""Differential-run budget per shrink (each check runs every engine)."""


def default_repro_dir() -> Path:
    """Where shrunk repros land: ``<cache root>/repros``."""
    return cache_root() / "repros"


# ----------------------------------------------------------------------
# Validity repair
# ----------------------------------------------------------------------

def _repair_locks(events: List[TraceEvent]) -> List[TraceEvent]:
    """Deletion-only lock discipline: drop re-acquires of held locks,
    releases of un-held locks, and acquires never released."""
    filtered: List[TraceEvent] = []
    open_acquires: Dict[int, int] = {}
    for event in events:
        if isinstance(event, LockAcquire):
            if event.lock_id in open_acquires:
                continue
            open_acquires[event.lock_id] = len(filtered)
            filtered.append(event)
        elif isinstance(event, LockRelease):
            if event.lock_id not in open_acquires:
                continue
            del open_acquires[event.lock_id]
            filtered.append(event)
        else:
            filtered.append(event)
    unmatched = set(open_acquires.values())
    if not unmatched:
        return filtered
    return [event for index, event in enumerate(filtered)
            if index not in unmatched]


def repair(streams: Dict[int, List[TraceEvent]]
           ) -> Dict[int, List[TraceEvent]]:
    """Restore tape validity after arbitrary event deletions."""
    repaired = {pid: _repair_locks(events)
                for pid, events in streams.items()}
    # A barrier episode only completes when every registered processor
    # arrives, so each barrier id must occur the same number of times in
    # every stream: truncate to the minimum (zero drops it everywhere).
    barrier_ids = {event.barrier_id
                   for events in repaired.values() for event in events
                   if isinstance(event, Barrier)}
    quota = {
        barrier_id: min(
            sum(1 for event in events
                if isinstance(event, Barrier)
                and event.barrier_id == barrier_id)
            for events in repaired.values())
        for barrier_id in barrier_ids
    }
    result: Dict[int, List[TraceEvent]] = {}
    for pid, events in repaired.items():
        seen: Dict[int, int] = {}
        kept: List[TraceEvent] = []
        for event in events:
            if isinstance(event, Barrier):
                count = seen.get(event.barrier_id, 0)
                if count >= quota[event.barrier_id]:
                    continue
                seen[event.barrier_id] = count + 1
            kept.append(event)
        result[pid] = kept
    return result


# ----------------------------------------------------------------------
# ddmin
# ----------------------------------------------------------------------

def shrink_tape(tape: Tape,
                predicate: Optional[Callable[[Tape], bool]] = None,
                max_checks: int = DEFAULT_MAX_CHECKS
                ) -> Tuple[Tape, int]:
    """Reduce a diverging ``tape``; returns ``(shrunk tape, checks)``.

    ``predicate`` decides whether a candidate still exhibits the bug
    (default: :func:`~repro.verify.differ.diff_tape` finds *any*
    divergence).  The input tape must satisfy the predicate; the result
    always does.
    """
    if predicate is None:
        def predicate(candidate: Tape) -> bool:
            return diff_tape(candidate) is not None

    decoded = {pid: list(decode_events(stream))
               for pid, stream in tape.streams.items()}
    checks = 0

    def build(indices: List[Tuple[int, int]]) -> Tape:
        kept: Dict[int, List[TraceEvent]] = {pid: [] for pid in decoded}
        for pid, position in indices:
            kept[pid].append(decoded[pid][position])
        repaired = repair(kept)
        return tape.replaced({pid: list(encode_events(events))
                              for pid, events in repaired.items()})

    flat = [(pid, position) for pid in sorted(decoded)
            for position in range(len(decoded[pid]))]
    best = build(flat)
    if not predicate(best):
        # Repair of the full tape must be an identity for generated
        # tapes; hand-built ones may only diverge pre-repair.
        return tape, 1
    checks += 1

    granularity = 2
    while len(flat) >= 2 and checks < max_checks:
        chunk = max(1, len(flat) // granularity)
        reduced = False
        start = 0
        while start < len(flat) and checks < max_checks:
            trial = flat[:start] + flat[start + chunk:]
            if not trial:
                start += chunk
                continue
            candidate = build(trial)
            checks += 1
            if predicate(candidate):
                flat = trial
                best = candidate
                granularity = max(2, granularity - 1)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(flat), granularity * 2)
    return best, checks


# ----------------------------------------------------------------------
# Repro persistence
# ----------------------------------------------------------------------

def write_repro(tape: Tape, divergence: TapeDivergence,
                out_dir: Optional[Path] = None) -> Path:
    """Persist a (shrunk) diverging tape as a standalone JSON repro."""
    directory = Path(out_dir) if out_dir is not None else \
        default_repro_dir()
    directory.mkdir(parents=True, exist_ok=True)
    tape_json = tape_to_json(tape)
    digest = hashlib.sha256(tape_json.encode()).hexdigest()[:12]
    path = directory / f"repro-{divergence.kind}-{digest}.json"
    payload = {
        "version": 1,
        "seed": tape.seed,
        "kind": divergence.kind,
        "summary": divergence.summary(),
        "detail": divergence.detail[:20],
        "events": tape.total_events(),
        "tape": json.loads(tape_json),
    }
    atomic_write(path, json.dumps(payload, sort_keys=True,
                                  indent=1).encode())
    return path
