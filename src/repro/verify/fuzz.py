"""The supervised differential-fuzzing campaign.

:func:`run_fuzz` drives ``budget`` generated tapes through the
differential runner, shrinks whatever diverges, and writes the shrunk
repros to disk.  Case supervision mirrors the sweep session's: one
crashing case is *quarantined* (recorded with its exception) instead of
sinking the campaign, and the cases are counted by outcome into
:attr:`FuzzReport.counters` (``total``/``clean``/``diverged``/
``quarantined``).

Case seeds derive deterministically from the master seed
(``"<seed>:<index>"``), so ``--seed 0 --budget 200`` names the same 200
tapes on every machine, and any reported case replays standalone via
``generate_tape``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .differ import DEFAULT_MAX_CYCLES, diff_tape
from .shrink import DEFAULT_MAX_CHECKS, default_repro_dir, shrink_tape, \
    write_repro
from .tapes import Tape, generate_tape

__all__ = ["FuzzDivergence", "FuzzReport", "default_repro_dir",
           "run_fuzz"]


@dataclass
class FuzzDivergence:
    """One diverging case, shrunk (when enabled) and persisted."""

    case_index: int
    case_seed: str
    kind: str
    detail: List[str]
    original_events: int
    shrunk_events: Optional[int] = None
    shrink_checks: int = 0
    repro_path: Optional[Path] = None
    tape: Optional[Tape] = None
    """The minimal (or, with shrinking off, original) diverging tape."""


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    seed: int
    budget: int
    cases: int = 0
    divergences: List[FuzzDivergence] = field(default_factory=list)
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    """``(case seed, "ExcType: message")`` for cases that crashed the
    differ itself rather than diverging."""

    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.quarantined

    def summary(self) -> str:
        get = self.counters.get
        return (f"fuzz: {self.cases} case(s), seed {self.seed} -- "
                f"{int(get('clean', 0))} clean, "
                f"{int(get('diverged', 0))} diverged, "
                f"{int(get('quarantined', 0))} quarantined")


def run_fuzz(seed: int = 0, budget: int = 200, shrink: bool = True,
             out_dir: Optional[Path] = None,
             progress: Optional[Callable] = None,
             max_cycles: int = DEFAULT_MAX_CYCLES,
             max_shrink_checks: int = DEFAULT_MAX_CHECKS) -> FuzzReport:
    """Fuzz ``budget`` tapes derived from ``seed``; never raises for
    per-case failures.  ``progress(index, budget, status, case_seed)``
    is called once per case when given."""
    report = FuzzReport(seed=seed, budget=budget)
    counts: Counter = Counter()

    for index in range(budget):
        case_seed = f"{seed}:{index}"
        counts["total"] += 1
        report.cases += 1
        try:
            tape = generate_tape(case_seed)
            divergence = diff_tape(tape, max_cycles=max_cycles)
        except Exception as exc:  # quarantine, keep fuzzing
            counts["quarantined"] += 1
            report.quarantined.append(
                (case_seed, f"{type(exc).__name__}: {exc}"))
            if progress is not None:
                progress(index, budget, "quarantined", case_seed)
            continue
        if divergence is None:
            counts["clean"] += 1
            if progress is not None:
                progress(index, budget, "clean", case_seed)
            continue
        counts["diverged"] += 1
        record = FuzzDivergence(
            case_index=index, case_seed=case_seed, kind=divergence.kind,
            detail=list(divergence.detail[:10]),
            original_events=tape.total_events())
        final_tape, final_divergence = tape, divergence
        if shrink:
            try:
                final_tape, record.shrink_checks = shrink_tape(
                    tape, max_checks=max_shrink_checks)
                final_divergence = (diff_tape(final_tape,
                                              max_cycles=max_cycles)
                                    or divergence)
            except Exception:  # fall back to the unshrunk repro
                final_tape, final_divergence = tape, divergence
        record.tape = final_tape
        record.shrunk_events = final_tape.total_events()
        record.kind = final_divergence.kind
        record.detail = list(final_divergence.detail[:10])
        record.repro_path = write_repro(final_tape, final_divergence,
                                        out_dir)
        report.divergences.append(record)
        if progress is not None:
            progress(index, budget, f"DIVERGED ({record.kind})",
                     case_seed)
    report.counters = dict(sorted(counts.items()))
    return report
