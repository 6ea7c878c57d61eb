"""Differential execution of one tape across every timing engine.

The per-event reference loop (mode ``generic``: ``backend="python"``)
is the semantic baseline.  Each other engine runs the same tape and
must agree with it on everything the engine exposes:

* **oracle** -- the reference loop observed by the functional model
  (:class:`~repro.verify.oracle.FunctionalOracle`); agreement covers
  the full fingerprint *and* the model's own invariants.
* **native** -- the compiled engine from :mod:`repro.trace.engine`
  (``backend="native"``, engaged whenever the machine qualifies);
  compared on cycle counts, per-cluster statistics, bus counters,
  final tag/state arrays and the in-flight fill tables and write
  buffers it leaves (it works on a copy of them and writes that back;
  a fill forgotten a cycle late changes no clock, only the next run's
  starting state).  Every path runs unprobed: a probe would keep the
  run on the reference loop, whose callbacks are the probe's only
  implementation.
* **fused** -- the compiled multi-configuration ladder, run as a
  two-rung ladder and compared on its bottom rung: statistics, event
  counts, bus counters and final tag/state arrays (the rung's arrays
  and bus clock *are* its system's, worked on in place).  Not
  ``fills``: the ladder tracks write-miss fills only, which a
  uniprocessor cannot observe.  Every rung's invariants are checked on
  what the pass wrote back.
* **profile** -- not a timing engine: the extension's row-profile
  kernel (``row_profile``, what :func:`~repro.model.profile
  .build_row_profile` runs), compared on
  ``profile``, the whole :class:`~repro.model.profile.RowProfile`
  payload of the tape's streams -- exposure floats included.  The
  baseline's ``profile`` section is the reference kernel's payload for
  the same streams; it reads the tape, not the run, so it is there even
  when the baseline's timing run raised.

``native``, ``fused`` and ``profile`` ship in one
extension, which is required, so :func:`engine_registry` is fixed.

Two paths that fail with the *same* exception type are in agreement --
error parity is part of the contract (the golden suites already pin
it); anything else is a :class:`TapeDivergence`.  The profile kernels
keep the same rule inside their section: a kernel that raised reports
the exception's type in place of a payload.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.system import MultiprocessorSystem
from ..model.profile import _native_kernel, _reference_kernel, _row_payload
from ..trace.interleave import TimingInterleaver
from ..trace.multiconfig import (_fused_pass_native, fused_ladder_supported,
                                 fused_replay_ok)
from .oracle import FunctionalOracle
from .tapes import Tape, TapeApplication

__all__ = ["DEFAULT_MAX_CYCLES", "EngineSpec", "PathResult",
           "TapeDivergence", "diff_tape", "engine_registry",
           "fused_eligible", "run_tape"]

DEFAULT_MAX_CYCLES = 10_000_000
"""Simulated-cycle bound per path; a runaway engine shows up as a
RuntimeError on one side of the diff instead of hanging the campaign."""


@dataclass
class PathResult:
    """What one engine produced for one tape."""

    name: str
    error: Optional[Tuple[str, str]] = None
    """``(exception type name, message)`` if the run raised."""

    fingerprint: Optional[Dict[str, object]] = None
    """By section.  A run that raised keeps the sections it produced
    before that (the baseline's ``profile``)."""

    fast_engaged: Optional[bool] = None
    """For the modes that ask for the native engine: whether the
    machine is one it runs (the interleaver stays on the reference loop
    for e.g. set-associative arrays, making the comparison trivially
    green)."""

    engine_used: Optional[str] = None
    """The engine that ran (``python``/``native``), for diagnosing
    silent fallbacks."""


@dataclass
class TapeDivergence:
    """Two engines disagreed on one tape."""

    tape: Tape
    kind: str
    """Name of the diverging path (a key of :func:`engine_registry`)."""

    base: PathResult
    other: PathResult
    detail: List[str] = field(default_factory=list)

    def summary(self) -> str:
        head = (self.detail[0] if self.detail
                else "(no field-level detail)")
        return (f"{self.kind} diverges from {self.base.name} on tape "
                f"seed={self.tape.seed!r} "
                f"({self.tape.total_events()} events): {head}")


def _chunk_processes(interleaver: TimingInterleaver, tape: Tape) -> None:
    processes = TapeApplication(tape).processes(interleaver.system.config)
    for pid, pieces in processes.items():
        interleaver.add_process(pid, pieces)


@dataclass(frozen=True)
class EngineSpec:
    """One engine the differ compares against the ``generic`` baseline."""

    name: str
    sections: Tuple[str, ...]
    applies: "Callable[[Tape], bool]"


def _always(tape: Tape) -> bool:
    return True


_FULL = ("events", "stats", "bus", "arrays", "fills", "write_buffers")

#: Modes that drive a :class:`TimingInterleaver`, by the backend they
#: ask for (``python`` is the reference loop).
_INTERLEAVER_MODES = {"generic": "python", "oracle": "python",
                      "native": "native"}


def engine_registry() -> Dict[str, EngineSpec]:
    """Engines to diff against the reference loop, in comparison order."""
    return {
        "oracle": EngineSpec("oracle", _FULL, _always),
        "native": EngineSpec("native", _FULL, _always),
        "fused": EngineSpec("fused", ("events", "stats", "bus", "arrays"),
                            fused_eligible),
        "profile": EngineSpec("profile", ("profile",), _always),
    }


def run_tape(tape: Tape, mode: str,
             max_cycles: int = DEFAULT_MAX_CYCLES) -> PathResult:
    """Execute ``tape`` through one engine; never raises for engine
    errors (they become the result's ``error`` so the diff can assert
    error *parity* across engines)."""
    config = tape.config()
    if mode == "fused":
        return _run_fused(tape, config)
    if mode == "profile":
        return PathResult(
            name="profile", engine_used="native",
            fingerprint={"profile": _profile_section(_native_kernel,
                                                     tape, config)})
    if mode not in _INTERLEAVER_MODES:
        raise ValueError(f"unknown differ mode {mode!r}")
    system = MultiprocessorSystem(config)
    oracle = FunctionalOracle(system) if mode == "oracle" else None
    backend = _INTERLEAVER_MODES[mode]
    interleaver = TimingInterleaver(system, observer=oracle,
                                    backend=backend)
    _chunk_processes(interleaver, tape)
    result = PathResult(name=mode)
    if mode == "generic":
        result.fingerprint = {"profile": _profile_section(
            _reference_kernel, tape, config)}
    if backend == "native":
        result.fast_engaged = interleaver._native_eligible
    try:
        execution_time = interleaver.run(max_cycles=max_cycles)
        if oracle is not None:
            oracle.verify_final()
        system.check_invariants()
    except Exception as exc:  # diffed, not propagated
        result.error = (type(exc).__name__, str(exc))
        result.engine_used = interleaver.engine_used
        return result
    result.engine_used = interleaver.engine_used
    result.fingerprint = {
        **(result.fingerprint or {}),
        "events": interleaver.events_processed,
        "stats": system.stats(execution_time).as_dict(),
        **_state_at_rest(system),
    }
    return result


def _state_at_rest(system: MultiprocessorSystem) -> Dict[str, object]:
    """What a run leaves in the machine, by section: the bus counters,
    and in each SCC's containers the resident lines, in-flight fills,
    and every bank's write buffer as a multiset (heap layout is not part
    of the contract)."""
    sccs = dict(enumerate(cluster.scc for cluster in system.clusters))
    return {
        "bus": {"transactions": system.bus.transactions,
                "busy_cycles": system.bus.busy_cycles},
        "arrays": {cluster_id: sorted(scc.array.resident_lines())
                   for cluster_id, scc in sccs.items()},
        "fills": {cluster_id: sorted(scc._inflight.items())
                  for cluster_id, scc in sccs.items()},
        "write_buffers": {cluster_id:
                          [sorted(buffer) for buffer
                           in scc.interconnect._write_buffers]
                          for cluster_id, scc in sccs.items()},
    }


def _profile_section(kernel, tape: Tape, config) -> Dict[str, object]:
    """``kernel``'s row-profile payload for the tape's streams, the
    exact ladder tracking the SCC's own line count and the next two
    sizes up -- or, if the kernel raised, the exception's type."""
    tracked = [config.scc_lines * factor for factor in (1, 2, 4)]
    try:
        return _row_payload(kernel, tape.streams, config, tracked)
    except Exception as exc:    # diffed, not propagated
        return {"error": type(exc).__name__}


def fused_eligible(tape: Tape) -> bool:
    """Whether the fused engine applies: a one-processor tape on a
    machine the two-rung ladder ``[scc, 2*scc]`` supports."""
    config = tape.config()
    if config.total_processors != 1 or not fused_replay_ok(config):
        return False
    ladder = [config, config.with_updates(scc_size=config.scc_size * 2)]
    return fused_ladder_supported(ladder)


def _run_fused(tape: Tape, config) -> PathResult:
    result = PathResult(name="fused", engine_used="native")
    ladder = [config, config.with_updates(scc_size=config.scc_size * 2)]
    systems = [MultiprocessorSystem(rung) for rung in ladder]
    try:
        events, times = _fused_pass_native(systems,
                                           array("q", tape.streams[0]))
        for system in systems:
            system.check_invariants()
    except Exception as exc:
        result.error = (type(exc).__name__, str(exc))
        return result
    result.fingerprint = {
        "events": events,
        "stats": systems[0].stats(times[0]).as_dict(),
        # (its ``fills`` are there to read, not to diff: see above)
        **_state_at_rest(systems[0]),
    }
    return result


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

def _diff_values(path: str, base, other, out: List[str]) -> None:
    if isinstance(base, dict) and isinstance(other, dict):
        for key in sorted(set(base) | set(other), key=str):
            _diff_values(f"{path}.{key}" if path else str(key),
                         base.get(key), other.get(key), out)
        return
    if (isinstance(base, (list, tuple)) and isinstance(other,
                                                       (list, tuple))):
        if list(base) != list(other):
            out.append(f"{path}: {base!r} != {other!r}")
        return
    if base != other:
        out.append(f"{path}: {base!r} != {other!r}")


def _compare(tape: Tape, base: PathResult, other: PathResult,
             sections: Tuple[str, ...]) -> Optional[TapeDivergence]:
    produced = base.fingerprint or {}
    if other.error is not None or any(section not in produced
                                      for section in sections):
        base_type = base.error[0] if base.error else None
        other_type = other.error[0] if other.error else None
        if base_type == other_type:
            return None
        return TapeDivergence(
            tape=tape, kind=other.name, base=base, other=other,
            detail=[f"error: {base.name}={base.error!r} "
                    f"{other.name}={other.error!r}"])
    detail: List[str] = []
    for section in sections:
        _diff_values(section, base.fingerprint.get(section),
                     other.fingerprint.get(section), detail)
    if not detail:
        return None
    return TapeDivergence(tape=tape, kind=other.name, base=base,
                          other=other, detail=detail)


def diff_tape(tape: Tape,
              max_cycles: int = DEFAULT_MAX_CYCLES
              ) -> Optional[TapeDivergence]:
    """Run every applicable engine over ``tape``; the first divergence
    found, or ``None`` when all engines agree."""
    generic = run_tape(tape, "generic", max_cycles)
    for spec in engine_registry().values():
        if not spec.applies(tape):
            continue
        divergence = _compare(tape, generic,
                              run_tape(tape, spec.name, max_cycles),
                              spec.sections)
        if divergence is not None:
            return divergence
    return None
