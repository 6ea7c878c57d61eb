"""The two timing engines and how one is selected.

The SCC/bus timing model has two implementations ("backends", psim's
``EVAL_MODE`` pattern: one reference, one fast):

* ``python`` -- the per-event reference loop of
  :class:`~repro.trace.interleave.TimingInterleaver` over the
  :mod:`repro.core` objects.  Always available, runs every machine, and
  is what an attached observer, the probe's event log or a non-standard
  probe always gets; there is no fused ladder on it (:func:`~repro.trace.multiconfig.fused_ladder_results`
  replays once per size).
* ``native`` -- :mod:`repro.trace.engine.native`.  A C extension
  (``_native.c``) that owns the data path -- hits, bank/write-buffer
  timing, the snoopy MSI/MESI miss path and its bus -- and scheduling:
  it drains chunks over the shared ``array('q')`` tag/state/bank/bus
  storage and switches processes in place on the interleaver's heap,
  and carries the fused ladder.  Python owns the generators, the
  synchronization handlers and instruction-cache refills (the one
  callback left).  The standard
  :class:`~repro.instrument.probes.InstrumentationProbe` (no event
  log) rides along: C bins its timelines and counters.  The same
  extension carries the analytical tier's row-profile kernel
  (:func:`repro.model.profile.build_row_profile` runs it when the
  extension loaded, its python reference otherwise); that choice
  follows the loader, not ``backend=``: a profile is the same either
  way and no request can ask for the slow one.

Selection: the ``backend=`` knob on ``TimingInterleaver`` /
``run_simulation`` / ``SweepSpec`` wins; otherwise the ``REPRO_ENGINE``
environment variable; otherwise ``auto``, which probes native -> python.
A ``native`` request degrades gracefully to python (a missing compiler)
unless ``strict=True`` -- :func:`engine_degradation` says what that
costs.  The retired ``numpy`` tier's name is still accepted from stored
requests (environment, specs, 1.2 wire payloads) and treated like any
unavailable tier: it resolves to python.

The native engine must be fingerprint-identical to the reference loop,
the probe's registry included; the differential verifier
(:mod:`repro.verify.differ`) diffs the two over the golden suites and
the fuzz corpus.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = ["BACKEND_CHOICES", "ENGINE_ENV", "RETIRED_BACKENDS",
           "available_backends", "backend_info", "engine_degradation",
           "native_available", "native_unavailable_reason",
           "resolve_backend"]

#: Values offered for ``REPRO_ENGINE`` and every ``backend=`` knob.
BACKEND_CHOICES = ("auto", "python", "native")

#: Names of removed tiers.  Not offered anywhere, but a stored request
#: naming one still validates and resolves to ``python``.
RETIRED_BACKENDS = ("numpy",)

ENGINE_ENV = "REPRO_ENGINE"

# What a run that wanted the native tier is told it got instead; the
# factors are the compiler-less cost measured in README "Replay engines".
_REFERENCE_LOOP_NOTE = (
    "running on the per-event reference loop with no fused ladder "
    "(same results; live paper points up to ~15x slower, tape replay "
    "~35-65x, a warm uniprocessor ladder ~100x, an analytical row "
    "profile ~60x)")


def native_available() -> bool:
    """Whether the C extension imported (or built on demand)."""
    from . import native
    return native.load() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native tier is missing (``None`` when it loaded)."""
    from . import native
    native.load()
    return native.LOAD_ERROR


def _normalize(request: Optional[str]) -> str:
    """Validated request name; ``None`` reads ``$REPRO_ENGINE``."""
    if request is None:
        request = os.environ.get(ENGINE_ENV, "").strip() or "auto"
    request = request.strip().lower()
    if request not in BACKEND_CHOICES + RETIRED_BACKENDS:
        raise ValueError(
            f"unknown replay backend {request!r}; "
            f"choose from {', '.join(BACKEND_CHOICES)}")
    return request


def resolve_backend(request: Optional[str] = None,
                    strict: bool = False) -> str:
    """Concrete backend for a request.

    ``None`` reads ``$REPRO_ENGINE`` (default ``auto``).  ``auto`` probes
    native -> python; a request for an unavailable tier (``native``
    without the extension, or a retired name) degrades to ``python``
    unless ``strict`` is set, in which case it raises ``RuntimeError``
    with the reason.
    """
    request = _normalize(request)
    if request in ("auto", "native") and native_available():
        return "native"
    if strict and request == "native":
        raise RuntimeError(
            f"native replay backend unavailable: "
            f"{native_unavailable_reason()}")
    if strict and request in RETIRED_BACKENDS:
        raise RuntimeError(f"{request} replay backend was removed")
    return "python"


def engine_degradation(request: Optional[str] = None) -> Optional[str]:
    """Human-readable note when resolution lands below the tier the
    request names, or ``None`` when nothing degraded.

    ``auto`` (and an explicit ``native`` request) aim for the native
    tier, so resolving anything else means a toolchain problem worth
    surfacing -- the sweep/optimize CLIs print this instead of
    silently running slower.
    """
    request = _normalize(request)
    if request in RETIRED_BACKENDS:
        return (f"{request} tier was removed; {_REFERENCE_LOOP_NOTE}; "
                f"request auto or native for the fast engine")
    if request != "python" and not native_available():
        reason = native_unavailable_reason() or "unknown"
        return (f"native tier unavailable ({reason}); "
                f"{_REFERENCE_LOOP_NOTE}; "
                f"a C compiler restores the fast engine")
    return None


def available_backends() -> list:
    """Concrete backends importable right now, fastest first."""
    return ["native", "python"] if native_available() else ["python"]


def backend_info(request: Optional[str] = None) -> Dict[str, object]:
    """Backend metadata for bench reports and diagnostics."""
    from . import native
    info: Dict[str, object] = {
        "requested": request or os.environ.get(ENGINE_ENV, "").strip()
        or "auto",
        "resolved": resolve_backend(request),
        "available": available_backends(),
    }
    if native_available():
        info["native_version"] = native.NATIVE_VERSION
        info["native_ladder"] = native.ladder_available()
    else:
        info["native_error"] = native_unavailable_reason()
    return info
