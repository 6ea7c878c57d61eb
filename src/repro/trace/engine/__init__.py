"""The two timing engines and how one is selected.

The SCC/bus timing model has two implementations ("backends", psim's
``EVAL_MODE`` pattern: one reference, one fast):

* ``python`` -- the per-event reference loop of
  :class:`~repro.trace.interleave.TimingInterleaver` over the
  :mod:`repro.core` objects.  Always available, runs every machine, and
  is what an ``on_access`` observer or any probe always gets; there is no
  fused ladder on it (:func:`~repro.trace.multiconfig.fused_ladder_results`
  replays once per size).
* ``native`` -- :mod:`repro.trace.engine.native`.  A C extension
  (``_native.c``) that owns the data path -- hits, bank/write-buffer
  timing, the snoopy MSI/MESI miss path and its bus, the
  instruction-cache refills -- and the run around it: one
  ``_native.run`` call resumes the generators, executes their chunks
  over the shared ``array('q')`` tag/state/bank/bus storage, switches
  processes on its own copy of the ready queue and keeps the locks,
  barriers and task queues.  It also carries the fused ladder, a second
  driver of the same memory system: each rung is planned
  (:func:`~repro.trace.engine.native.machine_plan`) and settled
  (:func:`~repro.trace.engine.native.settle`) as a run's machine is, and
  one ``ladder_drain`` call runs a whole pass, locks and barriers
  included.  Python
  is left the generators' bodies -- and for MP3D and Barnes-Hut not
  even those: their processes are the extension's own iterators, which
  ``_native.run`` steps without resuming anything.  The same
  extension carries four kernels that time nothing and run under either
  engine: the analytical tier's row profile (``row_profile``, for
  :func:`repro.model.profile.build_row_profile`), a SPEC application's
  multiprogramming quantum (``spec_burst``), and MP3D's and Barnes-Hut's
  processes (``mp3d_processes`` and ``barnes_processes``).  They are how
  those streams are made; their python twins live in ``tests/oracles/``
  as the references the parity tests hold them to.

The extension is required: :func:`repro.trace.engine.native.load`
builds it on first use and raises ``ImportError`` when it cannot.

Selection is one switch per process, psim's ``EVAL_MODE``: the
``REPRO_ENGINE`` environment variable (default ``auto``, which is
native).  A sweep does not choose: pool workers inherit the variable,
and a fabric worker resolves its own host's.  The ``backend=`` argument
of ``TimingInterleaver`` / ``run_simulation`` / ``fused_ladder_results``
overrides it for one call -- the differ pins the reference loop through
it.  The retired ``numpy`` tier's name is still accepted (the
environment, a ``backend=`` argument) and resolves to python;
:func:`engine_degradation` says so.

The native engine must be fingerprint-identical to the reference loop
(a probed run is always the reference loop's); the differential verifier
(:mod:`repro.verify.differ`) diffs the two over the golden suites and
the fuzz corpus.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = ["BACKEND_CHOICES", "ENGINE_ENV", "RETIRED_BACKENDS",
           "backend_info", "engine_degradation", "resolve_backend"]

#: Values offered for ``REPRO_ENGINE`` and every ``backend=`` knob.
BACKEND_CHOICES = ("auto", "python", "native")

#: Names of removed tiers.  Not offered anywhere, but a stored request
#: naming one still validates and resolves to ``python``.
RETIRED_BACKENDS = ("numpy",)

ENGINE_ENV = "REPRO_ENGINE"

# What a run that names the retired tier is told it gets instead; the
# factors are the reference loop's cost measured in README "Replay
# engines".
_REFERENCE_LOOP_NOTE = (
    "running on the per-event reference loop with no fused ladder "
    "(same results; live paper points up to ~15x slower, tape replay "
    "~35-65x, a warm uniprocessor ladder ~100x)")


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


def resolve_backend(request: Optional[str] = None) -> str:
    """Concrete backend for a request.

    ``None`` reads ``$REPRO_ENGINE`` (default ``auto``).  ``auto`` and
    ``native`` are native; ``python`` and the retired ``numpy`` are the
    reference loop.
    """
    if _normalize(request) in ("auto", "native"):
        return "native"
    return "python"


def engine_degradation(request: Optional[str] = None) -> Optional[str]:
    """Human-readable note when the request names the retired tier, or
    ``None``.  The sweep/optimize CLIs print it instead of silently
    running slower."""
    request = _normalize(request)
    if request in RETIRED_BACKENDS:
        return (f"{request} tier was removed; {_REFERENCE_LOOP_NOTE}; "
                f"request auto or native for the fast engine")
    return None


def backend_info(request: Optional[str] = None) -> Dict[str, object]:
    """Backend metadata for bench reports and diagnostics."""
    from . import native
    return {
        "requested": request or os.environ.get(ENGINE_ENV, "").strip()
        or "auto",
        "resolved": resolve_backend(request),
        "available": ["native", "python"],
        "native_version": native.NATIVE_VERSION,
        # The ladder ships in the same extension, which is required.
        "native_ladder": True,
    }
