"""First import of the benchmark's child scripts (``child.py``,
``probes.py``), which run as ``python3 bench/<script>.py`` so that this
directory is ``sys.path[0]``.

:func:`pin_environment` makes the process read and write only inside the
checkout and measure the same program whatever the caller's shell holds:
every ambient ``REPRO_*`` variable is dropped (``REPRO_ENGINE`` unset, so
the engine tier is whatever ``auto`` resolves to), the native engine is
built under ``.bench_build/``, and ``src/`` and the checkout root go on
``sys.path`` so ``repro`` and ``bench`` import without ``PYTHONPATH``.
The process is also pinned to one CPU: the sandbox's two virtual CPUs run
at different speeds from moment to moment and waking an idle one is slow
and erratic, so unpinned a warm fabric request took 2.8-5.1 ms from one
child to the next, pinned 2.8-3.4 ms; it also keeps every thread of the
workload on the CPU the calibration spins measure.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
SCRATCH_ROOT = ROOT_DIR / ".bench_scratch"
NATIVE_CACHE = ROOT_DIR / ".bench_build" / "native"


def pin_environment() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_NATIVE_CACHE"] = str(NATIVE_CACHE)
    for entry in (str(ROOT_DIR / "src"), str(ROOT_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
