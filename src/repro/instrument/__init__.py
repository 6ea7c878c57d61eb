"""Cycle-level observability for the shared-cache multiprocessor.

The simulator's end-of-run aggregates (:mod:`repro.core.stats`) say *how
much* time went to bank conflicts or bus waits, never *when*.  This
package adds the temporal axis:

* :mod:`~repro.instrument.probes` -- the zero-overhead-when-disabled
  probe API the core hot paths emit into (``NULL_PROBE`` by default);
* :mod:`~repro.instrument.timeline` -- interval-binned series (bus
  occupancy, per-bank conflicts, write-buffer depth, per-processor
  busy/memory/sync breakdown), which the probe holds as attributes
  keyed by the hardware they describe;
* :mod:`~repro.instrument.sampling` -- bounded deterministic retention
  of raw events;
* :mod:`~repro.instrument.chrometrace` -- Chrome-trace/Perfetto JSON
  export (open any run in ``ui.perfetto.dev``).

Quick start::

    from repro import KB, SystemConfig, run_simulation
    from repro.instrument import InstrumentationProbe, write_chrome_trace
    from repro.workloads import MP3D

    probe = InstrumentationProbe(bin_width=512)
    config = SystemConfig.paper_parallel(8, 4 * KB)
    result = run_simulation(config, MP3D(n_particles=600, steps=3),
                            instrumentation=probe)
    print(probe.peak_bus_utilization())
    write_chrome_trace(probe, "mp3d.json", config=config)

Or, without writing Python::

    python -m repro profile mp3d --procs 8 --scc 4KB --trace-out mp3d.json
"""

from .chrometrace import (BUS_PID, SCC_TID, bank_tid, chrome_trace,
                          cluster_pid, proc_tid, write_chrome_trace)
from .probes import NULL_PROBE, InstrumentationProbe, NullProbe
from .sampling import EventLog
from .timeline import Timeline

__all__ = [
    "NULL_PROBE", "NullProbe", "InstrumentationProbe",
    "Timeline", "EventLog",
    "chrome_trace", "write_chrome_trace",
    "BUS_PID", "SCC_TID", "bank_tid", "cluster_pid", "proc_tid",
]
