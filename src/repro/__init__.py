"""Reproduction of Nayfeh & Olukotun, "Exploring the Design Space for a
Shared-Cache Multiprocessor" (ISCA 1994).

The package is organised exactly as the paper is:

* :mod:`repro.core` -- the cluster-based shared-cache multiprocessor
  simulator (Sections 2.1-2.2): banked multi-ported Shared Cluster Caches,
  snoopy write-invalidate coherence, bank/bus contention.
* :mod:`repro.trace` -- the Tango-Lite-equivalent event vocabulary and
  timing-feedback interleaver.
* :mod:`repro.workloads` -- instrumented reimplementations of the SPLASH
  applications (Barnes-Hut, MP3D, Cholesky) and the SPEC92-style
  multiprogramming workload (Sections 2.2-2.3).
* :mod:`repro.cost` -- the Section 4/5 implementation cost models
  (SRAM/ICN area, floorplans, FO4 timing, load-latency sensitivity).
* :mod:`repro.experiments` -- sweep harness reproducing every table and
  figure (Tables 3-7, Figures 2-6).

Quick start::

    from repro import KB, SystemConfig, run_simulation
    from repro.workloads import BarnesHut

    config = SystemConfig.paper_parallel(processors_per_cluster=2,
                                         scc_size=8 * KB)
    result = run_simulation(config, BarnesHut(n_bodies=128, steps=2))
    print(result.execution_time, result.stats.read_miss_rate)
"""

from .core.config import KB, SystemConfig
from .core.stats import ProcessorStats, SccStats, SystemStats
from .core.system import MultiprocessorSystem
from .instrument import InstrumentationProbe, write_chrome_trace
from .simulation import SimulationResult, build_system, run_simulation

__version__ = "1.6.0"

__all__ = [
    "KB",
    "SystemConfig",
    "ProcessorStats",
    "SccStats",
    "SystemStats",
    "MultiprocessorSystem",
    "InstrumentationProbe",
    "write_chrome_trace",
    "SimulationResult",
    "build_system",
    "run_simulation",
    "__version__",
]
