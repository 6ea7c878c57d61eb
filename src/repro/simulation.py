"""One-call simulation driver: a workload on a machine configuration.

This is the top of the public API.  Anything with a
``processes(config) -> mapping of processor id to event generator`` method
(see :class:`repro.workloads.base.TracedApplication`) can be simulated on
any :class:`repro.core.SystemConfig`:

>>> from repro import SystemConfig, run_simulation
>>> from repro.workloads import BarnesHut
>>> config = SystemConfig.paper_parallel(processors_per_cluster=2,
...                                      scc_size=8 * 1024)
>>> result = run_simulation(config, BarnesHut(n_bodies=64, steps=1))
>>> result.stats.execution_time > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core.config import SystemConfig
from .core.stats import SystemStats
from .core.system import MultiprocessorSystem
from .trace.interleave import TimingInterleaver

__all__ = ["SimulationResult", "build_system", "run_simulation"]


def build_system(config: SystemConfig, instrumentation=None):
    """The memory system for a configuration's cluster organization.

    ``instrumentation`` (an
    :class:`~repro.instrument.InstrumentationProbe` or ``None``) is
    threaded into every contended component so probed runs see bank,
    bus, and processor events as they happen.
    """
    if config.cluster_organization == "private":
        from .core.private import PrivateClusterSystem
        return PrivateClusterSystem(config, instrumentation=instrumentation)
    return MultiprocessorSystem(config, instrumentation=instrumentation)


@dataclass(frozen=True)
class SimulationResult:
    """Everything a finished simulation reports."""

    config: SystemConfig
    stats: SystemStats
    events_processed: int
    """Trace events consumed by the interleaver."""

    instrumentation: Optional[object] = None
    """The :class:`~repro.instrument.InstrumentationProbe` the run was
    started with (``None`` for uninstrumented runs); it holds the
    counters and binned timelines, and its ``summary()`` the flat
    digest."""

    @property
    def execution_time(self) -> int:
        """Simulated cycles until the last process finished."""
        return self.stats.execution_time

    def summary(self) -> str:
        """Multi-line human-readable digest of the run (what ``python -m
        repro simulate`` prints under its benchmark line).  The
        configuration line names the inter-cluster transport and the
        protocol only where they are not the paper's snoopy MSI bus."""
        stats = self.stats
        total = stats.total_scc
        config = self.config
        machine = [config.cluster_organization]
        if (config.inter_cluster, config.protocol) != ("snoopy-bus", "msi"):
            machine += [config.inter_cluster, config.protocol]
        return "\n".join([
            f"configuration      : {config.clusters} clusters x "
            f"{config.processors_per_cluster} procs, "
            f"{config.scc_size} B SCC, {', '.join(machine)}",
            f"execution time     : {stats.execution_time:,} cycles",
            f"data references    : {total.accesses:,}",
            f"read miss rate     : {100 * total.read_miss_rate:.2f} %",
            f"invalidations      : {stats.total_invalidations:,}",
            f"trace events       : {self.events_processed:,}",
        ])


def run_simulation(config: SystemConfig, application,
                   max_cycles: Optional[int] = None,
                   check_invariants: bool = True,
                   instrumentation=None,
                   backend: Optional[str] = None) -> SimulationResult:
    """Simulate ``application`` on the machine described by ``config``.

    ``application.processes(config)`` must return a mapping from
    machine-global processor id to a trace-event generator; ids must be
    valid for the configuration.  ``max_cycles`` aborts runaway simulations
    (simulated time bound).  ``check_invariants`` verifies fill tracking
    and coherence exclusivity after the run: a few array comparisons per
    pair of SCCs when they are direct-mapped (none with one cluster), a
    walk over every resident line when they are set-associative.

    ``instrumentation`` enables cycle-level observability: pass an
    :class:`~repro.instrument.InstrumentationProbe` and every bus grant,
    bank conflict, write-buffer event, and processor stall lands in its
    timelines; the same object is finalized with the run's horizon and
    returned on the result.  The default ``None`` costs the hot paths
    one pointer comparison per event.

    ``backend`` picks the packed-replay engine (``auto``/``python``/
    ``native``; see :mod:`repro.trace.engine`).  It is an
    execution knob, not part of the machine: every backend produces
    identical statistics, so results and caches never depend on it.
    ``None`` defers to ``$REPRO_ENGINE``.  A probed run is the reference
    loop's whatever it says.
    """
    system = build_system(config, instrumentation=instrumentation)
    interleaver = TimingInterleaver(system, backend=backend)
    process_map = application.processes(config)
    for proc_id, generator in process_map.items():
        interleaver.add_process(proc_id, generator)
    execution_time = interleaver.run(max_cycles=max_cycles)
    if check_invariants:
        system.check_invariants()
    if instrumentation is not None:
        instrumentation.finalize(execution_time)
    return SimulationResult(config=config,
                            stats=system.stats(execution_time),
                            events_processed=interleaver.events_processed,
                            instrumentation=instrumentation)
