"""Application framework for instrumented workloads.

A workload is anything that can hand the simulation driver one trace-event
generator per processor (:class:`TracedApplication`).  The SPLASH
reimplementations in this package run their *real* algorithms inside those
generators -- the octree is actually built, the particles actually move,
the matrix is actually factored -- and every shared-data touch is emitted,
in packed words (:class:`~repro.trace.packed.PackedChunk`), at the address
the data would occupy in the simulated shared heap.  That is the property
that makes the reproduced cache behaviour (prefetching, invalidations,
interference) come from the applications rather than from hand-tuned
statistics.  Event objects stay valid beside the chunks: the workloads
yield their barriers and task-queue operations that way, and a user
workload may yield only objects (the chunk contract is in
:mod:`repro.trace.packed`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Generator, Optional

from ..core.config import SystemConfig

__all__ = ["TracedApplication"]


class TracedApplication(ABC):
    """Base class for workloads the simulation driver can run.

    Subclasses implement :meth:`processes`, returning one generator per
    machine-global processor id.  Implementations must be deterministic
    given their constructor arguments (seeded RNGs only) so experiments
    are reproducible; the *interleaving* still varies with the machine
    configuration through timing feedback.
    """

    name: str = "application"

    deterministic_stream: bool = False
    """Capability flag: ``True`` asserts the per-process event *content*
    (not its interleaving) is independent of the machine configuration, so
    a stream recorded on one configuration replays exactly on any other.
    The SPLASH kernels here race on locks and task queues, which feeds
    timing back into the data each process touches, so none of them can
    claim it for the general case; see :meth:`stream_is_deterministic`."""

    @abstractmethod
    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        """Map each processor id to its trace-event generator."""

    def stream_is_deterministic(self, config: SystemConfig) -> bool:
        """Whether a recording made on ``config`` replays bit-identically
        on any configuration with the same processor layout.

        A single-processor machine has no interleaving at all, so every
        (deterministic-by-construction) workload qualifies; beyond that a
        workload must opt in via :attr:`deterministic_stream`.
        """
        return self.deterministic_stream or config.total_processors == 1

    def trace_signature(self, config: SystemConfig) -> Optional[str]:
        """Key identifying the recorded stream for the trace cache, or
        ``None`` when the workload cannot be keyed (e.g. it was built
        around un-reconstructable objects).  Two configurations with equal
        signatures replay each other's recordings -- so the signature must
        cover the workload identity and every parameter that feeds event
        content, plus the processor layout.
        """
        if type(self).__repr__ is TracedApplication.__repr__:
            # The parameterless default repr cannot distinguish two
            # instances of the same workload; refuse to key the cache.
            return None
        return (f"{type(self).__name__}|{self!r}|c{config.clusters}"
                f"|p{config.processors_per_cluster}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

