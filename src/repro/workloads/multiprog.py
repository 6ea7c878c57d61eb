"""Round-robin multiprogramming scheduler (Section 2.3.2).

The paper's multiprogramming simulation runs the eight annotated SPEC92
benchmarks as separate processes, scheduled round-robin onto the
processors of a single cluster with a 5-million-cycle quantum.  This
module is that scheduler: the run queue is a shared FIFO; each processor
pops a process, executes one quantum of its reference stream, pays a
context-switch cost, and requeues it until every process has executed its
instruction budget.

The interesting memory behaviour is all emergent: context switches
destroy instruction-cache state, and co-scheduled processes interfere in
the shared SCC -- the degradation the paper isolates in Figures 5 and 6.

The quantum is measured in *instructions* rather than cycles (a pixie
stream knows instruction counts, not stall cycles); the paper's 5M-cycle
quantum on a CPI~1.5 machine corresponds to roughly 3.3M instructions,
which the reproduction scales together with the working sets.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from ..core.config import SystemConfig
from ..trace.events import Compute, TaskDequeue, TaskEnqueue
from .base import TracedApplication
from .spec import SpecApp, spec92_workload

__all__ = ["MultiprogrammingWorkload"]

_RUN_QUEUE = 7
_CONTEXT_SWITCH_CYCLES = 400
_IDLE_SPIN_CYCLES = 200


class MultiprogrammingWorkload(TracedApplication):
    """Eight SPEC92-like processes, round-robin on one cluster.

    ``instructions_per_app`` is each process's total budget;
    ``quantum_instructions`` the scheduler quantum; ``scale`` shrinks the
    applications' working sets by the ladder scale factor (DESIGN.md).
    Any machine configuration works, but the paper preset is a single
    cluster (:meth:`repro.core.SystemConfig.paper_multiprogramming`).
    """

    name = "multiprogramming"

    def __init__(self, instructions_per_app: int = 150_000,
                 quantum_instructions: int = 50_000,
                 scale: int = 8, seed: int = 1234,
                 apps: Optional[Sequence[SpecApp]] = None):
        if instructions_per_app < 1:
            raise ValueError("instructions_per_app must be positive")
        if quantum_instructions < 1:
            raise ValueError("quantum_instructions must be positive")
        self.instructions_per_app = instructions_per_app
        self.quantum_instructions = quantum_instructions
        self.scale = scale
        self.seed = seed
        self._apps = apps

    def __repr__(self) -> str:
        return (f"MultiprogrammingWorkload("
                f"instructions_per_app={self.instructions_per_app}, "
                f"quantum_instructions={self.quantum_instructions}, "
                f"scale={self.scale}, seed={self.seed})")

    def trace_signature(self, config: SystemConfig):
        if self._apps is not None:
            # Caller-supplied application objects are not reconstructable
            # from the repr; refuse to key the trace cache on them.
            return None
        return super().trace_signature(config)

    def build_apps(self) -> List[SpecApp]:
        """Fresh application instances for one run."""
        if self._apps is not None:
            return list(self._apps)
        return spec92_workload(scale=self.scale, seed=self.seed)

    def processes(self, config: SystemConfig) -> Dict[int, Generator]:
        run = _SchedulerRun(self, config)
        return {proc: run.process(proc)
                for proc in range(config.total_processors)}


class _SchedulerRun:
    """Shared scheduler state for one simulation."""

    def __init__(self, workload: MultiprogrammingWorkload,
                 config: SystemConfig):
        self.workload = workload
        self.config = config
        self.apps = workload.build_apps()
        self.remaining = {app.app_id: workload.instructions_per_app
                          for app in self.apps}
        self.unfinished = len(self.apps)

    def process(self, proc: int) -> Generator:
        """One processor's scheduler loop."""
        workload = self.workload
        if proc == 0:
            for app in self.apps:
                yield TaskEnqueue(_RUN_QUEUE, app.app_id)
        while self.unfinished > 0:
            app_id = yield TaskDequeue(_RUN_QUEUE)
            if app_id is None:
                # Fewer runnable processes than processors: idle.
                yield Compute(_IDLE_SPIN_CYCLES)
                continue
            app = self.apps[app_id]
            yield Compute(_CONTEXT_SWITCH_CYCLES)
            quantum = min(workload.quantum_instructions,
                          self.remaining[app_id])
            # The whole quantum as one packed chunk.  Chunk-safe: the
            # stream generator's state is private to the application and
            # the run queue hands an application to exactly one processor
            # at a time, so nothing observes that the RNG draws happen at
            # the chunk boundary rather than event-by-event.  The
            # scheduler loop itself (dequeue, branch on the response,
            # requeue) yields event objects because it is timing-dependent.
            yield app.burst_chunk(quantum)
            self.remaining[app_id] -= quantum
            if self.remaining[app_id] > 0:
                yield TaskEnqueue(_RUN_QUEUE, app_id)
            else:
                self.unfinished -= 1
