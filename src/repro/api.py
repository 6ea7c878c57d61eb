"""The blessed public surface of the reproduction.

``import repro.api as repro`` and stay within ``__all__`` below: these
names are the stable contract -- everything else in the package is
internal and may move between minor versions.  The surface is small on
purpose:

* describe an experiment: :class:`SweepSpec` (one validated value
  object covering the paper's parallel and multiprogramming sweeps),
  sized by an :class:`ExperimentProfile` from :data:`PROFILES`;
* run it locally: :func:`grid_sweep` (also spelled :func:`run_sweep`;
  or :class:`SweepSession` to drive journaling/resume/progress
  yourself);
* run it on the fabric: :class:`SweepClient` against
  ``python -m repro serve`` (or an in-process :class:`LocalFabric`) --
  ``client.result(client.submit(spec))`` equals ``grid_sweep(spec)``
  point for point, served from the same content-addressed store;
* search the design space: :func:`optimize` a :class:`DesignSpace`
  through a :class:`FunnelEvaluator` (locally or through a
  :class:`SweepClient`) for the cost/performance Pareto frontier;
* or drop to a single simulation: :func:`run_simulation` on a
  :class:`SystemConfig`.

Example::

    from repro.api import PROFILES, SweepClient, SweepSpec, grid_sweep

    spec = SweepSpec.parallel("mp3d", profile=PROFILES["quick"])
    local = grid_sweep(spec)                         # in this process
    client = SweepClient.connect("http://127.0.0.1:8765")
    remote = client.result(client.submit(spec))      # on the fabric
    assert {p: s.as_dict() for p, s in local.items()} == \
           {p: s.as_dict() for p, s in remote.items()}
"""

from __future__ import annotations

from .core.config import KB, SystemConfig
from .experiments.runner import (PROFILES, ExperimentProfile, ResultCache,
                                 RunStats, active_profile)
from .experiments.session import (QuarantinedPointError, SweepSession,
                                  grid_sweep, run_sweep)
from .experiments.spec import SweepSpec
from .fabric.client import (JobHandle, LocalFabric, SweepClient)
from .fabric.store import ArtifactStore
from .fabric.wire import FabricError
from .optimize import (BudgetLedger, Candidate, DesignSpace,
                       FunnelEvaluator, OptimizeResult, optimize,
                       render_frontier)
from .simulation import SimulationResult, run_simulation

__all__ = [
    # describe
    "ExperimentProfile", "PROFILES", "SweepSpec", "active_profile",
    # run locally
    "QuarantinedPointError", "ResultCache", "RunStats", "SweepSession",
    "grid_sweep", "run_sweep",
    # run on the fabric
    "ArtifactStore", "FabricError", "JobHandle", "LocalFabric",
    "SweepClient",
    # search the design space
    "BudgetLedger", "Candidate", "DesignSpace", "FunnelEvaluator",
    "OptimizeResult", "optimize", "render_frontier",
    # single simulations
    "KB", "SimulationResult", "SystemConfig", "run_simulation",
]
