"""Analytical surrogate: miss ratios and cycle estimates, no simulator.

One recorded packed tape per (workload, processors-per-cluster) row is
profiled once (:mod:`repro.model.profile`) and then prices *every*
(cache size, associativity) grid point of that row analytically
(:mod:`repro.model.predictor`) -- reuse-distance histograms with a
binomial set-mapping correction, an exact inclusion-chained coherence
tag ladder for the one-way sizes the sweep tracks, and an
interleaved-reuse correction for cross-cluster sharing, composed with
the :mod:`repro.cost` latency model into an execution-time estimate.

Sweeps opt in with ``SweepSpec(fidelity="analytical")`` (or ``python -m
repro sweep --fidelity analytical``); ``python -m repro model
--validate`` cross-checks the surrogate against the simulator
(:mod:`repro.model.validate`).
"""

from .._lazy import lazy_exports

__all__ = [
    "MODEL_VERSION", "RowProfile", "ProfileCache", "build_row_profile",
    "extract_process", "merge_refs", "coherence_ladder", "bucket_floor",
    "predict_point", "DEFAULT_ROWS", "cross_validate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".predictor": ("predict_point",),
    ".profile": ("MODEL_VERSION", "ProfileCache", "RowProfile",
                 "build_row_profile", "bucket_floor", "coherence_ladder",
                 "extract_process", "merge_refs"),
    ".validate": ("DEFAULT_ROWS", "cross_validate"),
})
