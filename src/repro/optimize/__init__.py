"""Design-space search over the shared-cache cluster parameters.

The paper explores a two-axis grid (processors per cluster, SCC size)
and hand-picks its Section 5 recommendations from the resulting
tables.  This package closes the loop: a seeded Pareto-frontier search
over those axes *plus* the machine knobs the simulator exposes beyond
them (associativity, banking, coherence protocol, write-buffer depth),
priced through a three-tier fidelity funnel that shares the result
cache with every ordinary sweep.

Entry points: build a :class:`DesignSpace` and a
:class:`FunnelEvaluator`, then call :func:`optimize` -- or run
``python -m repro optimize`` for the packaged CLI.
"""

from .._lazy import lazy_exports

__all__ = [
    "BudgetExhausted", "BudgetLedger", "DEFAULT_TIER_BUDGETS",
    "Evaluation", "FunnelEvaluator",
    "render_frontier",
    "FrontierPoint", "OptimizeResult", "PaperVerdict",
    "optimize", "pareto_front",
    "PAPER_RECOMMENDATIONS", "Candidate", "DesignSpace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".evaluate": ("BudgetExhausted", "BudgetLedger", "DEFAULT_TIER_BUDGETS",
                  "Evaluation", "FunnelEvaluator"),
    ".report": ("render_frontier",),
    ".search": ("FrontierPoint", "OptimizeResult", "PaperVerdict", "optimize",
                "pareto_front"),
    ".space": ("PAPER_RECOMMENDATIONS", "Candidate", "DesignSpace"),
})
