"""Reproduction harness: one pipeline per table and figure of the paper
(see DESIGN.md's per-experiment index)."""

from .._lazy import lazy_exports

__all__ = [
    "degradation_factor", "figure5_curves", "figure6_speedups",
    "render_figure5", "render_figure6", "smallest_to_largest_improvement",
    "PAPER_CHOLESKY_SPEEDUPS", "PAPER_MP3D_SPEEDUPS", "PAPER_TABLE3",
    "PAPER_TABLE4", "invalidation_series", "normalized_execution_times",
    "read_miss_rate_table", "render_figure", "render_miss_rates",
    "render_speedups", "self_relative_speedup", "speedup_table",
    "format_size", "render_ascii_chart", "render_table",
    "render_svg_chart", "save_svg_chart",
    "CACHE_VERSION", "PAPER_LADDER", "PROCS_SWEPT", "PROFILES",
    "ExperimentProfile", "ResultCache", "RunStats", "active_profile",
    "default_cache",
    "KNOWN_BENCHMARKS", "SweepSpec", "point_cache_key",
    "QuarantinedPointError", "SessionJournal", "SessionResult",
    "SweepSession", "default_session_dir", "grid_sweep",
    "prune_stale_journals", "run_sweep",
    "PAPER_TABLE6", "PAPER_TABLE7", "render_section4_costs",
    "render_table5", "render_table6", "render_table7",
    "surfaces_from_sweeps",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".multiprog": ("degradation_factor", "figure5_curves", "figure6_speedups",
                   "render_figure5", "render_figure6",
                   "smallest_to_largest_improvement"),
    ".parallel": ("PAPER_CHOLESKY_SPEEDUPS", "PAPER_MP3D_SPEEDUPS",
                  "PAPER_TABLE3", "PAPER_TABLE4", "invalidation_series",
                  "normalized_execution_times", "read_miss_rate_table",
                  "render_figure", "render_miss_rates", "render_speedups",
                  "self_relative_speedup", "speedup_table"),
    ".report": ("format_size", "render_ascii_chart", "render_table"),
    ".runner": ("CACHE_VERSION", "PAPER_LADDER", "PROCS_SWEPT", "PROFILES",
                "ExperimentProfile", "ResultCache", "RunStats",
                "active_profile", "default_cache"),
    ".session": ("QuarantinedPointError", "SessionJournal", "SessionResult",
                 "SweepSession", "default_session_dir", "grid_sweep",
                 "prune_stale_journals", "run_sweep"),
    ".spec": ("KNOWN_BENCHMARKS", "SweepSpec", "point_cache_key"),
    ".svgfig": ("render_svg_chart", "save_svg_chart"),
    ".tables": ("PAPER_TABLE6", "PAPER_TABLE7", "render_section4_costs",
                "render_table5", "render_table6", "render_table7",
                "surfaces_from_sweeps"),
})
