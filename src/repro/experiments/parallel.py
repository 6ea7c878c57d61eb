"""Section 3.1 experiment pipelines: Figures 2-4 and Tables 3-4.

Each function takes the grid ``run_sweep(SweepSpec.parallel(...))`` returns
and produces both the data (for assertions) and a printable report that
mirrors the paper's presentation.  The paper's own numbers are included
as constants so every bench prints paper-vs-measured.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.config import KB
from .report import format_size, render_ascii_chart, render_table
from .runner import PAPER_LADDER, PROCS_SWEPT, Sweep

__all__ = [
    "normalized_execution_times", "speedup_table", "read_miss_rate_table",
    "invalidation_series", "self_relative_speedup",
    "render_figure", "render_speedups", "render_miss_rates",
    "PAPER_TABLE3", "PAPER_TABLE4", "PAPER_MP3D_SPEEDUPS",
    "PAPER_CHOLESKY_SPEEDUPS",
]

#: Table 3 -- Barnes-Hut speedups relative to one processor per cluster.
PAPER_TABLE3: Dict[int, Tuple[float, float, float, float]] = {
    4 * KB: (1.0, 1.9, 3.0, 4.5),
    8 * KB: (1.0, 2.1, 2.9, 4.8),
    16 * KB: (1.0, 2.2, 2.8, 4.6),
    32 * KB: (1.0, 2.8, 3.8, 6.1),
    64 * KB: (1.0, 3.0, 5.3, 7.9),
    128 * KB: (1.0, 3.1, 6.5, 10.3),
    256 * KB: (1.0, 3.2, 6.8, 11.8),
    512 * KB: (1.0, 3.2, 7.7, 12.5),
}

#: Table 4 -- Barnes-Hut read miss rates (percent).
PAPER_TABLE4: Dict[int, Tuple[float, float, float, float]] = {
    8 * KB: (7.96, 7.82, 8.53, 10.33),
    64 * KB: (4.55, 1.45, 0.86, 1.26),
    256 * KB: (4.10, 0.92, 0.17, 0.26),
}

#: Section 3.1.2 -- MP3D 8-procs-per-cluster self-relative speedups.
PAPER_MP3D_SPEEDUPS = {4 * KB: 3.8, 512 * KB: 7.2}

#: Section 3.1.3 -- Cholesky 8-procs-per-cluster self-relative speedups.
PAPER_CHOLESKY_SPEEDUPS = {4 * KB: 3.0, 512 * KB: 3.5}


def normalized_execution_times(
        sweep: Sweep,
        base_config: Tuple[int, int] = (8, 512 * KB)
) -> Dict[int, List[Tuple[int, float]]]:
    """Figure 2/3/4 curves: per processors-per-cluster, the series of
    (paper SCC bytes, execution time normalized to ``base_config``)."""
    base = sweep[base_config].execution_time
    curves: Dict[int, List[Tuple[int, float]]] = {}
    for procs in PROCS_SWEPT:
        curves[procs] = [
            (size, sweep[(procs, size)].execution_time / base)
            for size in PAPER_LADDER if (procs, size) in sweep
        ]
    return curves


def speedup_table(sweep: Sweep) -> Dict[int, Tuple[float, ...]]:
    """Table 3 layout: per SCC size, speedups relative to 1 proc/cluster."""
    table: Dict[int, Tuple[float, ...]] = {}
    for size in PAPER_LADDER:
        if (1, size) not in sweep:
            continue
        base = sweep[(1, size)].execution_time
        table[size] = tuple(
            base / sweep[(procs, size)].execution_time
            for procs in PROCS_SWEPT if (procs, size) in sweep)
    return table


def read_miss_rate_table(
        sweep: Sweep,
        sizes: Sequence[int] = (8 * KB, 64 * KB, 256 * KB)
) -> Dict[int, Tuple[float, ...]]:
    """Table 4 layout: read miss rates (percent) per size x procs."""
    table: Dict[int, Tuple[float, ...]] = {}
    for size in sizes:
        table[size] = tuple(
            100.0 * sweep[(procs, size)].read_miss_rate
            for procs in PROCS_SWEPT if (procs, size) in sweep)
    return table


def invalidation_series(sweep: Sweep,
                        size: int) -> Tuple[int, ...]:
    """Invalidations performed vs processors per cluster, at one size --
    the quantity Sections 3.1.1-3.1.3 observe to be flat."""
    return tuple(sweep[(procs, size)].invalidations
                 for procs in PROCS_SWEPT if (procs, size) in sweep)


def self_relative_speedup(sweep: Sweep, size: int,
                          procs: int = 8) -> float:
    """Speedup of ``procs``/cluster over 1/cluster at one SCC size."""
    return (sweep[(1, size)].execution_time
            / sweep[(procs, size)].execution_time)


# ----------------------------------------------------------------------
# Renderers (what the benches print)
# ----------------------------------------------------------------------

def render_figure(benchmark: str, sweep: Sweep) -> str:
    """Figure 2/3/4: normalized execution time vs SCC size."""
    curves = normalized_execution_times(sweep)
    rows = []
    for size in PAPER_LADDER:
        row: List[object] = [format_size(size)]
        for procs in PROCS_SWEPT:
            value = dict(curves[procs]).get(size)
            row.append(f"{value:.2f}" if value is not None else "-")
        rows.append(row)
    headers = ["SCC size"] + [f"{p} proc/cl" for p in PROCS_SWEPT]
    table = render_table(
        f"{benchmark}: normalized execution time "
        f"(1.0 = 8 procs/cluster @ 512 KB)", headers, rows)
    positions = {size: i for i, size in enumerate(PAPER_LADDER)}
    chart = render_ascii_chart(
        "(log-y; markers = procs/cluster)",
        {str(procs): [(positions[size], value)
                      for size, value in curves[procs]]
         for procs in PROCS_SWEPT},
        [format_size(size).replace(" ", "") for size in PAPER_LADDER])
    return table + "\n\n" + chart


def render_speedups(benchmark: str, sweep: Sweep,
                    paper: Dict[int, Tuple[float, ...]] = None) -> str:
    """Table 3 style speedups, with the paper's values when known."""
    table = speedup_table(sweep)
    rows = []
    for size, values in table.items():
        row: List[object] = [format_size(size)]
        row.extend(f"{value:.1f}" for value in values)
        if paper and size in paper:
            row.append(" / ".join(f"{v:.1f}" for v in paper[size]))
        elif paper:
            row.append("-")
        rows.append(row)
    headers = (["SCC size"] + [f"{p} proc/cl" for p in PROCS_SWEPT]
               + (["paper (1/2/4/8)"] if paper else []))
    return render_table(
        f"{benchmark}: speedups relative to one processor per cluster",
        headers, rows)


def render_miss_rates(benchmark: str, sweep: Sweep,
                      paper: Dict[int, Tuple[float, ...]] = None) -> str:
    """Table 4 style read miss rates."""
    sizes = tuple(paper) if paper else (8 * KB, 64 * KB, 256 * KB)
    table = read_miss_rate_table(sweep, sizes)
    rows = []
    for size, values in table.items():
        row: List[object] = [format_size(size)]
        row.extend(f"{value:.2f}%" for value in values)
        if paper and size in paper:
            row.append(" / ".join(f"{v:.2f}" for v in paper[size]))
        rows.append(row)
    headers = (["SCC size"] + [f"{p} proc/cl" for p in PROCS_SWEPT]
               + (["paper (1/2/4/8)"] if paper else []))
    return render_table(
        f"{benchmark}: read miss rates", headers, rows)
