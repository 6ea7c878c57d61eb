"""End-to-end cross-validation of the surrogate on a reduced grid.

The CI ``model-validate`` job runs the full quick-profile grid through
``python -m repro model --validate``; this test keeps a fast in-process
version of the same contract in the tier-1 suite.
"""

import pytest

from repro.core.config import KB
from repro.experiments.runner import ResultCache
from repro.model.validate import DEFAULT_ROWS, cross_validate
from repro.trace.record import TraceCache


def test_default_rows_cover_every_workload_and_the_procs_sweep():
    benchmarks = {benchmark for benchmark, _ in DEFAULT_ROWS}
    assert benchmarks == {"multiprogramming", "barnes-hut", "mp3d",
                          "cholesky"}
    multiprog_procs = {procs for benchmark, procs in DEFAULT_ROWS
                       if benchmark == "multiprogramming"}
    assert multiprog_procs == {1, 2, 4, 8}


def test_reduced_grid_meets_the_acceptance_bound(tmp_path,
                                                 tiny_profile):
    report = cross_validate(
        profile=tiny_profile,
        rows=(("multiprogramming", 1), ("multiprogramming", 2)),
        ladder=(2 * KB, 4 * KB, 8 * KB),
        cache=ResultCache(tmp_path / "results"),
        trace_cache=TraceCache(tmp_path / "traces"),
        session_dir=tmp_path / "sessions")

    assert {row["benchmark"] for row in report["rows"]} == {
        "multiprogramming"}
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert len(row["points"]) == 3
        for point in row["points"]:
            assert 0.0 <= point["predicted_miss_rate"] <= 1.0
            assert point["error"] == pytest.approx(
                abs(point["predicted_miss_rate"]
                    - point["true_miss_rate"]))
    # Uniprocessor rows are exact by construction.
    uni = next(row for row in report["rows"] if row["procs"] == 1)
    assert uni["mae"] == pytest.approx(0.0, abs=1e-9)
    # The ISSUE acceptance bound, on the reduced grid.
    assert report["mae"] <= 0.05
    assert report["max_error"] == pytest.approx(
        max(row["max_error"] for row in report["rows"]))
