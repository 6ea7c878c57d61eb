"""The harness checked on its ``--smoke`` mode (tiny kernels, seconds).

Not collected by the repo's tier-1 run (``testpaths = ["tests"]``); run it
as ``python3 -m pytest bench/test_harness.py -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
sys.path.insert(0, str(ROOT_DIR))
sys.path.insert(0, str(ROOT_DIR / "src"))

from bench import compare, layers, spans  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / script), *args],
                          cwd=ROOT_DIR, capture_output=True, text=True,
                          timeout=300)


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_every_workload_with_its_reason():
    assert ([(entry["name"], entry["why"])
             for entry in CONTRACT["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()])
    assert all(len(entry["why"]) <= 200 for entry in CONTRACT["workloads"])
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_run_reports_every_end_to_end_metric(workload):
    result = last_json(run_script("run.py", "--workload", workload,
                                  "--smoke", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["end_to_end"]}
    for declared in CONTRACT["end_to_end"]:
        metric = result["metrics"][declared["name"]]
        assert metric["unit"] == declared["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_run_reports_every_layer_and_a_sound_tree(
        workload, tmp_path):
    dump = tmp_path / "spans.json"
    result = last_json(run_script("run.py", "--workload", workload,
                                  "--smoke", "--trace", "1",
                                  "--spans-out", str(dump)))
    assert result["correct"] is True      # includes: no span problems
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["per_layer"]}
    for declared in CONTRACT["per_layer"]:
        assert result["metrics"][declared["name"]]["unit"] \
            == declared["unit"]

    recorded = json.loads(dump.read_text())
    roots = [span for span in recorded
             if span["name"] == layers.ROOT and span["parent"] is None]
    assert len(roots) == WORKLOADS[workload].smoke_passes
    root_thread = {span["thread"] for span in roots}
    assert len(root_thread) == 1
    children = {}
    for number, span in enumerate(recorded):
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            # Only roots are parentless on the thread that runs passes.
            assert (span["name"] == layers.ROOT
                    or span["thread"] not in root_thread)
            continue
        parent = recorded[span["parent"]]
        assert parent["thread"] == span["thread"]
        assert parent["start"] <= span["start"]
        assert span["end"] <= parent["end"]
        children.setdefault(span["parent"], []).append(span)
    for number, span in enumerate(recorded):
        inside = sum(child["end"] - child["start"]
                     for child in children.get(number, []))
        assert span["end"] - span["start"] - inside >= -1e-9


def test_spans_are_off_in_untraced_runs():
    report = last_json(run_script("child.py", "--workload", "fig2_cold",
                                  "--smoke", "--traced", "0"))
    assert "layers" not in report and "span_count" not in report
    import repro.experiments.session as session
    assert not hasattr(session.SweepSession.run, "__wrapped__")


def test_recorder_restores_every_seam():
    recorder = spans.Recorder()
    before = [getattr(spans._resolve(owner), attribute)
              for owner, attribute, _, _ in spans.SEAMS]
    recorder.install()
    try:
        assert all(getattr(spans._resolve(owner), attribute) is not original
                   for (owner, attribute, _, _), original
                   in zip(spans.SEAMS, before))
    finally:
        recorder.uninstall()
    assert [getattr(spans._resolve(owner), attribute)
            for owner, attribute, _, _ in spans.SEAMS] == before


def test_self_times_add_up_to_the_root():
    recorder = spans.Recorder()
    with recorder.span(layers.ROOT):
        inner = recorder.wrap("experiments.session", lambda: sum(range(10)))
        inner()
        inner()
    own = spans.self_times(recorder.spans)
    root = recorder.spans[-1]
    assert sum(own.values()) == pytest.approx(root.duration)
    assert not spans.tree_problems(recorder.spans, layers.ROOT)
    metrics = layers.layer_metrics(recorder.spans)
    assert 0 <= metrics["harness.unattributed_ratio"] <= 1


def _report(walls):
    return {"comparable": True, "runs": [
        {"workload": "fig2_cold", "trace": 0,
         "result": {"attempted": 4, "failed": 0, "metrics": {
             "wall_s": {"value": wall, "unit": "s"}}}}
        for wall in walls]}


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    bound = next(m["bound"] for m in CONTRACT["end_to_end"]
                 if m["name"] == "wall_s")

    def verdict_of(change):
        rows = compare.compare(_report(base), _report(change), CONTRACT)
        return next(row["verdict"] for row in rows
                    if row["metric"] == "wall_s")

    assert verdict_of(base) == "same"
    assert verdict_of([wall * 0.5 for wall in base]) == "better"
    assert verdict_of([wall * (1 + 2 * bound) for wall in base]) == "worse"
    noisy = [1.0, 1.0 + 3 * bound, 1.0, 1.0 + 3 * bound, 1.0 + 3 * bound]
    assert verdict_of(noisy) == "unresolved"


def test_smoke_output_is_marked_non_comparable(tmp_path):
    out = tmp_path / "smoke.json"
    done = run_script("run.py", "--smoke", "--repeats", "1",
                      "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(out.read_text())
    assert report["comparable"] is False
    assert {run["workload"] for run in report["runs"]} == set(WORKLOADS)
    assert report["environment"]["nproc"] >= 1
    assert compare.main([str(out), str(out)]) == 2
