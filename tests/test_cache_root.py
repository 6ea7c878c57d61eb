"""One variable moves every artifact a run leaves on disk.

``REPRO_CACHE_DIR`` is the only location a run reads from the
environment: results, tapes, row profiles, journals and repros all land
under it, and nothing lands in the working directory -- so a temporary
root makes a run cold, and ``serve`` reads the tapes local sweeps
recorded.
"""

from repro.cli import main
from repro.core.config import KB
from repro.experiments.runner import (PROFILES, ExperimentProfile,
                                      process_workload)
from repro.experiments.session import run_sweep
from repro.experiments.spec import SweepSpec
from repro.fabric.store import ArtifactStore
from repro.verify import PathResult, TapeDivergence, generate_tape, \
    write_repro

TINY = ExperimentProfile(
    name="tiny", ladder_scale=8,
    barnes_bodies=24, barnes_steps=1,
    mp3d_particles=40, mp3d_steps=1,
    cholesky_n=48,
    multiprog_instructions=1500, multiprog_quantum=500)


def test_one_variable_isolates_a_run(tmp_path, monkeypatch, capsys):
    root, cwd = tmp_path / "a", tmp_path / "b"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.setitem(PROFILES, "tiny", TINY)
    monkeypatch.setenv("REPRO_PROFILE", "tiny")

    fused = SweepSpec.multiprogramming(profile=TINY, procs=(1,),
                                       ladder=(4 * KB, 8 * KB))
    run_sweep(fused)
    run_sweep(SweepSpec.parallel("mp3d", profile=TINY, procs=(1,),
                                 ladder=(4 * KB, 8 * KB),
                                 fidelity="analytical"))
    assert main(["sweep", "multiprogramming", "--procs", "1",
                 "--ladder", "4KB,8KB"]) == 0
    tape = generate_tape("root:0")
    repro = write_repro(tape, TapeDivergence(
        tape=tape, kind="native", base=PathResult(name="generic"),
        other=PathResult(name="native"), detail=[]))
    capsys.readouterr()

    assert list(cwd.iterdir()) == []
    assert repro.parent == root / "repros"
    assert any(root.glob("*.json"))
    for layer in ("traces", "traces/profiles", "sessions"):
        assert any((root / layer).iterdir()), layer
    config = fused.configs()[(1, 4 * KB)]
    signature = process_workload(fused.benchmark,
                                 TINY).trace_signature(config)
    assert ArtifactStore.default().traces.get(signature) is not None
