"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_kb(self):
        assert parse_size("8KB") == 8192
        assert parse_size("8kb") == 8192
        assert parse_size(" 4 KB ") == 4096

    def test_bytes(self):
        assert parse_size("512B") == 512
        assert parse_size("4096") == 4096
        assert parse_size("512b") == 512

    def test_mb(self):
        assert parse_size("1MB") == 1024 * 1024
        assert parse_size("2mb") == 2 * 1024 * 1024
        assert parse_size("1Mb") == 1024 * 1024

    def test_mixed_case_kb(self):
        assert parse_size("8Kb") == 8192
        assert parse_size("8kB") == 8192

    def test_rejects_garbage(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_size("lots")

    def test_error_message_lists_accepted_forms(self):
        with pytest.raises(argparse.ArgumentTypeError) as err:
            parse_size("8GB")
        message = str(err.value)
        for form in ("4096", "512B", "8KB", "1MB"):
            assert form in message


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "barnes-hut" in out
        assert "table6" in out

    def test_simulate(self, capsys):
        code = main(["simulate", "mp3d", "--procs", "1",
                     "--scc", "1KB", "--clusters", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "read miss rate" in out

    def test_simulate_private_organization(self, capsys):
        code = main(["simulate", "mp3d", "--procs", "2", "--scc", "2KB",
                     "--organization", "private"])
        assert code == 0
        assert "private" in capsys.readouterr().out

    def test_report_table5(self, capsys):
        assert main(["report", "table5"]) == 0
        assert "1.06" in capsys.readouterr().out

    def test_report_costs(self, capsys):
        assert main(["report", "costs"]) == 0
        assert "204" in capsys.readouterr().out

    def test_profile(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code = main(["profile", "mp3d", "--procs", "2", "--scc", "2KB",
                     "--trace-out", str(trace), "--timeline-bins", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "trace written" in out
        import json
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_profile_without_trace_out(self, capsys):
        assert main(["profile", "mp3d", "--procs", "1",
                     "--scc", "2KB"]) == 0
        out = capsys.readouterr().out
        assert "bus utilization" in out
        assert "trace written" not in out

    def test_profile_runs_the_reference_loop_whatever_the_request(
            self, capsys, monkeypatch, engines_used):
        """Without ``--trace-out`` the probe keeps no event log, and the
        run is still the reference loop's: any probe keeps it there."""
        out = {}
        for engine in ("python", "native"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            assert main(["profile", "mp3d", "--procs", "8",
                         "--scc", "4KB"]) == 0
            out[engine] = capsys.readouterr().out
        assert engines_used == ["python", "python"]
        assert out["native"] == out["python"]
        assert "bank conflicts" in out["native"]

    def test_profile_trace_out_keeps_the_reference_loop(
            self, capsys, monkeypatch, tmp_path, engines_used):
        """The Chrome trace needs the event log, which the per-event
        loop fills; the file does not depend on the engine that was
        asked for."""
        for engine in ("python", "native"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            assert main(["profile", "mp3d", "--procs", "2", "--scc", "2KB",
                         "--trace-out", str(tmp_path / engine)]) == 0
            assert "trace written" in capsys.readouterr().out
        assert engines_used == ["python", "python"]
        assert ((tmp_path / "native").read_bytes()
                == (tmp_path / "python").read_bytes())

    def test_fuzz_clean_campaign(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fuzz", "--seed", "0", "--budget", "15"]) == 0
        out = capsys.readouterr().out
        assert "15 clean" in out
        assert "0 diverged" in out

    def test_fuzz_divergence_exit_code(self, capsys, tmp_path,
                                       monkeypatch, off_by_one_read_miss):
        # (a mutant build of the native engine; skips without a compiler)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fuzz", "--seed", "0", "--budget", "5",
                     "--no-shrink"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out or "diverged" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "linpack"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "mp3d", "--backend", "native"],
        ["sweep", "mp3d", "--no-fused"],
        ["submit", "mp3d", "--backend", "python"],
        ["submit", "mp3d", "--no-fused"],
        ["optimize", "--backend", "native"],
    ], ids=" ".join)
    def test_no_request_chooses_the_engine(self, argv, capsys):
        """``$REPRO_ENGINE`` and the loader pick the engine per process,
        and the ladder runs wherever it applies: the flags that chose
        them per request are gone (argparse's usage error, exit 2)."""
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, error", [
        (["profile", "mp3d", "--bin-width", "0"],
         "argument --bin-width: must be >= 1, got 0"),
        (["profile", "mp3d", "--max-events", "1", "--trace-out", "x.json"],
         "argument --max-events: must be >= 2, got 1"),
        (["profile", "mp3d", "--timeline-bins", "0"],
         "argument --timeline-bins: must be >= 1, got 0"),
        (["simulate", "mp3d", "--scc", "3KB"],
         "scc_size must be a power of two"),
    ], ids=["bin-width", "max-events", "timeline-bins", "scc"])
    def test_a_bad_argument_is_a_usage_error(self, argv, error, capsys,
                                             tmp_path, monkeypatch):
        """Refused before anything runs: argparse's one error line
        (exit 2), no traceback, and no file written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"repro {argv[0]}: error: {error}"
        assert list(tmp_path.iterdir()) == []


class TestSweepAndReportPaths:
    @pytest.fixture
    def tiny_profile(self, monkeypatch, tmp_path):
        """Register a minuscule profile and point the cache at tmp."""
        from repro.experiments.runner import PROFILES, ExperimentProfile
        profile = ExperimentProfile(
            name="tiny", ladder_scale=8,
            barnes_bodies=24, barnes_steps=1,
            mp3d_particles=40, mp3d_steps=1,
            cholesky_n=48,
            multiprog_instructions=1500, multiprog_quantum=500)
        monkeypatch.setitem(PROFILES, "tiny", profile)
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return profile

    def test_sweep_parallel(self, capsys, tiny_profile):
        assert main(["sweep", "mp3d"]) == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out
        assert "speedups" in out

    def test_sweep_jobs_flag(self, capsys, tiny_profile):
        assert main(["sweep", "mp3d", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "normalized execution time" in out

    def test_sweep_prints_progress_and_summary(self, capsys,
                                               tiny_profile):
        assert main(["sweep", "mp3d", "--procs", "1",
                     "--ladder", "4KB,8KB"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "points: 2 total" in out
        # A narrowed grid lacks the paper figures' normalization base,
        # so the raw per-point table is printed instead.
        assert "sweep points" in out

    def test_sweep_resume_restores_journal(self, capsys, tiny_profile):
        args = ["sweep", "mp3d", "--procs", "1", "--ladder", "4KB,8KB"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 journaled" in out

    def test_sweep_quarantine_exit_code(self, capsys, monkeypatch,
                                        tiny_profile):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "1:4096:raise")
        args = ["sweep", "mp3d", "--procs", "1", "--ladder", "4KB,8KB",
                "--retries", "1", "--backoff", "0"]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 point(s):" in out
        assert "injected fault" in out
        assert "--resume" in out
        assert "1 retries" in out
        # With the fault gone, --resume recomputes only the poisoned
        # point and the sweep completes.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 journaled" in out
        assert "0 quarantined" in out

    def test_report_table3(self, capsys, tiny_profile):
        assert main(["report", "table3"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out


class TestBench:
    """``bench`` is a front for the checkout's ``bench/run.py``."""

    def test_arguments_reach_bench_run_verbatim(self, capfd):
        assert main(["bench", "--help"]) == 0
        out = capfd.readouterr().out
        assert out.startswith("usage: run.py")
        for flag in ("--workload", "--repeats", "--traced", "--probes",
                     "--smoke"):
            assert flag in out

    def test_without_a_checkout_it_says_so(self, capsys, monkeypatch,
                                           tmp_path):
        from repro import cli
        monkeypatch.setattr(cli, "BENCH_SCRIPT",
                            tmp_path / "bench" / "run.py")
        assert main(["bench", "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "no bench/run.py" in err and str(tmp_path) in err
        assert len(err.strip().splitlines()) == 1


class TestOptimizeCommand:
    @pytest.fixture
    def tiny_env(self, monkeypatch, tmp_path):
        from repro.experiments.runner import PROFILES, ExperimentProfile
        profile = ExperimentProfile(
            name="tiny", ladder_scale=8,
            barnes_bodies=24, barnes_steps=1,
            mp3d_particles=40, mp3d_steps=1,
            cholesky_n=48,
            multiprog_instructions=1500, multiprog_quantum=500)
        monkeypatch.setitem(PROFILES, "tiny", profile)
        monkeypatch.setenv("REPRO_PROFILE", "tiny")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return profile

    def test_optimize_rediscovers_recommendations(self, capsys,
                                                  tiny_env):
        assert main(["optimize", "--seed", "0", "--generations", "1",
                     "--population", "4", "--promote", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "2p/32KB" in out
        assert "REDISCOVERS" in out
        assert "Funnel budget" in out

    def test_optimize_rejects_unknown_benchmark(self, capsys, tiny_env):
        assert main(["optimize", "--benchmarks", "linpack"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_optimize_budget_flags_flow_through(self, capsys, tiny_env):
        assert main(["optimize", "--seed", "0", "--generations", "1",
                     "--population", "4", "--promote", "2",
                     "--no-knobs", "--budget-fused", "64",
                     "--ladder", "32KB,64KB,128KB,512KB"]) == 0
        out = capsys.readouterr().out
        assert "/ 64" in out
