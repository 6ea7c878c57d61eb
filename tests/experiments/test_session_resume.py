"""Crash/kill integration tests for the sweep session.

These drive real subprocesses: a ``--jobs`` sweep SIGKILLed mid-grid
must resume from its journal and reproduce the uninterrupted run's
table bit-for-bit, and a terminated sweep process must not leave its
pool workers orphaned.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

SWEEP_ARGS = [sys.executable, "-m", "repro", "sweep", "mp3d",
              "--profile", "quick", "--procs", "2",
              "--ladder", "4KB,8KB,16KB,32KB,64KB,128KB",
              "--jobs", "2", "--backoff", "0"]


def _env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(workdir)
    return env


def _table(output: str) -> str:
    """The final per-point table (everything from its title on)."""
    index = output.index("mp3d: sweep points")
    return output[index:].strip()


def _summary_counts(output: str) -> dict:
    match = re.search(
        r"points: (\d+) total -- (\d+) computed, (\d+) replayed, "
        r"(\d+) analytical, (\d+) cached, (\d+) journaled, "
        r"(\d+) retries, (\d+) quarantined", output)
    assert match, f"no summary line in output:\n{output}"
    keys = ("total", "computed", "replayed", "analytical", "cached",
            "journaled", "retries", "quarantined")
    return dict(zip(keys, map(int, match.groups())))


def _pid_gone(pid: int) -> bool:
    """True if ``pid`` no longer runs (reaped, or a zombie awaiting
    its reparented reap)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


class TestKillAndResume:
    def test_sigkilled_sweep_resumes_bit_identically(self, tmp_path):
        """SIGKILL a --jobs sweep after its first journaled point; the
        --resume run recomputes only unjournaled points and the final
        table equals an uninterrupted run's."""
        workdir = tmp_path / "killed"
        process = subprocess.Popen(
            SWEEP_ARGS, env=_env(workdir), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, bufsize=1,
            start_new_session=True)
        try:
            # Progress lines land as each point's completion is
            # journaled; kill the whole process group on the first one.
            saw_point = False
            for line in process.stdout:
                if "computed" in line and "] procs=" in line:
                    saw_point = True
                    break
            assert saw_point, "sweep finished output without progress"
            os.killpg(process.pid, signal.SIGKILL)
        finally:
            process.wait(timeout=30)
            process.stdout.close()
        assert process.returncode == -signal.SIGKILL

        # The journal survived the kill with at least one done point:
        # a header line, then one complete line per journaled point.
        journals = list((workdir / "sessions").glob("*.jsonl"))
        assert len(journals) == 1
        with open(journals[0], "rb") as log:
            header, *entries = [json.loads(line) for line in log]
        assert header["version"] == 2
        done_points = {entry["point"] for entry in entries
                       if entry["status"] == "done"}
        assert done_points

        resumed = subprocess.run(
            SWEEP_ARGS + ["--resume"], env=_env(workdir),
            capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        counts = _summary_counts(resumed.stdout)
        assert counts["total"] == 6
        assert counts["quarantined"] == 0
        # Journaled points were restored, not recomputed.
        assert counts["journaled"] >= len(done_points) >= 1
        assert counts["computed"] <= 6 - counts["journaled"]

        baseline = subprocess.run(
            SWEEP_ARGS, env=_env(tmp_path / "pristine"),
            capture_output=True, text=True, timeout=300)
        assert baseline.returncode == 0, (baseline.stdout
                                          + baseline.stderr)
        assert _table(resumed.stdout) == _table(baseline.stdout)


class TestSignalAwarePoolShutdown:
    CHILD = """
import os, signal, sys
from repro.experiments.runner import _worker_pool
pool = _worker_pool(2)
for future in [pool.submit(os.getpid) for _ in range(4)]:
    future.result()
print("WORKERS " + " ".join(
    str(process.pid) for process in pool._processes.values()),
    flush=True)
signal.pause()
"""

    def test_sigterm_kills_pool_workers(self, tmp_path):
        """atexit never fires on a fatal signal; the runner's signal
        hooks must terminate the worker processes before the parent
        dies, or a killed sweep leaves orphans simulating forever."""
        process = subprocess.Popen(
            [sys.executable, "-c", self.CHILD], env=_env(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1, start_new_session=True)
        try:
            line = process.stdout.readline()
            assert line.startswith("WORKERS "), line
            workers = [int(pid) for pid in line.split()[1:]]
            assert len(workers) == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=15) == -signal.SIGTERM
        finally:
            process.stdout.close()
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=15)
        for pid in workers:
            assert _wait_until(lambda: _pid_gone(pid)), \
                f"worker {pid} survived its parent's SIGTERM"
