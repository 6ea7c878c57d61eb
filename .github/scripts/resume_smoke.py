#!/usr/bin/env python3
"""Kill-and-resume smoke test for the sweep session (CI gate).

Starts a ``--jobs`` sweep, SIGKILLs its whole process group as soon as
the first point is journaled, resumes it with ``--resume``, and
requires

* the resumed run to restore every point the killed sweep reported
  instead of recomputing it (a point is journaled before its progress
  line prints, so each reported point survives the kill), and
* its final table to equal an uninterrupted run's bit-for-bit.

Exits non-zero (with a diagnostic) on any violation.  Stdlib only, so
it runs anywhere the simulator does::

    PYTHONPATH=src python .github/scripts/resume_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP_ARGS = [sys.executable, "-m", "repro", "sweep", "mp3d",
              "--profile", "quick", "--procs", "2",
              "--ladder", "4KB,8KB,16KB,32KB,64KB,128KB",
              "--jobs", "2", "--backoff", "0"]


def _env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(workdir)
    return env


def _table(output: str) -> str:
    index = output.find("mp3d: sweep points")
    if index < 0:
        sys.exit(f"no sweep table in output:\n{output}")
    return output[index:].strip()


def _summary(output: str) -> dict:
    match = re.search(
        r"points: (\d+) total -- (\d+) computed, (\d+) replayed, "
        r"(\d+) analytical, (\d+) cached, (\d+) journaled, "
        r"(\d+) retries, (\d+) quarantined", output)
    if not match:
        sys.exit(f"no summary line in output:\n{output}")
    keys = ("total", "computed", "replayed", "analytical", "cached",
            "journaled", "retries", "quarantined")
    return dict(zip(keys, map(int, match.groups())))


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="resume-smoke-"))

    print("== start sweep, SIGKILL after the first journaled point")
    process = subprocess.Popen(
        SWEEP_ARGS, env=_env(root / "killed"), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, bufsize=1,
        start_new_session=True)
    output = []
    for line in process.stdout:
        output.append(line)
        if "computed" in line and "] procs=" in line:
            os.killpg(process.pid, signal.SIGKILL)
            break
    else:
        sys.exit("sweep finished before it could be killed; "
                 "grow the grid")
    # Lines still in the pipe were printed before the kill too.
    output.extend(process.stdout)
    process.wait(timeout=60)
    process.stdout.close()
    for line in output:
        print("  " + line.rstrip())
    reported = sum("] procs=" in line for line in output)

    print("== resume")
    resumed = subprocess.run(
        SWEEP_ARGS + ["--resume"], env=_env(root / "killed"),
        capture_output=True, text=True, timeout=600)
    print(resumed.stdout)
    if resumed.returncode != 0:
        sys.exit(f"resume failed ({resumed.returncode}):\n"
                 f"{resumed.stderr}")
    counts = _summary(resumed.stdout)
    if counts["journaled"] < reported:
        sys.exit(f"the killed sweep reported {reported} point(s) but "
                 f"resume restored {counts['journaled']} from the "
                 f"journal: {counts}")
    if counts["computed"] + counts["journaled"] + counts["replayed"] \
            + counts["analytical"] + counts["cached"] != counts["total"]:
        sys.exit(f"resume did not resolve the whole grid: {counts}")
    if counts["quarantined"]:
        sys.exit(f"resume quarantined points: {counts}")

    print("== uninterrupted baseline")
    baseline = subprocess.run(
        SWEEP_ARGS, env=_env(root / "pristine"), capture_output=True,
        text=True, timeout=600)
    if baseline.returncode != 0:
        sys.exit(f"baseline failed ({baseline.returncode}):\n"
                 f"{baseline.stderr}")

    if _table(resumed.stdout) != _table(baseline.stdout):
        sys.exit("resumed table differs from uninterrupted run:\n"
                 f"--- resumed ---\n{_table(resumed.stdout)}\n"
                 f"--- baseline ---\n{_table(baseline.stdout)}")
    print(f"OK: the killed sweep reported {reported} point(s); the "
          f"resumed run restored {counts['journaled']} journaled "
          f"point(s), recomputed {counts['computed']}, and matched the "
          f"uninterrupted table bit-for-bit")


if __name__ == "__main__":
    main()
