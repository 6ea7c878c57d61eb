"""The call tracer of ``.github/scripts/reach.py`` (loaded by path: it is
a script, not a module of the package)."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / ".github" / "scripts" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_cleared_profiler_is_re_armed(tmp_path):
    """Something that sets the profiler to ``None`` (a test restoring
    what it found, pytest-benchmark's pause) must not blind the tracer
    for the rest of the process."""
    reach = _reach()
    hook_dir, records = tmp_path / "hook", tmp_path / "records"
    hook_dir.mkdir()
    records.mkdir()
    reach.install_hook(hook_dir)
    src = ROOT / "src"
    env = reach.traced_env(hook_dir, records, src, dict(os.environ))
    script = ("import sys\n"
              "from repro.experiments.report import format_size\n"
              "sys.setprofile(None)\n"
              "assert format_size(4096) == '4 KB'\n")
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   timeout=60)
    called = {function for function in reach.read_records(records)
              if function[2] == "format_size"}
    assert len(called) == 1
    assert called <= reach.defined_functions(src)


def test_every_cli_command_has_a_user_path():
    """A subcommand with no traced call would list all of its code as
    unreached: a deletion list of live code."""
    assert _reach().untraced_commands() == []
