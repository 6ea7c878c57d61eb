"""Every script under ``examples/`` runs to completion.

Each runs in a subprocess from an empty directory that is also its cache
root, so an example can neither lean on nor leave state in the checkout.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run_example(script, tmp_path):
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    done = run_example(script, tmp_path)
    assert done.returncode == 0, done.stderr
    if script.stem == "workload_characterization":
        # Each workload is characterized from its whole recorded tape, not
        # from the few event objects its generators yield between chunks.
        refs = dict(re.findall(r"^(\S+): ([\d,]+) refs", done.stdout,
                               re.MULTILINE))
        assert int(refs["barnes-hut"].replace(",", "")) >= 50_000
        assert int(refs["mp3d"].replace(",", "")) >= 20_000
