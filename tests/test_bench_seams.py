"""Tier-1 guard for the names ``bench/`` reaches into ``src/`` by string.

``bench/`` is outside ``testpaths`` and interposes on the simulator by
``(module or class, attribute)`` path, so a ``src/`` refactor that moves
or renames one of those names would otherwise be caught only by the CI
job that runs the benchmark itself.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_interposed_seam_resolves():
    # By path: spans.py imports only the stdlib until a seam is resolved.
    spec = importlib.util.spec_from_file_location(
        "_bench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SEAMS
    for owner, attribute, _, _ in spans.SEAMS:
        assert callable(getattr(spans._resolve(owner), attribute)), \
            (owner, attribute)


def test_every_name_bench_imports_from_repro_exists():
    checked = 0
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                wanted = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in wanted:
                if module.split(".")[0] != "repro":
                    continue
                imported = importlib.import_module(module)
                # (``from package import submodule`` is the last case)
                assert (name is None or hasattr(imported, name)
                        or (hasattr(imported, "__path__")
                            and importlib.util.find_spec(
                                f"{module}.{name}"))), \
                    f"bench/{path.name}: {module} has no {name!r}"
                checked += 1
    assert checked
