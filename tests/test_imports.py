"""What a fresh process imports, and what every package exports.

The package ``__init__``s export their names lazily (``repro._lazy``),
and imports only a rare branch needs are made in that branch, so a
process loads only what its command runs.  The startup checks run in a
fresh interpreter under ``-X importtime``; a failure names each module
that was loaded and the chain of imports that loaded it, so a change
that makes a module eager again is named by the test it breaks.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC.parent).parts)
    for path in SRC.rglob("__init__.py")
    if "lazy_exports(" in path.read_text())

SHARED_SWEEP_NEVER_LOADS = (
    "asyncio", "http.client", "http.server", "ssl",
    "concurrent.futures.process",
    "repro.fabric.broker", "repro.fabric.client", "repro.fabric.service",
    "repro.fabric.worker",
    "repro.cost", "repro.optimize", "repro.verify", "repro.model",
    "repro.core.private", "repro.core.directory",
)


def _import_chains(importtime: str) -> dict:
    """``-X importtime`` output -> ``{module: "a -> b -> module"}``, the
    chain of first imports that loaded each module."""
    chains, stack = {}, []
    # Children are printed before their importer: read it backwards.
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or line.endswith("package"):
            continue
        field = line.rsplit("|", 1)[1]
        name = field.strip()
        level = (len(field) - len(field.lstrip()) - 1) // 2
        del stack[level:]
        stack.append(name)
        chains[name] = " -> ".join(stack)
    return chains


def _fresh_process(*args: str, cwd: Path) -> dict:
    """Run ``python -X importtime *args`` in a fresh interpreter; the
    import chains of every module it loaded."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(cwd),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return _import_chains(done.stderr)


def _loaded(chains: dict, modules) -> list:
    return [chains[module] for module in modules if module in chains]


def test_the_chain_parser_names_the_importer():
    importtime = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:        30 |         60 | repro.workloads.spec",
        "import time:         5 |          5 | json",
    ])
    assert _import_chains(importtime) == {
        "json": "json",
        "repro.workloads.spec": "repro.workloads.spec",
        "numpy": "repro.workloads.spec -> numpy",
        "numpy.core": "repro.workloads.spec -> numpy -> numpy.core",
    }


@pytest.mark.parametrize("args", [("-c", "import repro"),
                                  ("-m", "repro", "--help")],
                         ids=["import-repro", "cli-help"])
def test_startup_loads_no_numpy(args, tmp_path):
    chains = _fresh_process(*args, cwd=tmp_path)
    assert "repro" in chains
    assert _loaded(chains, ["numpy"]) == []


def test_a_shared_cache_sweep_loads_no_other_subsystem(tmp_path):
    chains = _fresh_process("-c", """
from repro.core.config import KB
from repro.experiments import PROFILES, SweepSpec, run_sweep
spec = SweepSpec.parallel("barnes-hut", profile=PROFILES["quick"],
                          procs=(2,), ladder=(8 * KB,))
assert len(run_sweep(spec)) == 1
""", cwd=tmp_path)
    assert "repro.workloads.barnes_hut" in chains
    assert _loaded(chains, SHARED_SWEEP_NEVER_LOADS) == []


def _export_table(package: str) -> dict:
    """``{name: submodule}`` from the package's ``lazy_exports`` call."""
    path = SRC.parent.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            table = ast.literal_eval(node.args[1])
            return {name: module for module, names in table.items()
                    for name in names}
    raise AssertionError(f"{package} calls no lazy_exports")


def test_the_eleven_packages_export_lazily():
    assert PACKAGES == [
        "repro", "repro.core", "repro.cost", "repro.experiments",
        "repro.fabric", "repro.instrument", "repro.model",
        "repro.optimize", "repro.trace", "repro.verify",
        "repro.workloads"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_the_submodule_s_own(package):
    module = importlib.import_module(package)
    table = _export_table(package)
    assert set(table) == set(module.__all__) - {"__version__"}
    for name, submodule in table.items():
        home = importlib.import_module(submodule, package)
        assert getattr(module, name) is getattr(home, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_and_star_import_see_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_the_standard_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError,
                       match=rf"^module '{package}' has no attribute "
                             rf"'no_such_name'$"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
