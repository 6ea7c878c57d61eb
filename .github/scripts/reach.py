#!/usr/bin/env python3
"""Which functions under ``src/`` does no user path reach?

Every layer of the simulator should earn its place with a user.  This
script finds the functions that have none: it runs each *user path* --
the quick-profile paper benchmarks, every example, the CI smoke
scripts, the benchmark's smoke pass and one invocation of each CLI
command, ``serve`` and ``submit`` included -- in a fresh process, then
tier 1, all under a call tracer, and prints every function defined
under ``src/`` that no user path called, marked ``tier1`` (a test
reaches it) or ``none`` (nothing does)::

    python .github/scripts/reach.py     # ~16 min on 2 cores, tier 1 ~12

It is a maintenance tool, not a CI step: a candidate it prints is
either deleted or given a named user (a safety path only a failure
reaches, a test oracle, a test's window on machine state).  Everything
runs on a scratch copy of the checkout with a fresh ``REPRO_CACHE_DIR``
and native build cache, so the run is cold and writes nothing here
(the benchmarks rewrite ``results/``).  Stdlib only: ``coverage`` is
not needed.

The tracer is a ``sitecustomize.py`` put first on ``PYTHONPATH``, so
that every interpreter a path starts loads it -- bench children, pool
workers, a ``serve`` process.  It

* installs one ``sys.setprofile`` hook, and the same hook through
  ``threading.setprofile``, so worker and service threads are traced;
* appends each newly seen code object to a per-pid file at once, keyed
  by file, first line and ``co_qualname`` (``co_name`` before Python
  3.11; file and first line already name a def): a pool worker that
  leaves through ``os._exit`` loses nothing;
* re-arms itself when anything sets the profiler to ``None``.  A test
  that installs a profiler of its own and then clears it, or
  pytest-benchmark's pause around ``benchmark.pedantic``, would
  otherwise blind it for the rest of the process, and everything after
  would look unreached.  The benchmarks also run with
  ``--benchmark-disable``, which skips that pause altogether.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]

Function = Tuple[str, int, str]
"""``(path under src/, first line, qualified name)``."""

HOOK = '''\
"""Call tracer for .github/scripts/reach.py: records each function
first called in this process into $REACH_OUT/<pid>.txt."""
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.environ.get("REACH_SRC")


def _install():
    seen = set()
    sink = [None, -1]       # pid, fd: a forked child opens its own file
    set_profile = sys.setprofile
    set_thread_profile = threading.setprofile
    prefix = os.path.join(_SRC, "")

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        path = os.path.abspath(code.co_filename)
        if not path.startswith(prefix):
            return
        pid = os.getpid()
        if sink[0] != pid:
            sink[0] = pid
            sink[1] = os.open(os.path.join(_OUT, f"{pid}.txt"),
                              os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        name = getattr(code, "co_qualname", code.co_name)
        os.write(sink[1], f"{path[len(prefix):]}\\t{code.co_firstlineno}"
                          f"\\t{name}\\n".encode())

    def setprofile(function):
        set_profile(hook if function is None else function)

    def thread_setprofile(function):
        set_thread_profile(hook if function is None else function)

    sys.setprofile = setprofile
    threading.setprofile = thread_setprofile
    set_thread_profile(hook)
    set_profile(hook)


if _OUT and _SRC:
    _install()
'''

COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".repro_cache", ".pytest_cache",
    ".hypothesis", ".benchmarks", ".bench_build", ".bench_scratch",
    "build", "dist", "*.egg-info")


def install_hook(directory: Path) -> None:
    """Write the tracer as ``directory/sitecustomize.py``."""
    (directory / "sitecustomize.py").write_text(HOOK)


def traced_env(hook_dir: Path, records: Path, src: Path,
               base: Dict[str, str]) -> Dict[str, str]:
    """``base`` plus what makes an interpreter load the tracer and
    import ``repro`` from ``src``."""
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(src)])
    env["REACH_OUT"] = str(records)
    env["REACH_SRC"] = str(src)
    return env


def _functions_of(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            # a def's body: not a class body (no new locals), a lambda
            # or a comprehension
            if (const.co_flags & CO_NEWLOCALS
                    and not const.co_name.startswith("<")):
                yield const
            yield from _functions_of(const)


def defined_functions(src: Path) -> Set[Function]:
    """Every ``def`` under ``src``."""
    functions = set()
    for path in sorted(src.rglob("*.py")):
        relative = str(path.relative_to(src))
        module = compile(path.read_text(), str(path), "exec")
        functions.update((relative, code.co_firstlineno,
                          getattr(code, "co_qualname", code.co_name))
                         for code in _functions_of(module))
    return functions


def read_records(records: Path) -> Set[Function]:
    reached = set()
    for path in records.glob("*.txt"):
        for line in path.read_text().splitlines():
            relative, first, qualname = line.split("\t")
            reached.add((relative, int(first), qualname))
    return reached


SERVED = ("serve", "submit")
"""The CLI commands :func:`serve_and_submit` runs."""


def cli_calls(scratch: Path) -> List[List[str]]:
    """The arguments of every CLI call but ``serve``/``submit``, in the
    order they run: the sweeps (one on a process pool) start cold."""
    return [
        ["list"],
        ["simulate", "barnes-hut", "--procs", "2", "--scc", "8KB"],
        ["profile", "mp3d", "--procs", "8", "--scc", "4KB",
         "--trace-out", str(scratch / "trace.json")],
        ["sweep", "mp3d", "--jobs", "2"],
        ["sweep", "mp3d", "--resume"],
        ["sweep", "cholesky", "--fidelity", "analytical"],
        ["report", "table6"],
        ["report", "costs"],
        ["model", "mp3d", "--procs", "1"],
        ["model", "--validate"],
        ["fuzz", "--seed", "0", "--budget", "20"],
        ["optimize", "--seed", "0", "--generations", "2",
         "--population", "4"],
        ["bench", "--help"]]


def untraced_commands() -> List[str]:
    """The subcommands of ``repro.cli``'s parser that no user path
    calls; ``repro`` must be importable.  A command added later without
    a call here would print all of its code as unreached."""
    from repro.cli import _build_parser
    commands = next(action for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    called = {arguments[0] for arguments in cli_calls(Path("."))}
    return sorted(set(commands.choices) - called - set(SERVED))


def user_paths(tree: Path, scratch: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every user path but ``serve``/``submit``
    (which run first), in the order they run on one cache: the CLI
    before the rest, so that its sweeps start cold."""
    py = sys.executable
    paths = []
    for arguments in cli_calls(scratch):
        label = " ".join(word for word in arguments if "/" not in word)
        paths.append((label, [py, "-m", "repro", *arguments]))
    paths += [(f"examples/{path.name}", [py, f"examples/{path.name}"])
              for path in sorted((tree / "examples").glob("*.py"))]
    paths += [(f"smoke/{path.name}", [py, f".github/scripts/{path.name}"])
              for path in sorted((tree / ".github" / "scripts")
                                 .glob("*_smoke.py"))]
    paths.append(("bench --smoke", [py, "bench/run.py", "--smoke",
                                    "--repeats", "1"]))
    paths.append(("benchmarks", [py, "-m", "pytest", "-q", "-p",
                                 "no:cacheprovider", "benchmarks/",
                                 "--benchmark-disable"]))
    return paths


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _run(label: str, argv: List[str], cwd: Path, env: Dict[str, str],
         failures: List[str]) -> None:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(f"  {label:<40} exit {done.returncode}  "
          f"{time.perf_counter() - start:6.1f} s", file=sys.stderr)
    if done.returncode != 0:
        failures.append(label)
        print(done.stdout[-3000:], file=sys.stderr)


def serve_and_submit(tree: Path, env: Dict[str, str],
                     failures: List[str]) -> None:
    """``serve`` in the background; ``submit`` cold, warm and without
    waiting against it; then stop it with SIGINT, as a user would."""
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "2"], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while True:
            try:
                urllib.request.urlopen(f"{url}/healthz", timeout=5.0).close()
                break
            except OSError:
                if time.monotonic() > deadline or server.poll() is not None:
                    failures.append("serve")
                    return
                time.sleep(0.5)
        submit = [sys.executable, "-m", "repro", "submit",
                  "multiprogramming", "--url", url, "--procs", "1,2",
                  "--ladder", "4KB,16KB"]
        for label, extra in (("submit (cold)", []), ("submit (warm)", []),
                             ("submit --no-wait", ["--no-wait"])):
            _run(label, submit + extra, tree, env, failures)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch_name:
        scratch = Path(scratch_name)
        tree = scratch / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        hook_dir = scratch / "hook"
        hook_dir.mkdir()
        install_hook(hook_dir)
        src = tree / "src"
        base = {name: value for name, value in os.environ.items()
                if not name.startswith(("REPRO_", "REACH_"))}
        base.update(REPRO_PROFILE="quick",
                    REPRO_CACHE_DIR=str(scratch / "cache"),
                    REPRO_NATIVE_CACHE=str(scratch / "native"))
        users, tier1 = scratch / "users", scratch / "tier1"
        users.mkdir()
        tier1.mkdir()
        env = traced_env(hook_dir, users, src, base)
        failures: List[str] = []
        sys.path.insert(0, str(src))
        failures += [f"no user path calls `repro {command}`"
                     for command in untraced_commands()]
        print("user paths:", file=sys.stderr)
        serve_and_submit(tree, env, failures)
        for label, argv in user_paths(tree, scratch):
            _run(label, argv, tree, env, failures)
        print("tier 1:", file=sys.stderr)
        _run("pytest tests/", [sys.executable, "-m", "pytest", "-q", "-p",
                               "no:cacheprovider", "tests/"],
             tree, traced_env(hook_dir, tier1, src, base), failures)
        defined = defined_functions(src)
        by_users = read_records(users) & defined
        by_tests = read_records(tier1) & defined

    candidates = sorted(defined - by_users)
    names = [f"{path}:{line} {name}" for path, line, name in candidates]
    width = max(map(len, names), default=0)
    print(f"{'function (src/...:line qualname)':<{width}}  reached by")
    for name, function in zip(names, candidates):
        print(f"{name:<{width}}  "
              f"{'tier1' if function in by_tests else 'none'}")
    tested = len(by_tests.intersection(candidates))
    print(f"{len(defined)} functions under src/, {len(by_users)} reached by "
          f"a user path; {len(candidates)} candidates: {tested} reached by "
          f"tier 1, {len(candidates) - tested} by nothing")
    if failures:
        print(f"FAILED: {', '.join(failures)} (the list is incomplete)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
