"""C-extension timing engine: loader, on-demand build, wrapper.

``_native.c`` implements the interleaver's run: C owns the whole data
path -- hits, bank/write-buffer timing, the snoopy miss path with its
bus arbitration, instruction-cache refills --, scheduling, the locks,
barriers and task queues, and the resuming of the application
generators, whose bodies are the only python executed during a run --
none at all for MP3D and Barnes-Hut, whose processes are C's own and
are stepped, not resumed.  The contract is the reference loop's
(``TimingInterleaver._run_generic``): same statistics, same clocks,
same errors.  A probed system never gets here: any probe keeps the
interleaver on the reference loop, whose callbacks are the only code
that records what a probe sees.

Ownership rule: the python containers are the machine's state *at
rest*; during the one ``_native.run(plan)`` call C works on its own copy
and no python code reads or writes the machine (``MultiprocessorSystem
.data_access`` and ``.ifetch`` never run in a native run).  Tag/state
arrays -- the SCCs' and the icaches' --, bank free times and the bus
clock are ``array('q')`` storage C works on in place; each
``scc._inflight`` dict, each bank's ``_write_buffers`` list, each
``scc._lost_lines`` set and ``interleaver._heap`` are read into C words
(per-index fill words, a heap of retire times per bank, an
open-addressing table of lines, one-cycle buckets with a heap for
overflow) and rewritten from them as the call ends, so a miss or a
switch touches no python object; the processes' fields, ``_locks`` and
``_barriers`` are flattened into the plan by :func:`run` and rebuilt by
it from the plan -- so a run that ends, deadlocks or aborts leaves every
container as the reference loop would, and the next run on the same
objects may be either engine's.

The extension has five more sections this module only loads: the fused
ladder (``ladder``, driven by :mod:`repro.trace.multiconfig`), the
row-profile kernel (``row_profile``, called by
:func:`repro.model.profile.build_row_profile` with its python functions
as the contract), the SPEC-stream kernel (``spec_burst``, called by
:meth:`repro.workloads.spec.SpecApp.burst_chunk`), and MP3D's and
Barnes-Hut's processes (``mp3d_processes`` and ``barnes_processes``,
called by :meth:`repro.workloads.mp3d.MP3D.processes` and
:meth:`repro.workloads.barnes_hut.BarnesHut.processes`), two kinds of
one C process: whichever kind, it yields its chunks through ``next()`` /
``send()`` as a ``PackedChunk`` of an ``array('q')``, and ``run`` steps
it itself, reading the words where the step wrote them.  The last three
are the only way those workloads make their streams; their python twins
are test oracles in ``tests/oracles/``.
One build, one ``ABI_VERSION`` check, serves all six.  The
ladder is a second driver of the same memory system: to C a ladder rung
is a one-processor machine, described by the :func:`machine_plan` a run's
machine is described by -- the scalars of its config in one layout, its
SCC, its icache, rows of deltas -- and counted into rows :func:`settle`
adds up for both drivers; its misses run the code a run's misses run, and
one ``ladder(plan, tape)`` call runs its whole tape and writes it back.

Loading happens at first use and is cached for the process:

1. ``repro.trace.engine._native`` -- the setuptools ``Extension`` built
   by ``pip install`` / ``python setup.py build_ext --inplace``, unless
   it is stale (its ``ABI_VERSION`` is not ``NATIVE_VERSION``).
2. On-demand compile of ``_native.c`` into a content-addressed cache
   directory (``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro-native``),
   because the repo's documented mode of use is ``PYTHONPATH=src`` from
   a source tree with no install step.  Concurrent builders race safely
   (atomic rename); rebuilds happen only when the source, interpreter,
   ``NATIVE_VERSION`` or the compiler flags change.

The extension is required: when neither step yields it, :func:`load`
raises one ``ImportError`` naming the compiler, its error, and a stale
in-place build's reason when there was one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import threading
import time
from array import array
from collections import deque
from pathlib import Path
from typing import Optional

from ..interleave import SyncProtocolError, _Lock
from ..packed import EVENT_CODES, PackedChunk

__all__ = ["NATIVE_VERSION", "load", "machine_plan", "run", "settle"]

#: Bump, with ``ABI_VERSION`` in ``_native.c``, when the C ABI (plan
#: layout, run contract, ladder, profile or workload entry points)
#: changes.
NATIVE_VERSION = "20"

#: How the on-demand build compiles ``_native.c`` (part of its cache key).
#: No floating-point contraction: GCC fuses ``a * b + c`` into one
#: rounding on FMA targets (aarch64), and MP3D's and Barnes-Hut's physics
#: and ``spec_burst``'s comparisons must round as python does.
_CFLAGS = ("-O2", "-ffp-contract=off")

#: How old another build in the cache must be for a new build to delete
#: it: a day, so that checkouts sharing the cache do not delete each
#: other's current builds (a rebuild takes seconds).
_STALE_BUILD_S = 24 * 3600

_mod = None
_LOAD_LOCK = threading.Lock()   # one build and import per process

_NO_LIMIT = (1 << 63) - 1

#: Words of one process at rest (``P_FIELDS`` in _native.c): its clock,
#: ``blocked``, ``block_start``, ``finished``, ``chunk_pos``, ``chunk_sub``
_PROCESS_WORDS = 6

#: Words of a machine plan's ``misc`` (``X_FIELDS`` in _native.c): events
#: executed, ``interleaver._seq``, the latest finish, generators resumed
_MISC_WORDS = 4

# Slot order of one SCC's ``SccStats`` deltas (``S_*`` in _native.c)
_SCC_FIELDS = ("reads", "read_misses", "writes", "write_misses", "upgrades",
               "invalidations_sent", "invalidations_received",
               "interventions", "writebacks", "evictions",
               "coherence_read_misses", "bank_conflict_cycles",
               "bus_wait_cycles", "write_buffer_stall_cycles")

# What a generator may yield, as ``_native.run`` takes it: the chunk
# class and its data attribute, the type ``array('q', data)`` is built
# with, the error a misused lock, barrier or queue raises, and per event
# class its opcode and the attributes its operands are read from
# (``packed.EVENT_CODES``).
_VOCABULARY = (PackedChunk, "data", array, SyncProtocolError,
               tuple((cls, op, names)
                     for cls, (op, names) in EVENT_CODES.items()))


def _source_path() -> Path:
    return Path(__file__).with_name("_native.c")


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _compiler() -> str:
    return (sysconfig.get_config_var("CC") or "cc").split()[0]


def _build_key(source: bytes) -> str:
    tag = (f"{sys.version_info[0]}.{sys.version_info[1]}-"
           f"{NATIVE_VERSION}-{' '.join(_CFLAGS)}-").encode() + source
    return hashlib.sha256(tag).hexdigest()[:16]


def _compile_on_demand():
    """Build this tree's ``_native.c`` into the cache dir and import it;
    raises ``ImportError`` with the reason it could not."""
    return _import(_compile(_source_path(), _cache_dir(), _compiler()))


def _compile(src: Path, cache: Path, cc: str) -> Path:
    """The path of ``src`` built by ``cc`` into ``cache``, compiled
    unless a build of the same source is there already.  It reads no
    environment and is handed its compiler, so that threads may build
    into caches of their own.  Raises ``ImportError`` with the reason
    it could not build."""
    if not src.is_file():
        raise ImportError(f"source missing: {src}")
    source = src.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so_path = cache / f"_native_{_build_key(source)}{suffix}"
    if so_path.is_file():
        return so_path
    include = sysconfig.get_paths()["include"]
    tmp = so_path.with_suffix(so_path.suffix + f".tmp{os.getpid()}")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        result = subprocess.run(
            [cc, *_CFLAGS, "-shared", "-fPIC", f"-I{include}",
             str(src), "-o", str(tmp)],
            capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise ImportError(f"compile failed ({cc}): "
                              f"{result.stderr.strip()[:500]}")
        os.replace(tmp, so_path)
        _prune_builds(cache, so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"compile failed ({cc}): {exc}") from exc
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass
    return so_path


def _import(so_path: Path):
    """The extension module built at ``so_path``."""
    try:
        # The last name component must be ``_native`` so the loader finds
        # ``PyInit__native`` in the shared object.
        spec = importlib.util.spec_from_file_location(
            "repro.trace.engine._native", so_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:
        raise ImportError(
            f"import of built extension failed: {exc}") from exc
    return module


def _prune_builds(cache: Path, keep: Path) -> None:
    """Delete the cache's other builds, and temporaries a build left,
    older than ``_STALE_BUILD_S``; another process may be deleting the
    same ones."""
    cutoff = time.time() - _STALE_BUILD_S
    for path in cache.glob("_native_*"):
        try:
            if path != keep and path.stat().st_mtime < cutoff:
                path.unlink()
        except OSError:
            pass


def load():
    """The native extension module, built on first use and cached.

    Threads that ask together wait for one build and share its module.
    Raises ``ImportError`` when it can be neither imported nor built:
    the message names the compiler and gives its error, after a stale
    in-place build's reason when one was found."""
    global _mod
    if _mod is None:
        with _LOAD_LOCK:
            if _mod is None:
                _mod = _find()
    return _mod


def _find():
    """:func:`load`'s search: the in-place build, else this tree's
    source built into the cache."""
    stale = None
    try:
        from . import _native  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        stale = _stale_reason(_native)
        if stale is None:
            return _native
    # No in-place build, or a stale one: build this tree's source.
    try:
        module = _compile_on_demand()
    except ImportError as exc:
        reason = str(exc)
    else:
        reason = _stale_reason(module)
    if reason is None:
        return module
    if stale is not None:
        reason = f"{stale}; {reason}"
    raise ImportError(f"the native extension (repro.trace.engine._native) "
                      f"is required and could not be loaded: {reason}")


def _stale_reason(module) -> Optional[str]:
    """Why ``module`` cannot serve this wrapper (``None``: it can).

    One check covers every entry point, the fused ladder's included: an
    ``_native`` left behind by an older ``setup.py build_ext --inplace``
    would otherwise shadow the on-demand build and fail mid-sweep.
    """
    abi = getattr(module, "ABI_VERSION", None)
    if abi == NATIVE_VERSION:
        return None
    return (f"stale extension {getattr(module, '__file__', '?')}: "
            f"ABI {abi!r}, need {NATIVE_VERSION!r}")


def _icaches(system) -> list:
    """Each processor's icache, by pid; none when none is modelled."""
    config = system.config
    if not config.model_icache:
        return []
    return [system.clusters[config.cluster_of(p)].icaches[config.port_of(p)]
            for p in range(config.total_processors)]


def machine_plan(system, max_cycles: Optional[int] = None) -> tuple:
    """What ``_native.run`` and ``_native.ladder`` both read of one
    machine (``machine_setup`` in ``_native.c``): the scalars of its
    config (``K_*``); per cluster, the storage C works on in place
    (tag/state arrays, bank free times, the bus clock) and the containers
    it reads into words and rewrites; each processor's icache arrays;
    and zeroed rows for :func:`settle` -- eight of a word per processor
    (``Deltas``), then the ``misc`` words (``X_*``)."""
    config = system.config
    nproc = config.total_processors
    scalars = array("q", [
        config.line_offset_bits, config.num_banks, config.bank_cycle_time,
        1 if config.stall_on_writes else 0, config.write_buffer_depth,
        config.icache_miss_latency, config.icache_line_size.bit_length() - 1,
        _NO_LIMIT if max_cycles is None else max_cycles,
        config.bus_occupancy, config.upgrade_bus_occupancy,
        config.memory_latency, 1 if config.protocol == "mesi" else 0,
        config.lock_overhead, config.barrier_overhead])
    sccs = tuple(
        (scc.array._states, scc.array._tags, scc.array._index_mask,
         scc.array._tag_shift, scc._inflight,
         scc.interconnect._write_buffers, scc._lost_lines,
         scc.interconnect._bank_free, system.bus._clock,
         array("q", bytes(8 * len(_SCC_FIELDS))))
        for scc in (cluster.scc for cluster in system.clusters))
    # ``SystemConfig`` makes an icache's line and line count powers of
    # two; a one-line icache's zero mask and shift address it as its own
    # ``%`` and ``//`` do.
    icaches = tuple((ic.array._states, ic.array._tags, ic.array._index_mask,
                     ic.array._tag_shift) for ic in _icaches(system))
    rows = [array("q", bytes(8 * nproc)) for _ in range(8)]
    rows[3] = array("q", [-1] * nproc)      # finish: none yet
    return (scalars, sccs, icaches,
            (*rows, array("q", bytes(8 * _MISC_WORDS))))


def settle(system, plan: tuple) -> None:
    """Add what C counted on ``system`` -- the rows of its
    :func:`machine_plan` ``plan`` -- to the python counters the reference
    loop bumps as it goes."""
    for cluster, entry in zip(system.clusters, plan[1]):
        scc = cluster.scc
        deltas = dict(zip(_SCC_FIELDS, entry[-1]))
        stats = scc.stats
        for name, delta in deltas.items():
            if delta:
                setattr(stats, name, getattr(stats, name) + delta)
        # C inlines the interconnect's bank and write-buffer arbitration,
        # so its own two counters are settled here too.
        interconnect = scc.interconnect
        interconnect.conflict_cycles += deltas["bank_conflict_cycles"]
        interconnect.write_stall_cycles += deltas[
            "write_buffer_stall_cycles"]
    refs, busy, stall, finish, sync, icfetch, icmiss, icstall, _ = plan[3]
    icaches = _icaches(system)
    for p, processor in enumerate(system._procs):
        pstats = processor.stats
        if refs[p] or busy[p]:
            pstats.references += refs[p]
            pstats.instructions += busy[p]
            pstats.busy_cycles += busy[p]
            pstats.memory_stall_cycles += stall[p]
        pstats.sync_stall_cycles += sync[p]
        if finish[p] > processor.finish_time:
            processor.finish_time = finish[p]
        if icfetch[p]:
            icaches[p].fetch_lines += icfetch[p]
            icaches[p].misses += icmiss[p]
            pstats.icache_stall_cycles += icstall[p]


def run(interleaver, max_cycles: Optional[int]) -> int:
    """Drop-in replacement for ``TimingInterleaver._run_generic`` on
    machines the interleaver found native-eligible.

    One call into C (``_native.run``) runs the whole simulation, icache
    refills included, and writes what it leaves back into the plan,
    raise or no raise; the generators' bodies are the only python
    executed in it.  This frame flattens the interleaver's state at rest
    into the plan and, whatever happened, rebuilds it from the plan: the
    processes, ``_heap``, ``_locks``, ``_barriers``, every counter the
    reference loop bumps.
    """
    native = load()
    self = interleaver
    heap = self._heap
    system = self.system
    nproc = system.config.total_processors
    for cluster in system.clusters:
        # C keeps one fill per index: the invariant's
        if cluster.scc._inflight:
            cluster.scc.check_fill_tracking()
    machine = machine_plan(system, max_cycles)
    misc = machine[3][-1]
    misc[1] = self._seq
    # The processes at rest, by pid: ``_PROCESS_WORDS`` each and what
    # stays an object.  C carries on from a chunk
    # the last run left half-drained and a response it left unsent.
    processes = [self._processes.get(p) for p in range(nproc)]
    pstate = array("q", [
        word for process in processes
        for word in ((process.time, process.blocked, process.block_start,
                      process.finished, process.chunk_pos,
                      process.chunk_sub) if process else (0,) * _PROCESS_WORDS)])
    chunks = [process and process.chunk for process in processes]
    responses = [process and process.response for process in processes]
    plan = (
        machine,
        self._queues,
        (heap, array("q", self._proc_cluster),
         [process and process.generator for process in processes],
         pstate, chunks, responses),
        ([(lock_id, -1 if lock.holder is None else lock.holder,
           list(lock.waiters)) for lock_id, lock in self._locks.items()],
         [(barrier_id, -1, waiting)
          for barrier_id, waiting in self._barriers.items()]),
        _VOCABULARY,
    )
    try:
        native.run(plan)
    finally:
        # Whatever the run left in the plan -- finished, deadlocked or
        # aborted -- comes back as the reference loop would have left it.
        locks, barriers = plan[3]
        for lock_id, holder, waiters in locks:
            lock = self._locks.setdefault(lock_id, _Lock())
            lock.holder = None if holder < 0 else holder
            lock.waiters = deque(waiters)
        for barrier_id, _, waiting in barriers:
            self._barriers[barrier_id] = waiting
        for p, process in enumerate(processes):
            if process is not None:
                (process.time, blocked, process.block_start, finished,
                 process.chunk_pos, process.chunk_sub) = pstate[
                     _PROCESS_WORDS * p:_PROCESS_WORDS * (p + 1)]
                process.blocked = bool(blocked)
                process.finished = bool(finished)
                process.chunk = chunks[p]
                process.response = responses[p]
                process.in_heap = False
        for _, _, pid in heap:
            processes[pid].in_heap = True
        self._seq = misc[1]
        self.events_processed += misc[0]
        self.generator_resumes += misc[3]
        settle(system, machine)
    return misc[2]
