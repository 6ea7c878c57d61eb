"""C-extension timing engine: loader, on-demand build, wrapper.

``_native.c`` implements the interleaver's run: C owns the whole data
path -- hits, bank/write-buffer timing, the snoopy miss path with its
bus arbitration --, scheduling, the locks, barriers and task queues, and
the resuming of the application generators, whose bodies (with
instruction-cache refills, the one callback left) are the only python
executed during a run.  The contract is the reference loop's
(``TimingInterleaver._run_generic``): same statistics, same clocks,
same errors -- and, when the system carries the standard
:class:`~repro.instrument.probes.InstrumentationProbe`, the same
registry: C bins what it executes into buffers this wrapper hands it
and folds into the probe once, after the run.

Ownership rule: the python containers are the machine's state *at
rest*; between ``setup`` and ``release`` C works on its own copy and no
python code reads or writes the machine (``MultiprocessorSystem
.data_access`` never runs in a native run).  Tag/state arrays, bank free
times and the bus clock are ``array('q')`` storage C works on in place;
each ``scc._inflight`` dict and each bank's ``_write_buffers`` list is
read into C words at ``setup`` (per-index fill words, a heap of retire
times per bank) and rewritten from them at ``release``; the ready heap
lives in C, read from ``interleaver._heap`` when the run starts and
written back -- what is still ready -- at ``release``; the processes'
fields, ``_locks`` and ``_barriers`` are flattened into the plan by
:func:`run` and rebuilt by it from what ``release`` leaves -- so a run
that ends, deadlocks or aborts leaves every container as the reference
loop would, and the next run on the same objects may be either
engine's.

The extension has three more sections this module only loads: the fused
ladder (``ladder_*``, driven by :mod:`repro.trace.multiconfig`), the
row-profile kernel (``row_profile``, called by
:func:`repro.model.profile.build_row_profile` with its python functions
as the contract) and the force-phase kernel (``force_words``, called by
:mod:`repro.workloads.barnes_hut` with numpy's ``_expand`` as the
contract).  One build, one ``ABI_VERSION`` check, serves all four.  The
ladder is a second driver of the same memory system: to C a
ladder rung is what a cluster of a run is -- one SCC, described by
:func:`scc_plan`, counted into a row :func:`settle_scc` adds up -- and its
misses run the code a run's misses run.

Loading strategy (graceful at every step, ``LOAD_ERROR`` records why a
step failed):

1. ``repro.trace.engine._native`` -- the setuptools ``Extension`` built
   by ``pip install`` / ``python setup.py build_ext --inplace``, unless
   it is stale (its ``ABI_VERSION`` is not ``NATIVE_VERSION``).
2. On-demand compile of ``_native.c`` into a content-addressed cache
   directory (``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro-native``),
   because the repo's documented mode of use is ``PYTHONPATH=src`` from
   a source tree with no install step.  Concurrent builders race safely
   (atomic rename); rebuilds happen only when the source, interpreter,
   or ``NATIVE_VERSION`` changes.

Set ``REPRO_NATIVE=0`` to refuse the extension outright: the
compiler-less configuration (reference loop, per-size replay for
ladders), which tests and CI pin to the same goldens.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
from array import array
from collections import deque
from dataclasses import fields
from itertools import islice
from pathlib import Path
from typing import Optional

from ...instrument.probes import NULL_PROBE
from ..events import (Barrier, Compute, Ifetch, LockAcquire, LockRelease,
                      Read, TaskDequeue, TaskEnqueue, Write)
from ..interleave import SyncProtocolError, _Lock
from ..packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE, OP_ENQUEUE,
                      OP_IFETCH, OP_LOCK_ACQ, OP_LOCK_REL, OP_READ, OP_WRITE,
                      PackedChunk)

__all__ = ["NATIVE_VERSION", "LOAD_ERROR", "ladder_available", "load",
           "run", "scc_plan", "settle_scc"]

#: Bump, with ``ABI_VERSION`` in ``_native.c``, when the C ABI (plan
#: layout, run contract, ladder, profile or force-phase entry points)
#: changes.
NATIVE_VERSION = "10"

LOAD_ERROR: Optional[str] = None

_UNSET = object()
_mod = _UNSET

_NO_LIMIT = (1 << 63) - 1

#: Words of one process at rest (``P_FIELDS`` in _native.c): its clock,
#: ``blocked``, ``block_start``, ``finished``, ``chunk_pos``, ``chunk_sub``
_PROCESS_WORDS = 6

# Slot order of one SCC's ``SccStats`` deltas (``S_*`` in _native.c)
_SCC_FIELDS = ("reads", "read_misses", "writes", "write_misses", "upgrades",
               "invalidations_sent", "invalidations_received",
               "interventions", "writebacks", "evictions",
               "coherence_read_misses", "bank_conflict_cycles",
               "bus_wait_cycles", "write_buffer_stall_cycles")

# Slot order of the probe counters (``M_*`` in _native.c), by the names
# ``InstrumentationProbe`` counts them under
_METRIC_FIELDS = ("bus_transactions", "bus_busy_cycles", "bus_wait_cycles",
                  "bank_accesses", "bank_conflict_events",
                  "write_buffer_stalls", "write_buffer_stall_cycles",
                  "cache_hits", "cache_misses", "invalidations")

# What a generator may yield, as ``_native.setup`` takes it: the chunk
# class and its data attribute, the type ``array('q', data)`` is built
# with, the error a misused lock, barrier or queue raises, and per event
# class its opcode and the attributes its operands are read from.
_VOCABULARY = (PackedChunk, "data", array, SyncProtocolError, tuple(
    (cls, op, tuple(field.name for field in fields(cls)))
    for cls, op in ((Read, OP_READ), (Write, OP_WRITE),
                    (Compute, OP_COMPUTE), (Ifetch, OP_IFETCH),
                    (LockAcquire, OP_LOCK_ACQ), (LockRelease, OP_LOCK_REL),
                    (Barrier, OP_BARRIER), (TaskEnqueue, OP_ENQUEUE),
                    (TaskDequeue, OP_DEQUEUE))))


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
           f"{NATIVE_VERSION}-").encode() + source
    return hashlib.sha256(tag).hexdigest()[:16]


def _compile_on_demand() -> Optional[object]:
    """Build ``_native.c`` into the cache dir and import it."""
    global LOAD_ERROR
    src = _source_path()
    if not src.is_file():
        LOAD_ERROR = f"source missing: {src}"
        return None
    source = src.read_bytes()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    cache = _cache_dir()
    so_path = cache / f"_native_{_build_key(source)}{suffix}"
    if not so_path.is_file():
        cc = _compiler()
        include = sysconfig.get_paths()["include"]
        tmp = so_path.with_suffix(so_path.suffix
                                  + f".tmp{os.getpid()}")
        try:
            cache.mkdir(parents=True, exist_ok=True)
            result = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", f"-I{include}",
                 str(src), "-o", str(tmp)],
                capture_output=True, text=True, timeout=120)
            if result.returncode != 0:
                LOAD_ERROR = (f"compile failed ({cc}): "
                              f"{result.stderr.strip()[:500]}")
                return None
            os.replace(tmp, so_path)
        except (OSError, subprocess.SubprocessError) as exc:
            LOAD_ERROR = f"compile failed: {exc}"
            return None
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
    try:
        # The last name component must be ``_native`` so the loader finds
        # ``PyInit__native`` in the shared object.
        spec = importlib.util.spec_from_file_location(
            "repro.trace.engine._native", so_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception as exc:
        LOAD_ERROR = f"import of built extension failed: {exc}"
        return None


def load(rebuild: bool = False):
    """The native extension module, or ``None`` (reason in LOAD_ERROR)."""
    global _mod, LOAD_ERROR
    if _mod is not _UNSET and not rebuild:
        return _mod
    _mod = None
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        LOAD_ERROR = "disabled via REPRO_NATIVE=0"
        return None
    stale = None
    try:
        from . import _native  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        stale = _stale_reason(_native)
        if stale is None:
            _mod = _native
            LOAD_ERROR = None
            return _mod
    # No in-place build, or a stale one: build this tree's source.
    _mod = _compile_on_demand()
    if _mod is not None:
        LOAD_ERROR = _stale_reason(_mod)
        if LOAD_ERROR is not None:
            _mod = None
    elif stale is not None:
        LOAD_ERROR = f"{stale}; {LOAD_ERROR}"
    return _mod


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


def ladder_available() -> bool:
    """Whether the fused-ladder entry points can run: they ship in the
    same extension, so exactly when it loaded (:func:`_stale_reason`
    is the one check)."""
    return load() is not None


def scc_plan(scc, bus, lost_lines) -> tuple:
    """One SCC's entry of a ``setup`` / ``ladder_setup`` plan
    (``scc_setup`` in ``_native.c``): the storage C works on in place
    (tag/state arrays, the clock of the ``bus`` it sits on), the
    containers it reads into words and rewrites at release, and -- last
    -- a zeroed row of ``_SCC_FIELDS`` deltas for :func:`settle_scc`.
    ``lost_lines`` is the SCC's set, or ``None`` where no other SCC
    exists to take a line away."""
    tags = scc.array
    return (tags._states, tags._tags, tags._index_mask, tags._tag_shift,
            scc._inflight, scc.interconnect._write_buffers, lost_lines,
            bus._clock, array("q", bytes(8 * len(_SCC_FIELDS))))


def settle_scc(scc, entry: tuple) -> None:
    """Add what C counted for ``scc`` -- the row of its :func:`scc_plan`
    ``entry`` -- to the python counters the reference loop bumps as it
    goes."""
    deltas = dict(zip(_SCC_FIELDS, entry[-1]))
    stats = scc.stats
    for name, delta in deltas.items():
        if delta:
            setattr(stats, name, getattr(stats, name) + delta)
    # C inlines the interconnect's bank and write-buffer arbitration, so
    # its own two counters are settled here too.
    interconnect = scc.interconnect
    interconnect.conflict_cycles += deltas["bank_conflict_cycles"]
    interconnect.write_stall_cycles += deltas["write_buffer_stall_cycles"]


def run(interleaver, max_cycles: Optional[int]) -> int:
    """Drop-in replacement for ``TimingInterleaver._run_generic`` on
    machines the interleaver found native-eligible.

    One call into C (``_native.run``) runs the whole simulation; the
    generators' bodies are the only python executed in it.  This frame
    flattens the interleaver's state at rest into the plan and, whatever
    happened, rebuilds it from what C leaves: the processes, ``_heap``,
    ``_locks``, ``_barriers``, every counter the reference loop bumps.
    """
    native = load()
    self = interleaver
    heap = self._heap
    system = self.system
    config = system.config
    n_cl = config.clusters
    cl_scc = [cluster.scc for cluster in system.clusters]
    cl_icn = [scc.interconnect for scc in cl_scc]
    proc_cluster = self._proc_cluster
    procs = system._procs
    nproc = config.total_processors
    n_banks = cl_icn[0].num_banks
    for scc in cl_scc:
        if scc._inflight:   # C keeps one fill per index: the invariant's
            scc.check_fill_tracking()
    model_icache = config.model_icache
    ic_objs = None
    iline_shift = 0
    if model_icache:
        iline = config.icache_line_size
        if iline > 0 and iline & (iline - 1) == 0:
            iline_shift = iline.bit_length() - 1
            caches = [system.clusters[proc_cluster[p]]
                      .icaches[config.port_of(p)]
                      for p in range(nproc)]
            if all(ic.array._index_mask for ic in caches):
                ic_objs = caches
    if not model_icache:
        icache_mode = 0
    elif ic_objs is not None:
        icache_mode = 1
    else:
        icache_mode = 2

    scal = array("q", [
        config.line_offset_bits,
        n_banks,
        cl_icn[0].bank_cycle_time,
        1 if config.stall_on_writes else 0,
        cl_icn[0].write_buffer_depth,
        icache_mode,
        iline_shift,
        _NO_LIMIT if max_cycles is None else max_cycles,
        config.bus_occupancy,
        config.upgrade_bus_occupancy,
        config.memory_latency,
        1 if config.protocol == "mesi" else 0,
        self.lock_overhead,
        self.barrier_overhead,
    ])
    per_cluster = tuple(scc_plan(scc, system.bus, scc._lost_lines)
                        for scc in cl_scc)
    if icache_mode == 1:
        ic_tuple = tuple(
            (ic.array._states, ic.array._tags, ic.array._index_mask,
             ic.array._tag_shift)
            for ic in ic_objs)
    else:
        ic_tuple = ()
    d_refs, d_busy, d_stall, d_icfetch, d_sync = (
        array("q", bytes(8 * nproc)) for _ in range(5))
    d_finish = array("q", [-1] * nproc)
    misc = array("q", [0, self._seq, 0])    # events, _seq, latest finish
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
    # What C tells the probe (eligibility made it NULL_PROBE or the
    # standard one): counters, and one growable bin buffer per timeline
    # -- the bus trio, (cluster, bank) conflicts, per-cluster write
    # buffers, per-processor busy, memory, then sync -- each a bytearray
    # of int64 bins C resizes in place.  No probe, no buffers: C's sites
    # test one NULL pointer.
    probe = system.probe
    metrics = None
    if probe is not NULL_PROBE:
        m_counts = array("q", bytes(8 * len(_METRIC_FIELDS)))
        m_series = tuple(bytearray() for _ in range(
            3 + n_cl * n_banks + n_cl + 3 * nproc))
        metrics = (probe.registry.bin_width, m_counts, m_series)
    plan = (
        per_cluster,
        tuple(icn._bank_free for icn in cl_icn),
        (system.ifetch, self._queues),
        scal,
        ic_tuple,
        (d_refs, d_busy, d_stall, d_finish, d_icfetch, d_sync, misc),
        (heap, array("q", proc_cluster),
         [process and process.generator for process in processes],
         pstate, chunks, responses),
        ([(lock_id, -1 if lock.holder is None else lock.holder,
           list(lock.waiters)) for lock_id, lock in self._locks.items()],
         [(barrier_id, -1, waiting)
          for barrier_id, waiting in self._barriers.items()]),
        _VOCABULARY,
        metrics,
    )
    ctx = native.setup(plan)
    try:
        native.run(ctx)
    finally:
        # Whatever the run left -- finished, deadlocked or aborted --
        # comes back as the reference loop would have left it.
        locks, barriers = native.release(ctx)
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
        self.engine_returns = dict.fromkeys(("refill", "sync", "object"), 0)
        self.events_processed += misc[0]
        for scc, entry in zip(cl_scc, per_cluster):
            settle_scc(scc, entry)
        for p in range(nproc):
            refs = d_refs[p]
            busy = d_busy[p]
            if refs or busy:
                pstats = procs[p].stats
                pstats.references += refs
                pstats.instructions += busy
                pstats.busy_cycles += busy
                pstats.memory_stall_cycles += d_stall[p]
            procs[p].stats.sync_stall_cycles += d_sync[p]
            if d_finish[p] > procs[p].finish_time:
                procs[p].finish_time = d_finish[p]
            if d_icfetch[p]:
                ic_objs[p].fetch_lines += d_icfetch[p]
        if metrics is not None:
            series = (array("q", buffer) for buffer in m_series)

            def take(count):    # the next ``count`` series of the layout
                return list(islice(series, count))

            probe.absorb(
                dict(zip(_METRIC_FIELDS, m_counts)),
                bus=take(3),
                bank_conflict=[take(n_banks) for _ in range(n_cl)],
                write_buffer=take(n_cl),
                busy=take(nproc),
                memory=take(nproc),
                sync=take(nproc))
    return misc[2]
