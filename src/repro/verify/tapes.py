"""Seeded adversarial tape generation.

A *tape* is a machine configuration plus one packed event stream per
processor -- the exact input shape the packed fast path and the fused
ladder consume.  The generator is deliberately hostile: it aliases a
handful of cache indexes across several tags (so fills, evictions, and
invalidations constantly collide), mixes every packed opcode including
lock-, barrier- and task-queue synchronization (multiprocessor tapes end
on a round of deliberate contention: a lock everyone wants at once,
polls of an empty queue, a barrier id reused), and samples machine
geometries across the whole supported envelope (1-8 processors over 1-4
clusters, MSI and MESI, direct-mapped and 2-way arrays, write buffering
on and off, optional instruction-cache modelling).

Generation is a pure function of the seed, so a tape never needs to be
stored to be reproduced -- but tapes also round-trip through JSON
(:func:`tape_to_json`) for the shrunk repros committed as regression
tests.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List

from ..core.config import SystemConfig
from ..trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                            OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                            OP_LOCK_REL, OP_READ, OP_READ_SPAN, OP_WIDTH,
                            OP_WRITE, OP_WRITE_SPAN, PackedChunk,
                            decode_events, event_count)

__all__ = ["TAPE_FORMAT_VERSION", "Tape", "TapeApplication",
           "chunk_cuts", "generate_tape", "tape_to_json",
           "tape_from_json"]

TAPE_FORMAT_VERSION = 1


@dataclass
class Tape:
    """One differential-test input: a machine and its event streams."""

    seed: str
    """Provenance only; replaying a tape never re-derives from it."""

    config_kwargs: Dict[str, object]
    streams: Dict[int, List[int]]
    """Packed ints per machine-global processor id."""

    def config(self) -> SystemConfig:
        return SystemConfig(**self.config_kwargs)

    def total_events(self) -> int:
        """Events across all streams (spans counted element-wise)."""
        return sum(event_count(s) for s in self.streams.values())

    def replaced(self, streams: Dict[int, List[int]]) -> "Tape":
        """The same machine driven by different streams (shrinking)."""
        return Tape(seed=self.seed, config_kwargs=dict(self.config_kwargs),
                    streams=streams)


_SYNC_OPS = (OP_LOCK_ACQ, OP_LOCK_REL, OP_BARRIER)


def chunk_cuts(stream: List[int], rng: random.Random) -> List[int]:
    """Sorted positions at which ``stream`` is cut into chunks.

    Every cut is an opcode boundary (a span is never split; nothing is
    cut after an opcode the encoding does not know).  Where the stream
    has them, the cuts include the boundaries immediately before and
    after one synchronization opcode and one between two adjacent
    computes; a repeated position, ``0`` or ``len(stream)`` makes an
    empty chunk.  About a quarter of the streams stay in one chunk.
    """
    if rng.random() < 0.25:
        return []
    starts = []
    i = 0
    while i < len(stream) and stream[i] in OP_WIDTH:
        starts.append(i)
        i += OP_WIDTH[stream[i]]
    if not starts:
        return []
    cuts = rng.sample(starts, k=min(len(starts), rng.randrange(3)))
    syncs = [i for i in starts if stream[i] in _SYNC_OPS]
    if syncs:
        at = rng.choice(syncs)
        cuts += [at, at + OP_WIDTH[stream[at]]]
    compute_runs = [i for before, i in zip(starts, starts[1:])
                    if stream[before] == stream[i] == OP_COMPUTE]
    if compute_runs:
        cuts.append(rng.choice(compute_runs))
    cuts.append(rng.choice(cuts + [0, len(stream)]))    # an empty chunk
    return sorted(cuts)


def _deliver(pieces) -> Iterator:
    for data, as_objects in pieces:
        if as_objects:
            yield from decode_events(data)
        else:
            yield PackedChunk(data)


class TapeApplication:
    """Adapter presenting a tape as a traced application: each stream is
    yielded as one or more pieces, identically to every execution path.
    Most pieces are a :class:`PackedChunk`; some arrive as the event
    objects they decode to.  The cuts (:func:`chunk_cuts`) and that
    choice are a function of the tape alone -- its seed, the processor
    id and the stream -- so the hand-offs between an engine's scheduler
    and the generators (chunk refill, a scheduled process with no chunk
    installed) are fuzzed, and replays and shrinks stay deterministic."""

    def __init__(self, tape: Tape):
        self.tape = tape

    def processes(self, config: SystemConfig) -> Dict[int, Iterator]:
        processes = {}
        for pid, stream in sorted(self.tape.streams.items()):
            rng = random.Random(f"{self.tape.seed}/chunks/{pid}")
            edges = [0, *chunk_cuts(stream, rng), len(stream)]
            processes[pid] = _deliver([
                (array("q", stream[lo:hi]), rng.random() < 0.2)
                for lo, hi in zip(edges, edges[1:])])
        return processes


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------

def _sample_config(rng: random.Random) -> Dict[str, object]:
    clusters = rng.choice((1, 1, 2, 3, 4))
    ppc = rng.choice((1, 1, 2))
    if clusters * ppc > 8:
        ppc = 1
    associativity = 1 if rng.random() < 0.8 else 2
    # Small arrays on purpose: 16-128 lines keeps every tag/index in
    # play, so a few dozen events already exercise eviction and
    # aliasing.  num_banks = 4*ppc <= 8 <= lines always holds.
    lines = rng.choice((16, 32, 64, 128))
    kwargs: Dict[str, object] = dict(
        clusters=clusters,
        processors_per_cluster=ppc,
        scc_size=lines * 16,
        associativity=associativity,
        protocol=rng.choice(("msi", "mesi")),
        line_size=16,
        memory_latency=rng.randrange(20, 121),
        bus_occupancy=rng.randrange(1, 9),
        upgrade_bus_occupancy=rng.randrange(1, 5),
        write_buffer_depth=rng.choice((1, 2, 4, 8)),
        stall_on_writes=rng.random() < 0.1,
        bank_cycle_time=1 if rng.random() < 0.8 else 2,
        lock_overhead=rng.randrange(1, 17),
        barrier_overhead=rng.randrange(1, 33),
    )
    if rng.random() < 0.2:
        kwargs.update(model_icache=True, icache_size=256,
                      icache_line_size=32,
                      icache_miss_latency=rng.randrange(20, 101))
    return kwargs


def _address_pools(rng: random.Random,
                   config: SystemConfig) -> Dict[int, List[int]]:
    """Shared (pool key -1) and per-processor private byte addresses.

    Addresses are built as ``line = tag * num_sets + index`` over a few
    indexes and tags, so distinct lines deliberately collide on the same
    array slot -- the aliasing that flushes out stale fill tracking and
    victim-handling bugs.
    """
    num_sets = config.scc_lines // config.associativity
    indexes = rng.sample(range(num_sets), k=min(4, num_sets))
    line_size = config.line_size
    shared = [(tag * num_sets + index) * line_size + offset
              for tag in range(4)
              for index in indexes
              for offset in (0, 8)]
    pools = {-1: shared}
    for proc in range(config.total_processors):
        pools[proc] = [((8 + proc) * num_sets + index) * line_size
                       for index in indexes]
    return pools


def _emit_body(rng: random.Random, buf: List[int], proc: int,
               pools: Dict[int, List[int]], config: SystemConfig) -> None:
    def pick_addr() -> int:
        pool = pools[-1] if rng.random() < 0.75 else pools[proc]
        return rng.choice(pool)

    for _ in range(rng.randrange(5, 31)):
        r = rng.random()
        if r < 0.30:
            buf.extend((OP_READ, pick_addr()))
        elif r < 0.55:
            buf.extend((OP_WRITE, pick_addr()))
        elif r < 0.63:
            buf.extend((OP_COMPUTE, rng.randrange(0, 40)))
        elif r < 0.71:
            op = OP_READ_SPAN if rng.random() < 0.5 else OP_WRITE_SPAN
            base = pick_addr() & ~(config.line_size - 1)
            buf.extend((op, base, rng.randrange(2, 7) * config.line_size,
                        config.line_size))
        elif r < 0.78 and config.model_icache:
            buf.extend((OP_IFETCH,
                        rng.randrange(16) * config.icache_line_size,
                        rng.randrange(1, 8)))
        elif r < 0.90:
            # A lock-scoped critical section; locks never span a body,
            # so generated tapes cannot deadlock.
            lock_id = rng.randrange(3)
            buf.extend((OP_LOCK_ACQ, lock_id))
            for _ in range(rng.randrange(1, 4)):
                op = OP_WRITE if rng.random() < 0.5 else OP_READ
                buf.extend((op, rng.choice(pools[-1])))
            buf.extend((OP_LOCK_REL, lock_id))
        else:
            queue_id = rng.randrange(2)
            if rng.random() < 0.5:
                buf.extend((OP_ENQUEUE, queue_id, rng.randrange(100)))
            else:
                buf.extend((OP_DEQUEUE, queue_id))


def _emit_contention(rng: random.Random, streams: Dict[int, List[int]],
                     pools: Dict[int, List[int]]) -> None:
    """One round of what the bodies meet only by luck: every processor
    leaves the last barrier on one clock and goes for one lock, holding
    it across a miss, so waiters queue (two deep and more from three
    processors on) and the lock is handed down the queue; a poll of a
    queue nobody fills; two barriers on a used id, after unequal waits."""
    procs = len(streams)
    lock_id = rng.randrange(3)
    for buf in streams.values():
        buf.extend((OP_COMPUTE, rng.randrange(4),
                    OP_LOCK_ACQ, lock_id,
                    OP_WRITE, rng.choice(pools[-1]),
                    OP_COMPUTE, rng.randrange(60),
                    OP_LOCK_REL, lock_id,
                    OP_DEQUEUE, 2))
        for _ in range(2):
            buf.extend((OP_COMPUTE, rng.randrange(200),
                        OP_BARRIER, 0, procs))


def generate_tape(seed) -> Tape:
    """The tape for ``seed`` (any value with a stable ``str``)."""
    rng = random.Random(str(seed))
    config_kwargs = _sample_config(rng)
    config = SystemConfig(**config_kwargs)
    pools = _address_pools(rng, config)
    procs = config.total_processors
    streams: Dict[int, List[int]] = {proc: [] for proc in range(procs)}
    for barrier_id in range(rng.randrange(1, 4)):
        for proc in range(procs):
            _emit_body(rng, streams[proc], proc, pools, config)
        # Every round ends at a global barrier: all processors arrive,
        # so multi-processor tapes stay deadlock-free by construction.
        for proc in range(procs):
            streams[proc].extend((OP_BARRIER, barrier_id, procs))
    if procs > 1:
        # (a stream of its own: every tape up to here is what it was)
        _emit_contention(random.Random(f"{seed}/contention"), streams, pools)
    return Tape(seed=str(seed), config_kwargs=config_kwargs,
                streams=streams)


# ----------------------------------------------------------------------
# Persistence (shrunk repros)
# ----------------------------------------------------------------------

def tape_to_json(tape: Tape) -> str:
    return json.dumps({
        "version": TAPE_FORMAT_VERSION,
        "seed": tape.seed,
        "config": tape.config_kwargs,
        "streams": {str(proc): list(stream)
                    for proc, stream in sorted(tape.streams.items())},
    }, sort_keys=True, indent=1)


def tape_from_json(text: str) -> Tape:
    payload = json.loads(text)
    if payload.get("version") != TAPE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported tape format {payload.get('version')!r}")
    return Tape(seed=str(payload["seed"]),
                config_kwargs=dict(payload["config"]),
                streams={int(proc): list(stream)
                         for proc, stream in payload["streams"].items()})
