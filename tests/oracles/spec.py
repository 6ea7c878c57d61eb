"""A SPEC application's multiprogramming quantum in python: the reference
``spec_burst`` is held to.

:func:`burst_packed` appends the next ``n`` instructions of a
:class:`~repro.workloads.spec.SpecApp` to a list of packed words -- draw
for draw the words ``SpecApp.burst_chunk`` gets from C, leaving the same
state behind (cursors, the recently-used hot lines, the uniform batch and
its index, the RNG).  The helpers work on the application's own state and
take new batches through its ``_refill``, as the kernel does.
"""

from __future__ import annotations

from typing import List

from repro.trace.packed import OP_IFETCH, OP_READ, OP_WRITE, PackedChunk
from repro.workloads.spec import _BASIC_BLOCK, _BATCH, SpecApp


def draw(app: SpecApp) -> float:
    if app._uniform_index >= _BATCH:
        app._refill()
    value = app._uniform[app._uniform_index]
    app._uniform_index += 1
    return float(value)


def hot_addr(app: SpecApp) -> int:
    """Reference into the primary working set with an LRU-stack-like
    temporal profile: most references re-touch recently used lines, the
    rest sample the hot set uniformly (and become recent)."""
    recent = app._recent
    if draw(app) < app.profile.locality:
        offset = recent[int(draw(app) * app._recent_fill)]
    else:
        offset = int(draw(app) * app.hot_bytes) & ~15
        if app._recent_fill < len(recent):
            recent[app._recent_fill] = offset
            app._recent_fill += 1
        else:
            recent[int(draw(app) * len(recent))] = offset
    return app.heap_base + offset + (app._uniform_index % 2) * 8


def scan_addr(app: SpecApp) -> int:
    """Sequential walk through the cold arrays (streaming reuse-free
    references; one compulsory miss per line at any cache size)."""
    addr = app.scan_base + app._scan_cursor
    app._scan_cursor = (app._scan_cursor + 16) % app.scan_bytes
    return addr


def stack_addr(app: SpecApp) -> int:
    return app.stack_base + (int(draw(app) * app.stack_bytes) & ~7)


def next_code_addr(app: SpecApp) -> int:
    """Walk loop bodies; occasionally branch to a new function."""
    block_bytes = _BASIC_BLOCK * 4
    if app._loop_remaining > 0:
        app._code_cursor += block_bytes
        if app._code_cursor >= app._loop_start + app._loop_length:
            app._code_cursor = app._loop_start
            app._loop_remaining -= 1
    else:
        # New loop at a random spot in the code segment.
        app._loop_start = (int(draw(app) * app.code_bytes)
                           // block_bytes * block_bytes)
        app._loop_length = block_bytes * (2 + int(draw(app) * 14))
        app._loop_remaining = 2 + int(draw(app) * 30)
        app._code_cursor = app._loop_start
    return app.code_base + (app._code_cursor % app.code_bytes)


def burst_packed(app: SpecApp, n_instructions: int, buf: List[int]) -> None:
    """Append ``app``'s next ``n_instructions`` instructions to ``buf`` in
    the packed encoding: an ``Ifetch`` per basic block, then the data
    references the block carries."""
    profile = app.profile
    stack_fraction = profile.stack_fraction
    scan_cut = stack_fraction + profile.scan_fraction
    remaining = n_instructions
    while remaining > 0:
        block = min(_BASIC_BLOCK, remaining)
        buf += (OP_IFETCH, next_code_addr(app), block)
        remaining -= block
        app.instructions_executed += block
        expected = profile.refs_per_instruction * block
        count = int(expected)
        if draw(app) < expected - count:
            count += 1
        for _ in range(count):
            locality = draw(app)
            if locality < stack_fraction:
                addr = stack_addr(app)
            elif locality < scan_cut:
                addr = scan_addr(app)
            else:
                addr = hot_addr(app)
            buf += (OP_WRITE if draw(app) < profile.write_fraction
                    else OP_READ, addr)


def burst_chunk(app: SpecApp, n_instructions: int) -> PackedChunk:
    """What ``SpecApp.burst_chunk`` returns, written by
    :func:`burst_packed`."""
    buf: List[int] = []
    burst_packed(app, n_instructions, buf)
    return PackedChunk(buf)
