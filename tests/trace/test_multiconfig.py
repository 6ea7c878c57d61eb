"""Tests for the fused multi-configuration replay engine.

The engine's contract is *bit-identical* statistics to one
:class:`~repro.trace.record.ReplayApplication` run per configuration, so
every equivalence test here compares full ``SystemStats.as_dict()``
payloads (every SCC counter, every processor counter, the icache), not
just a summary fingerprint.
"""

import hashlib
import json
from array import array

import pytest

from repro.core.config import SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.simulation import run_simulation
from repro.trace.engine import native_available
from repro.trace.interleave import (DeadlockError, SyncProtocolError,
                                    fused_replay_ok)
from repro.trace.multiconfig import (_fused_pass_native,
                                     fused_ladder_results,
                                     fused_ladder_supported)
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WRITE, OP_WRITE_SPAN)
from repro.trace.record import ReplayApplication, StreamRecorder
from repro.verify.tapes import generate_tape
from repro.workloads.multiprog import MultiprogrammingWorkload

SIZES = (512, 1024, 2048, 4096)


def uni_config(scc_size=2048, **extra):
    kwargs = dict(clusters=1, processors_per_cluster=1, scc_size=scc_size)
    kwargs.update(extra)
    return SystemConfig(**kwargs)


def ladder(**extra):
    return [uni_config(size, **extra) for size in SIZES]


def record_multiprog(config):
    recorder = StreamRecorder(MultiprogrammingWorkload(
        instructions_per_app=4000, quantum_instructions=1500, scale=8))
    run_simulation(config, recorder)
    assert recorder.streams is not None
    return recorder.streams


def synthetic_tape():
    """Every opcode the engine handles, including live write windows."""
    data = array("q")
    data.extend([OP_LOCK_ACQ, 7])
    for rep in range(60):
        data.extend([OP_READ_SPAN, rep * 64, 1024, 16])
        data.extend([OP_WRITE, (rep * 136) % 4096])
        data.extend([OP_WRITE_SPAN, rep * 32, 512, 32])
        data.extend([OP_COMPUTE, 3])
        data.extend([OP_IFETCH, rep * 128 % 2048, 6])
        data.extend([OP_ENQUEUE, 5, rep])
        data.extend([OP_DEQUEUE, 5])
        data.extend([OP_READ, (rep * 264) % 8192])
        data.extend([OP_BARRIER, 1, 1])
    data.extend([OP_LOCK_REL, 7])
    return {0: data}


def assert_bit_identical(configs, streams):
    results = fused_ladder_results(configs, streams)
    for config, fused in zip(configs, results):
        replay = ReplayApplication(streams, name="test")
        per_size = run_simulation(config, replay)
        assert fused.stats.as_dict() == per_size.stats.as_dict(), (
            f"stats diverge at scc_size={config.scc_size}")
        assert fused.events_processed == per_size.events_processed
        assert fused.config == config


# ----------------------------------------------------------------------
# Applicability gate
# ----------------------------------------------------------------------

class TestGate:
    def test_accepts_uniprocessor_ladder(self):
        assert fused_ladder_supported(ladder())

    def test_accepts_mesi_and_icache_variants(self):
        assert fused_ladder_supported(ladder(protocol="mesi"))
        assert fused_ladder_supported(
            ladder(model_icache=True, icache_size=2048))

    def test_rejects_single_config(self):
        assert not fused_ladder_supported([uni_config()])

    def test_rejects_duplicate_sizes(self):
        assert not fused_ladder_supported(
            [uni_config(2048), uni_config(2048)])

    def test_rejects_multiprocessor(self):
        configs = [SystemConfig(clusters=4, processors_per_cluster=2,
                                scc_size=size) for size in SIZES]
        assert not fused_ladder_supported(configs)

    @pytest.mark.parametrize("extra", [
        dict(associativity=2),
        dict(cluster_organization="private"),
        dict(inter_cluster="directory"),
        dict(stall_on_writes=True),
        dict(bank_cycle_time=2),
    ])
    def test_rejects_unsupported_machines(self, extra):
        assert not fused_ladder_supported(ladder(**extra))
        assert not fused_replay_ok(uni_config(**extra))

    def test_rejects_mixed_ladders(self):
        mixed = ladder()
        mixed[1] = uni_config(1024, protocol="mesi")
        assert not fused_ladder_supported(mixed)

    def test_engine_refuses_ungated_ladder(self):
        with pytest.raises(ValueError, match="fused"):
            fused_ladder_results([uni_config()], {0: array("q")})

    def test_engine_refuses_multiprocess_streams(self):
        streams = {0: array("q"), 1: array("q")}
        with pytest.raises(ValueError, match="processes"):
            fused_ladder_results(ladder(), streams)


# ----------------------------------------------------------------------
# Bit-exact equivalence with per-size replay
# ----------------------------------------------------------------------

class TestEquivalence:
    def test_multiprogramming_msi(self):
        configs = [uni_config(size, model_icache=True, icache_size=2048)
                   for size in SIZES]
        assert_bit_identical(configs, record_multiprog(configs[0]))

    def test_multiprogramming_mesi(self):
        configs = [uni_config(size, model_icache=True, icache_size=2048,
                              protocol="mesi") for size in SIZES]
        assert_bit_identical(configs, record_multiprog(configs[0]))

    def test_multiprogramming_line32(self):
        configs = [uni_config(size, model_icache=True, icache_size=2048,
                              line_size=32) for size in SIZES]
        assert_bit_identical(configs, record_multiprog(configs[0]))

    def test_synthetic_all_opcodes_no_icache(self):
        assert_bit_identical(ladder(), synthetic_tape())

    def test_synthetic_all_opcodes_with_icache(self):
        configs = ladder(model_icache=True, icache_size=1024)
        assert_bit_identical(configs, synthetic_tape())

    def test_input_order_preserved(self):
        streams = synthetic_tape()
        configs = ladder()
        shuffled = [configs[2], configs[0], configs[3], configs[1]]
        results = fused_ladder_results(shuffled, streams)
        assert [r.config.scc_size for r in results] == [
            c.scc_size for c in shuffled]

    def test_empty_stream(self):
        results = fused_ladder_results(ladder(), {0: array("q")})
        for result in results:
            assert result.stats.execution_time == 0
            assert result.events_processed == 0


# ----------------------------------------------------------------------
# Error-path parity
# ----------------------------------------------------------------------

class TestErrors:
    def test_barrier_needing_peers_deadlocks(self):
        with pytest.raises(DeadlockError):
            fused_ladder_results(ladder(),
                                 {0: array("q", [OP_BARRIER, 1, 2])})

    def test_barrier_count_zero_is_protocol_error(self):
        with pytest.raises(SyncProtocolError):
            fused_ladder_results(ladder(),
                                 {0: array("q", [OP_BARRIER, 1, 0])})

    def test_release_unheld_lock_is_protocol_error(self):
        with pytest.raises(SyncProtocolError):
            fused_ladder_results(ladder(),
                                 {0: array("q", [OP_LOCK_REL, 3])})

    def test_reacquiring_held_lock_deadlocks(self):
        tape = array("q", [OP_LOCK_ACQ, 1, OP_LOCK_ACQ, 1])
        with pytest.raises(DeadlockError):
            fused_ladder_results(ladder(), {0: tape})

    def test_unknown_opcode(self):
        with pytest.raises(ValueError, match="opcode"):
            fused_ladder_results(ladder(), {0: array("q", [99, 0])})


# ----------------------------------------------------------------------
# Compiled ladder error parity with per-size reference replay
# ----------------------------------------------------------------------

@pytest.mark.skipif(not native_available(),
                    reason="native ladder unavailable")
class TestNativeLadderErrorParity:
    """The C ladder must fail exactly like per-size replay on the
    reference loop (what ``backend="python"`` runs) -- same exception
    type, raised before any partial results escape."""

    def both(self, streams):
        outcomes = {}
        for backend in ("python", "native"):
            try:
                fused_ladder_results(ladder(), streams, backend=backend)
            except Exception as exc:
                outcomes[backend] = (type(exc), str(exc))
            else:
                outcomes[backend] = None
        return outcomes

    @pytest.mark.parametrize("tape, exc_type", [
        ([OP_BARRIER, 1, 2], DeadlockError),
        ([OP_BARRIER, 1, 0], SyncProtocolError),
        ([OP_LOCK_REL, 3], SyncProtocolError),
        ([OP_LOCK_ACQ, 1, OP_LOCK_ACQ, 1], DeadlockError),
        ([99, 0], ValueError),
        ([OP_READ, 0, OP_READ_SPAN, 0, 64, 0], ValueError),
        ([OP_WRITE_SPAN, 0, 64, -16], ValueError),
    ])
    def test_error_tapes_agree(self, tape, exc_type):
        outcomes = self.both({0: array("q", tape)})
        assert outcomes["python"] is not None
        assert outcomes["native"] == outcomes["python"]
        assert outcomes["native"][0] is exc_type

    def test_error_after_real_work_agrees(self):
        """A mid-tape failure after thousands of good events must not
        leak partial per-rung results from the C pass."""
        tape = array("q", synthetic_tape()[0])
        tape.extend([OP_LOCK_REL, 3])
        outcomes = self.both({0: tape})
        assert outcomes["python"] is not None
        assert outcomes["native"] == outcomes["python"]

    def test_synthetic_tape_bit_identical_on_native(self):
        streams = synthetic_tape()
        python = fused_ladder_results(ladder(), streams,
                                      backend="python")
        native = fused_ladder_results(ladder(), streams,
                                      backend="native")
        for py_r, nat_r in zip(python, native):
            assert nat_r.stats.as_dict() == py_r.stats.as_dict()
            assert nat_r.events_processed == py_r.events_processed


# ----------------------------------------------------------------------
# What a pass leaves in each rung's containers
# ----------------------------------------------------------------------

def rung_scc(system):
    return system.clusters[0].scc


def end_state(system, time, events=None):
    """Everything a pass leaves behind on one rung (heap layout of a
    write buffer is not part of the contract, its multiset is)."""
    scc = rung_scc(system)
    state = [sorted(scc._inflight.items()),
             [sorted(bank) for bank in scc.interconnect._write_buffers],
             sorted(scc.array.resident_lines()),
             system.stats(time).as_dict()]
    return state if events is None else [events] + state


def fused_pass(configs, data):
    systems = [MultiprocessorSystem(config) for config in configs]
    events, times = _fused_pass_native(configs, systems, data)
    return systems, events, times


@pytest.mark.skipif(not native_available(),
                    reason="native ladder unavailable")
class TestRungState:
    """A rung's fills and write buffers are C words between
    ``ladder_setup`` and ``ladder_release``; the python containers are
    written once, at release, and must read as they always did."""

    #: sha256 over ``end_state`` of every rung, recorded on the ladder
    #: that worked on the dicts and lists in place (the parent of the
    #: change that gave the rungs words): 226 tapes x 3 rungs, all but
    #: one leaving fills and buffered writes behind.
    PINNED = ("77d8aff9fcf41874ce15c5e98b0f9d70"
              "e06d0aea5c40ea1c07f0724c62fd404b")

    def test_end_states_are_the_ones_recorded_before_the_words(self):
        digest = hashlib.sha256()
        eligible = 0
        for number in range(1700):
            tape = generate_tape(("ladder-state", number))
            config = tape.config()
            rungs = [config.with_updates(scc_size=config.scc_size << k)
                     for k in range(3)]
            if not fused_ladder_supported(rungs):
                continue
            eligible += 1
            systems, events, times = fused_pass(rungs, tape.streams[0])
            for system, time in zip(systems, times):
                system.check_invariants()
                digest.update(json.dumps(end_state(system, time, events),
                                         sort_keys=True).encode())
        assert eligible == 226
        assert digest.hexdigest() == self.PINNED

    @pytest.mark.parametrize("spoil, error", [
        (lambda rung: setattr(rung_scc(rung), "_inflight", []), TypeError),
        (lambda rung: setattr(
            rung_scc(rung).interconnect, "_write_buffers",
            tuple(rung_scc(rung).interconnect._write_buffers)), TypeError),
        (lambda rung: rung_scc(rung).interconnect._write_buffers
         .__setitem__(2, ()), TypeError),
        (lambda rung: rung_scc(rung).interconnect._write_buffers.pop(),
         ValueError),
        # a pass cannot begin mid-machine: nothing could tell it the
        # live windows and skew these entries come with
        (lambda rung: rung_scc(rung)._inflight.update({0: 100}),
         ValueError),
        (lambda rung: rung_scc(rung).interconnect._write_buffers[1]
         .append(50), ValueError),
        # the rung's bus is worked on in place, as BUS_* words
        (lambda rung: setattr(rung.bus, "_clock", array("q", [0, 0])),
         ValueError),
    ], ids=["fills-not-a-dict", "buffers-not-a-list", "bank-not-a-list",
            "a-bank-short", "fill-in-flight", "write-buffered",
            "bus-clock-short"])
    def test_setup_refuses_a_rung_it_cannot_own(self, spoil, error):
        configs = ladder()
        systems = [MultiprocessorSystem(config) for config in configs]
        spoil(systems[1])
        scc = rung_scc(systems[1])
        before = (repr(scc._inflight),
                  repr(scc.interconnect._write_buffers))
        with pytest.raises(error):
            _fused_pass_native(configs, systems, synthetic_tape()[0])
        assert (repr(scc._inflight),
                repr(scc.interconnect._write_buffers)) == before
        for system in systems:      # nothing ran, nothing was written
            assert not list(rung_scc(system).array.resident_lines())
            assert system.bus.transactions == 0

    def test_a_pass_that_raises_mid_tape_still_writes_its_state(self):
        """``ladder_release`` runs in a ``finally``: the rungs get the
        state of the events that were executed, as an aborted ``run``
        leaves its machine."""
        configs = ladder(write_buffer_depth=2)
        good = array("q", [OP_WRITE, 0, OP_WRITE, 1024, OP_WRITE_SPAN,
                           2048, 64, 16, OP_READ, 4096])
        systems, events, times = fused_pass(configs, good)
        expected = [end_state(system, time)[:3]
                    for system, time in zip(systems, times)]
        assert all(fills and any(buffers)
                   for fills, buffers, _ in expected)
        bad = good + array("q", [OP_READ_SPAN, 0, 64, 0])
        aborted = [MultiprocessorSystem(config) for config in configs]
        with pytest.raises(ValueError, match="stride"):
            _fused_pass_native(configs, aborted, bad)
        assert [end_state(system, 0)[:3] for system in aborted] == expected
