"""Tests for the SPEC92-like synthetic reference generators."""

from array import array

import pytest

from repro.core.config import KB, SystemConfig
from repro.experiments.spec import PROFILES
from repro.simulation import run_simulation
from repro.trace.events import Ifetch, Read, Write
from repro.trace.packed import decode_events
from repro.trace.record import StreamRecorder
from repro.workloads.spec import (SPEC92_PROFILES, SpecApp, SpecProfile,
                                  spec92_workload)

from ..oracles import spec as oracle


def first_profile():
    return SPEC92_PROFILES[0]


def burst_events(app, n_instructions):
    """The next ``n_instructions`` of ``app``'s stream, as event objects."""
    return list(decode_events(app.burst_chunk(n_instructions).data))


class TestProfiles:
    def test_eight_applications(self):
        assert len(SPEC92_PROFILES) == 8
        names = {profile.name for profile in SPEC92_PROFILES}
        assert names == {"sc", "espresso", "eqntott", "xlisp", "compress",
                         "gcc", "spice", "wave5"}

    def test_fractions_are_sane(self):
        for profile in SPEC92_PROFILES:
            assert 0 < profile.refs_per_instruction < 1
            assert 0 <= profile.write_fraction <= 1
            assert (profile.stack_fraction + profile.scan_fraction) < 1
            assert profile.hot_bytes < profile.data_bytes


class TestSpecApp:
    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            SpecApp(0, first_profile(), scale=0)

    def test_burst_executes_requested_instructions(self):
        app = SpecApp(0, first_profile(), scale=8)
        fetched = sum(e.count for e in burst_events(app, 1000)
                      if isinstance(e, Ifetch))
        assert fetched == app.instructions_executed == 1000
        app.burst_chunk(500)
        assert app.instructions_executed == 1500

    def test_burst_mixes_fetches_and_data(self):
        app = SpecApp(0, first_profile(), scale=8)
        events = burst_events(app, 2000)
        kinds = {type(e) for e in events}
        assert Ifetch in kinds
        assert Read in kinds
        assert Write in kinds

    def test_data_reference_density_matches_profile(self):
        profile = first_profile()
        app = SpecApp(0, profile, scale=8)
        events = burst_events(app, 20_000)
        refs = sum(1 for e in events if isinstance(e, (Read, Write)))
        expected = profile.refs_per_instruction * 20_000
        assert abs(refs - expected) < expected * 0.15

    def test_streams_are_deterministic(self):
        first = SpecApp(3, first_profile(), seed=9).burst_chunk(3000)
        second = SpecApp(3, first_profile(), seed=9).burst_chunk(3000)
        assert list(first.data) == list(second.data)

    def test_stream_is_resumable(self):
        whole = burst_events(SpecApp(1, first_profile(), seed=5), 4000)
        split_app = SpecApp(1, first_profile(), seed=5)
        split = (burst_events(split_app, 1000)
                 + burst_events(split_app, 3000))
        # Same instruction count and same data references; fetch events
        # may split differently at the quantum boundary.
        def data(events):
            return [e for e in events if isinstance(e, (Read, Write))]
        assert data(whole) == data(split)

    def test_address_spaces_are_disjoint(self):
        apps = spec92_workload(scale=8)
        spans = []
        for app in apps:
            addrs = [e.addr for e in burst_events(app, 2000)
                     if isinstance(e, (Read, Write, Ifetch))]
            spans.append((min(addrs), max(addrs)))
        spans.sort()
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi < lo

    def test_scan_walks_sequentially(self):
        profile = SpecProfile("scanner", code_bytes=4096, data_bytes=65536,
                              hot_bytes=1024, scan_fraction=0.9,
                              write_fraction=0.0,
                              refs_per_instruction=0.5,
                              stack_fraction=0.0)
        app = SpecApp(0, profile, scale=1)
        addrs = [e.addr for e in burst_events(app, 2000)
                 if isinstance(e, Read) and app.scan_base <= e.addr
                 < app.scan_base + app.scan_bytes]
        diffs = [b - a for a, b in zip(addrs, addrs[1:])]
        # Overwhelmingly forward strides of 16 bytes.
        forward = sum(1 for d in diffs if d == 16)
        assert forward > len(diffs) * 0.75

    def test_scale_shrinks_working_sets(self):
        big = SpecApp(0, first_profile(), scale=1)
        small = SpecApp(0, first_profile(), scale=8)
        assert small.hot_bytes <= big.hot_bytes // 8 + 128
        assert small.code_bytes <= big.code_bytes // 8 + 256


# ----------------------------------------------------------------------
# The native ``spec_burst`` against its reference, ``burst_packed`` in
# tests/oracles/spec.py: the same words and the same state after
# ----------------------------------------------------------------------

#: Back to back, so draws cross batch boundaries and quanta end mid-block.
QUANTA = (1, 7, 8, 9, 20_000, 50_000)


def stream_state(app):
    """Everything a quantum leaves for the next: every cursor, the recent
    hot lines, the uniform batch's index and the instruction count."""
    return (app._code_cursor, app._loop_remaining, app._loop_start,
            app._loop_length, app._scan_cursor, list(app._recent),
            app._recent_fill, app._uniform_index,
            app.instructions_executed)


def assert_kernel_matches(app_id, scale):
    """``burst_chunk`` (the extension's kernel) quantum by quantum
    against the oracle's ``burst_packed`` on two twins of one app."""
    kernel, packed = (SpecApp(app_id, SPEC92_PROFILES[app_id], scale=scale)
                      for _ in range(2))
    for quantum in QUANTA:
        chunk = kernel.burst_chunk(quantum)
        assert type(chunk.data) is array
        words = []
        oracle.burst_packed(packed, quantum, words)
        assert chunk.data.tolist() == words, quantum
        assert stream_state(kernel) == stream_state(packed), quantum
    # The batch the kernel left is the application's own: the RNG's next
    # draws are where the reference leaves them.
    assert (kernel._uniform == packed._uniform).all()
    assert (kernel._rng.uniform(size=16) == packed._rng.uniform(size=16)).all()


def multiprogramming_point(procs, scc):
    """A quick-profile multiprogramming point's statistics and tape."""
    profile = PROFILES["quick"]
    config = SystemConfig.paper_multiprogramming(
        procs, scc // profile.ladder_scale)
    recorder = StreamRecorder(profile.multiprogramming())
    result = run_simulation(config, recorder)
    return (result.stats.as_dict(),
            {proc: tape.tobytes()
             for proc, tape in recorder.streams.items()})


class TestSpecKernel:
    @pytest.mark.parametrize("scale", [1, 8])
    @pytest.mark.parametrize("app_id", range(len(SPEC92_PROFILES)),
                             ids=[p.name for p in SPEC92_PROFILES])
    def test_equals_burst_packed_and_burst(self, app_id, scale):
        assert_kernel_matches(app_id, scale)

    def test_a_quantum_of_nothing_writes_nothing(self):
        app = SpecApp(3, SPEC92_PROFILES[3])
        before = stream_state(app)
        assert len(app.burst_chunk(0)) == 0
        assert stream_state(app) == before

    def test_quick_grid_tapes_and_stats_equal_without_it(self,
                                                         monkeypatch):
        """{1, 2, 4, 8}p x 8 KB/128 KB (paper sizes): byte-equal tapes
        and statistics from the kernel and from the oracle's
        ``burst_packed``."""
        points = [(procs, scc) for procs in (1, 2, 4, 8)
                  for scc in (8 * KB, 128 * KB)]
        written = {point: multiprogramming_point(*point) for point in points}
        monkeypatch.setattr(SpecApp, "burst_chunk", oracle.burst_chunk)
        for point in points:
            assert multiprogramming_point(*point) == written[point], point
