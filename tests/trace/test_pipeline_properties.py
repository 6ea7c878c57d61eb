"""Metamorphic and end-to-end properties of the trace pipeline."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.config import KB, SystemConfig
from repro.core.system import MultiprocessorSystem
from repro.trace.events import Compute, Read, Write
from repro.trace.interleave import TimingInterleaver
from repro.trace.packed import encode_events
from repro.trace.record import ReplayApplication, TraceCache

EVENTS = st.lists(st.one_of(
    st.builds(Compute, st.integers(0, 50)),
    st.builds(Read, st.integers(0, 4000).map(lambda x: x * 8)),
    st.builds(Write, st.integers(0, 4000).map(lambda x: x * 8))),
    min_size=1, max_size=150)


CONFIG = SystemConfig(clusters=2, processors_per_cluster=2, scc_size=1 * KB)


def run_streams(streams):
    """Simulate one stream per processor of ``CONFIG`` (each an iterable
    of event objects, or a generator that yields chunks)."""
    system = MultiprocessorSystem(CONFIG)
    interleaver = TimingInterleaver(system)
    for proc, events in enumerate(streams):
        interleaver.add_process(proc, iter(events))
    time = interleaver.run()
    return time, system.stats(time)


def coalesce_computes(events):
    """``events`` with each run of adjacent ``Compute``s merged into one,
    and a run that adds up to zero cycles dropped."""
    merged, pending = [], 0
    for event in events:
        if type(event) is Compute:
            pending += event.cycles
            continue
        if pending:
            merged.append(Compute(pending))
            pending = 0
        merged.append(event)
    if pending:
        merged.append(Compute(pending))
    return merged


COMPUTE_ONLY = st.lists(st.builds(Compute, st.integers(0, 50)),
                        min_size=1, max_size=100)


class TestCoalescingIsTimingNeutral:
    @given(EVENTS, COMPUTE_ONLY)
    @settings(max_examples=60, deadline=None)
    def test_merging_compute_events_changes_nothing(self, a, b):
        """Coalescing adjacent Compute events is a pure trace
        compression: execution time and every cache counter agree.

        The property is stated with a single memory-using process: two
        processes whose misses reach the bus in the *same cycle* may
        legitimately be granted in either order (arbitration ties), and
        event boundaries are a valid tie-breaker, so multi-process
        streams are only equal modulo tie order.
        """
        plain_time, plain_stats = run_streams(
            [a, b, [Compute(1)], [Compute(1)]])
        squeezed_time, squeezed_stats = run_streams(
            [coalesce_computes(a), coalesce_computes(b),
             [Compute(1)], [Compute(1)]])
        assert squeezed_time == plain_time
        assert (squeezed_stats.total_scc.as_dict()
                == plain_stats.total_scc.as_dict())


class TestTraceFileRoundtripPreservesSimulation:
    @given(EVENTS, EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_saved_and_reloaded_traces_simulate_identically(self, a, b):
        """Streams stored as a tape by the trace cache, read back and
        replayed as one chunk per process simulate exactly as the event
        objects they were encoded from."""
        streams = [a, b, [Compute(1)], [Compute(1)]]
        with tempfile.TemporaryDirectory() as directory:
            cache = TraceCache(Path(directory))
            cache.put("tape", {proc: encode_events(events)
                               for proc, events in enumerate(streams)})
            reloaded = cache.get("tape")
        replay = ReplayApplication(reloaded).processes(CONFIG)
        direct_time, direct_stats = run_streams(streams)
        replay_time, replay_stats = run_streams(
            [replay[proc] for proc in sorted(replay)])
        assert replay_time == direct_time
        assert (replay_stats.total_scc.as_dict()
                == direct_stats.total_scc.as_dict())


class TestComputeOnlyWorkloadsAreExact:
    @given(st.lists(st.lists(st.integers(0, 100), min_size=1,
                             max_size=20),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_execution_time_is_the_longest_chain(self, chains):
        streams = [[Compute(c) for c in chain] for chain in chains]
        time, stats = run_streams(streams + [[Compute(0)]] *
                                  (4 - len(streams)))
        assert time == max(sum(chain) for chain in chains)
        assert stats.total_scc.accesses == 0
