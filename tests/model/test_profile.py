"""Tests for the tape profiler (repro.model.profile).

The profile has two kernels -- the python functions of the module (the
reference) and ``row_profile`` in the native extension, which
``build_row_profile`` runs.  The ``build_row_profile``-level tests
therefore run twice: as written (the C kernel) and again pinned to the
reference (``_native_kernel`` patched to ``_reference_kernel``);
``TestKernelParity`` compares the two payloads byte for byte.
"""

import json
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.experiments.runner import row_tape
from repro.experiments.spec import PAPER_LADDER, PROFILES, SweepSpec
from repro.model import predict_point
from repro.model import profile as profile_module
from repro.model.profile import (MODEL_VERSION, ProfileCache, RowProfile,
                                 bucket_floor, build_row_profile,
                                 coherence_ladder, extract_process,
                                 merge_refs)
from repro.trace.analysis import data_lines
from repro.trace.packed import (OP_BARRIER, OP_COMPUTE, OP_DEQUEUE,
                                OP_ENQUEUE, OP_IFETCH, OP_LOCK_ACQ,
                                OP_LOCK_REL, OP_READ, OP_READ_SPAN,
                                OP_WRITE, OP_WRITE_SPAN, encode_events)
from repro.trace.events import Read, Write

KERNELS = [
    pytest.param(profile_module._reference_kernel, id="reference"),
    pytest.param(profile_module._native_kernel, id="native"),
]


def payload_of(kernel, streams, config, tracked):
    return json.dumps(
        profile_module._row_payload(kernel, streams, config, tracked),
        sort_keys=True)


class TestBucketFloor:
    def test_exact_below_threshold(self):
        for distance in (0, 1, 17, 127):
            assert bucket_floor(distance) == distance

    @given(st.integers(0, 1 << 40))
    @settings(max_examples=200, deadline=None)
    def test_floor_properties(self, distance):
        floor = bucket_floor(distance)
        assert floor <= distance
        assert bucket_floor(floor) == floor          # idempotent
        if distance >= 128:
            # Relative bucket error is bounded by one sub-bucket step.
            octave = distance.bit_length() - 1
            assert distance - floor < max(1, (1 << octave) // 8)

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, a, b):
        if a <= b:
            assert bucket_floor(a) <= bucket_floor(b)


class TestExtractProcess:
    def test_refs_and_summary(self):
        data = array("q", [
            OP_READ, 0,
            OP_WRITE, 16,
            OP_READ_SPAN, 32, 32, 16,     # lines 2, 3
            OP_WRITE_SPAN, 0, 16, 16,     # line 0
            OP_COMPUTE, 7,
            OP_IFETCH, 0, 4,
            OP_LOCK_ACQ, 1,
            OP_BARRIER, 0, 1,
        ])
        refs, summary = extract_process(data, line_shift=4)
        assert refs == [(0, 0), (1, 1), (0, 2), (0, 3), (1, 0)]
        assert summary["reads"] == 3
        assert summary["writes"] == 2
        assert summary["compute_cycles"] == 7
        assert summary["instructions"] == 4
        assert summary["lock_ops"] == 1
        assert summary["barriers"] == 1
        assert summary["icache_misses"] == 0      # no icache config

    def test_icache_misses_match_instruction_cache(self):
        """The profiler's inline icache model must agree with the
        simulator's InstructionCache on the same fetch sequence."""
        from repro.core.icache import InstructionCache
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=1024, model_icache=True,
                              icache_size=512, icache_line_size=32)
        fetches = [(0, 4), (64, 8), (0, 4), (600, 16), (64, 8), (0, 2)]
        data = array("q")
        for addr, count in fetches:
            data.extend([OP_IFETCH, addr, count])
        reference = InstructionCache(config)
        for addr, count in fetches:
            reference.fetch(addr, count)
        _, summary = extract_process(data, config.line_offset_bits,
                                     icache_config=config)
        assert summary["icache_misses"] == reference.misses

    def test_rejects_unknown_opcode(self):
        with pytest.raises(ValueError):
            extract_process(array("q", [77]), 4)

    def test_span_events_are_the_elements_walked(self):
        """... as every engine counts them: an empty or negative size
        walks nothing, whatever its stride says."""
        data = array("q", [
            OP_READ_SPAN, 0, 40, 16,        # offsets 0, 16, 32
            OP_WRITE_SPAN, 64, 0, 0,
            OP_READ_SPAN, 64, -32, -16,
            OP_WRITE_SPAN, 64, -32, 16,
        ])
        refs, summary = extract_process(data, line_shift=4)
        assert refs == [(0, 0), (0, 1), (0, 2)]
        assert summary["events"] == 3
        assert data_lines(data) == [0, 1, 2]


HOSTILE_TAPES = [
    # (stream, the message every walker raises)
    pytest.param([OP_READ, 0, OP_READ_SPAN, 0, 32],
                 "truncated packed record at word 2", id="cut-span"),
    pytest.param([OP_COMPUTE, 1, OP_IFETCH, 0],
                 "truncated packed record at word 2", id="cut-ifetch"),
    pytest.param([OP_WRITE],
                 "truncated packed record at word 0", id="cut-write"),
    pytest.param([OP_READ, 0, OP_WRITE_SPAN, 0, 32, 0],
                 "non-positive span stride at 2", id="zero-stride"),
    pytest.param([OP_READ_SPAN, 0, 32, -16],
                 "non-positive span stride at 0", id="negative-stride"),
    pytest.param([OP_READ, 0, 12, 0],
                 "unknown packed opcode 12 at word 2", id="opcode-12"),
    pytest.param([0], "unknown packed opcode 0 at word 0", id="opcode-0"),
    pytest.param([-3, 1],
                 "unknown packed opcode -3 at word 0", id="opcode-minus-3"),
]


class TestHostileTapes:
    """A tape is read from disk: whatever it holds, the walkers raise
    ``ValueError`` in the words the timing engines use -- the python
    walker used to raise IndexError on a cut-off record and on a zero
    stride whatever ``range`` says, and to walk a negative stride into
    a negative event count."""

    @pytest.mark.parametrize("stream, message", HOSTILE_TAPES)
    def test_python_walkers(self, stream, message):
        for walk, data in ((extract_process, stream),
                           (extract_process, array("q", stream)),
                           (data_lines, array("q", stream))):
            with pytest.raises(ValueError) as caught:
                walk(data, 4)
            assert str(caught.value) == message

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("stream, message", HOSTILE_TAPES)
    def test_both_kernels_say_the_same(self, kernel, stream, message):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=256, model_icache=True,
                              icache_size=256, icache_line_size=32)
        good = [OP_READ, 0, OP_IFETCH, 0, 4]
        # Streams are walked in processor order, so the first bad
        # record of the lowest bad processor is the one reported.
        for streams in ({0: good, 1: stream},
                        {0: array("q", stream), 1: array("q", [99])}):
            with pytest.raises(ValueError) as caught:
                profile_module._row_payload(kernel, streams, config, (16,))
            assert str(caught.value) == message

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tape_errors_come_before_geometry_errors(self, kernel):
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=256)
        with pytest.raises(ValueError, match="unknown packed opcode"):
            profile_module._row_payload(kernel, {0: [99]}, config, (3,))
        with pytest.raises(ValueError, match="powers of two"):
            profile_module._row_payload(kernel, {0: [OP_READ, 0]}, config,
                                        (3,))

    def test_native_kernel_refuses_what_64_bits_cannot_hold(self):
        """Python's integers grow; the C kernel says so instead of
        wrapping (no recorded tape comes near either bound)."""
        config = SystemConfig(clusters=1, processors_per_cluster=1,
                              scc_size=256, model_icache=True,
                              icache_size=256, icache_line_size=32)
        top = (1 << 63) - 1
        for stream in ([OP_READ_SPAN, top - 8, 32, 16],
                       [OP_IFETCH, top - 8, 4],
                       [OP_COMPUTE, top, OP_COMPUTE, 1],
                       [OP_READ_SPAN, 0, 1 << 40, 1]):
            with pytest.raises(OverflowError):
                profile_module._row_payload(
                    profile_module._native_kernel, {0: stream}, config,
                    (16,))


class TestMergeRefs:
    def test_single_sequence_is_identity(self):
        refs = [(0, 1), (1, 2)]
        assert merge_refs([refs]) == refs

    @given(st.lists(st.lists(st.integers(0, 9), max_size=30),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_merge_preserves_each_input_as_subsequence(self, sequences):
        tagged = [[(index, item) for item in seq]
                  for index, seq in enumerate(sequences)]
        merged = merge_refs(tagged)
        assert len(merged) == sum(len(seq) for seq in sequences)
        for index, seq in enumerate(tagged):
            filtered = [item for item in merged if item[0] == index]
            assert filtered == seq

    def test_fair_interleave(self):
        # Equal-length streams alternate rather than concatenate.
        merged = merge_refs([["a1", "a2"], ["b1", "b2"]])
        assert merged.index("b1") < merged.index("a2")


def brute_force_ladder(refs, clusters, procs_per_cluster, line_counts):
    """Reference model: independent direct-mapped caches per (cluster,
    size) with cross-cluster write-invalidate, no inclusion shortcuts."""
    tags = {(c, lc): {} for c in range(clusters) for lc in line_counts}
    out = [{"read_misses": 0, "write_misses": 0, "invalidations": 0}
           for _ in line_counts]
    for proc, is_write, line in refs:
        cluster = proc // procs_per_cluster
        for rung, lines in enumerate(line_counts):
            slots = tags[(cluster, lines)]
            index = line % lines
            if slots.get(index) != line:
                slots[index] = line
                key = "write_misses" if is_write else "read_misses"
                out[rung][key] += 1
        if is_write:
            for other in range(clusters):
                if other == cluster:
                    continue
                for rung, lines in enumerate(line_counts):
                    slots = tags[(other, lines)]
                    index = line % lines
                    if slots.get(index) == line:
                        del slots[index]
                        out[rung]["invalidations"] += 1
    return out


class TestCoherenceLadder:
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                              st.integers(0, 63)),
                    min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, raw):
        refs = [(proc, int(is_write), line)
                for proc, is_write, line in raw]
        line_counts = (4, 8, 16)
        ladder = coherence_ladder(refs, clusters=2, procs_per_cluster=2,
                                  line_counts=line_counts)
        expected = brute_force_ladder(refs, 2, 2, line_counts)
        for entry, reference in zip(ladder, expected):
            assert entry["read_misses"] == reference["read_misses"]
            assert entry["write_misses"] == reference["write_misses"]
            assert entry["invalidations"] == reference["invalidations"]

    def test_per_process_counts_sum_to_totals(self):
        refs = [(proc, proc % 2, line)
                for proc in range(4) for line in range(10)]
        ladder = coherence_ladder(refs, clusters=4, procs_per_cluster=1,
                                  line_counts=(4, 16))
        for entry in ladder:
            assert (sum(entry["proc_read_misses"].values())
                    == entry["read_misses"])

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            coherence_ladder([], 1, 1, (3,))
        with pytest.raises(ValueError):
            coherence_ladder([], 1, 1, (8, 4))

    def test_tracking_nothing_is_an_empty_ladder(self):
        assert coherence_ladder([(0, 1, 5)], 1, 1, ()) == []


PARENT_PROFILE_FILE = (
    # what ProfileCache.put("two-cluster-row", ...) wrote for
    # TestRowProfile._profile's row before the row profile shed the
    # per-process histograms, the per-process write misses and three
    # sharing fields no prediction read
    "b756b076af0a037828e370bc.json",
    b'{"cluster_histograms": {"0": {"buckets": [[1, 0, 1]], '
    b'"cold_reads": 3, "cold_writes": 0}, "1": {"buckets": [], '
    b'"cold_reads": 2, "cold_writes": 1}}, "clusters": 2, "ladder": '
    b'[{"invalidations": 2, "proc_read_misses": {"0": 3, "1": 2}, '
    b'"proc_write_misses": {"1": 1}, "read_misses": 5, "write_misses": '
    b'1}, {"invalidations": 2, "proc_read_misses": {"0": 3, "1": 2}, '
    b'"proc_write_misses": {"1": 1}, "read_misses": 5, "write_misses": '
    b'1}], "line_size": 16, "model_version": 1, "per_process": {"0": '
    b'{"barriers": 0, "compute_cycles": 0, "events": 4, '
    b'"icache_misses": 0, "instructions": 0, "lock_ops": 0, "reads": 3, '
    b'"writes": 1}, "1": {"barriers": 0, "compute_cycles": 0, '
    b'"events": 3, "icache_misses": 0, "instructions": 0, "lock_ops": '
    b'0, "reads": 2, "writes": 1}}, "process_histograms": {"0": '
    b'{"buckets": [[1, 0, 1]], "cold_reads": 3, "cold_writes": 0}, '
    b'"1": {"buckets": [], "cold_reads": 2, "cold_writes": 1}}, '
    b'"procs_per_cluster": 1, "reads": 5, "sharing": {"exposure": '
    b'{"0": 0.5, "1": 0.5}, "interprocess_reuses": 3, "shared_lines": '
    b'2, "writer_sets": {"1": 2}}, "tracked_line_counts": [4, 16], '
    b'"writes": 2}')


class TestRowProfile:
    def _profile(self):
        config = SystemConfig(clusters=2, processors_per_cluster=1,
                              scc_size=256, line_size=16)
        streams = {
            0: encode_events([Read(0), Read(16), Write(0), Read(32)]),
            1: encode_events([Read(0), Write(16), Read(48)]),
        }
        return build_row_profile(streams, config, (4, 16))

    def test_roundtrips_through_json_dict(self):
        profile = self._profile()
        clone = RowProfile.from_dict(profile.as_dict())
        assert clone.as_dict() == profile.as_dict()
        assert clone.tracked_line_counts == (4, 16)
        assert clone.reads == 5 and clone.writes == 2

    def test_rejects_other_model_versions(self):
        payload = dict(self._profile().as_dict())
        payload["model_version"] = MODEL_VERSION + 1
        with pytest.raises(ValueError):
            RowProfile.from_dict(payload)

    def test_sharing_summary_sees_cross_cluster_writes(self):
        # Each cluster reads one line the other writes, once, beside
        # one remote write: 1 * 1 / (1 + 1).  Line 0 (written locally
        # by processor 0) adds nothing to cluster 0.
        assert self._profile().sharing == {
            "exposure": {"0": 0.5, "1": 0.5}}

    def test_one_cluster_is_exposed_to_nothing(self):
        config = SystemConfig(clusters=1, processors_per_cluster=2,
                              scc_size=256, line_size=16)
        streams = {0: encode_events([Read(0), Write(16)]),
                   1: encode_events([Write(0), Read(16)])}
        profile = build_row_profile(streams, config, (4,))
        assert profile.sharing == {"exposure": {"0": 0.0}}

    def test_a_profile_in_the_earlier_format_still_serves(self, tmp_path):
        """A cached payload with the fields this build no longer writes
        is a hit under the same key and prices every point as this
        build's profile does: MODEL_VERSION and the analytical point
        keys did not have to move."""
        name, data = PARENT_PROFILE_FILE
        (tmp_path / name).write_bytes(data)
        parent = ProfileCache(tmp_path).get("two-cluster-row")
        assert parent is not None
        assert "process_histograms" in parent.as_dict()
        ours = self._profile()
        assert set(ours.as_dict()) < set(parent.as_dict())
        for scc_size, ways in ((64, 1),     # tracked: 4 lines
                               (128, 1),    # untracked: 8 lines
                               (256, 2)):   # tracked size, 2-way
            config = SystemConfig(clusters=2, processors_per_cluster=1,
                                  scc_size=scc_size, line_size=16,
                                  associativity=ways)
            assert (predict_point(parent, config).as_dict()
                    == predict_point(ours, config).as_dict())

    def test_cache_roundtrip_and_corruption(self, tmp_path):
        cache = ProfileCache(tmp_path)
        profile = self._profile()
        assert cache.get("row") is None
        cache.put("row", profile)
        assert cache.get("row").as_dict() == profile.as_dict()
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        assert cache.get("row") is None         # discarded, not raised
        assert not list(tmp_path.glob("*.json"))


@pytest.fixture
def on_the_reference_kernel(monkeypatch):
    """``build_row_profile`` on the python kernel, for one test."""
    monkeypatch.setattr(profile_module, "_native_kernel",
                        profile_module._reference_kernel)


class TestRowProfileOnTheReferenceKernel(TestRowProfile):
    """The same tests, on the reference kernel."""

    @pytest.fixture(autouse=True)
    def _pin(self, on_the_reference_kernel):
        pass


def quick_row(benchmark, procs):
    """One quick-profile paper row as an analytical sweep records it:
    ``(streams, recording config, tracked line counts)``."""
    make = (SweepSpec.multiprogramming if benchmark == "multiprogramming"
            else lambda **knobs: SweepSpec.parallel(benchmark, **knobs))
    spec = make(profile=PROFILES["quick"], procs=(procs,),
                ladder=PAPER_LADDER, fidelity="analytical")
    configs = spec.configs()
    config0 = configs[(procs, min(spec.ladder))]
    streams, _ = row_tape(spec.profile.workload(benchmark), config0,
                          None, None)
    return streams, config0, sorted({config.scc_lines
                                     for config in configs.values()})


class TestKernelParity:
    """The C kernel's payload is the reference kernel's, byte for byte
    as ``ProfileCache`` writes it -- float exposure sums included."""

    @pytest.mark.parametrize("application, procs", [
        ("barnes-hut", 8), ("mp3d", 8), ("cholesky", 2),
        ("multiprogramming", 1)])
    def test_paper_rows(self, application, procs):
        streams, config, tracked = quick_row(application, procs)
        assert config.model_icache == (application == "multiprogramming")
        native_payload = payload_of(profile_module._native_kernel,
                                    streams, config, tracked)
        assert native_payload == payload_of(
            profile_module._reference_kernel, streams, config, tracked)
        # ... and it is what build_row_profile hands out here.
        assert json.dumps(
            build_row_profile(streams, config, tracked).as_dict(),
            sort_keys=True) == native_payload

    def test_edge_shapes(self):
        four = SystemConfig(clusters=2, processors_per_cluster=2,
                            scc_size=256, line_size=16)
        busy = [OP_READ, 0, OP_WRITE, 16, OP_READ_SPAN, 0, 64, 16,
                OP_LOCK_ACQ, 1, OP_WRITE, 0, OP_LOCK_REL, 1,
                OP_ENQUEUE, 0, 7, OP_DEQUEUE, 0, OP_BARRIER, 0, 2,
                OP_COMPUTE, 9, OP_IFETCH, 64, 12]
        rows = [
            ({}, four, (4, 16)),                          # no streams
            ({0: [], 1: array("q"), 3: []}, four, (4,)),  # empty ones
            ({2: busy}, four, (4, 8, 16)),                # one process
            ({0: busy, 1: busy[2:4] + busy[:2] + busy,
              2: tuple(busy), 3: array("q", busy)}, four, (16, 4, 16)),
            ({0: busy, 3: busy}, four, ()),               # no ladder
            # Processor ids no cluster owns are profiled on their own.
            ({-1: busy, 1: busy, 4: busy, 9: busy}, four, (4,)),
            ({0: busy}, SystemConfig(clusters=1, processors_per_cluster=1,
                                     scc_size=256, model_icache=True,
                                     icache_size=512, icache_line_size=32),
             (16,)),
        ]
        for streams, config, tracked in rows:
            reference = payload_of(profile_module._reference_kernel,
                                   streams, config, tracked)
            assert payload_of(profile_module._native_kernel, streams,
                              config, tracked) == reference
            assert json.loads(reference)["tracked_line_counts"] == \
                sorted(set(tracked))

    @given(st.lists(
        st.lists(st.tuples(st.sampled_from([OP_READ, OP_WRITE]),
                           st.integers(0, 40).map(lambda line: line * 16)),
                 max_size=60),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_sharing(self, per_proc):
        """Few lines, many processes: every reference is a reuse, most
        lines are shared, so the merge order, the writer sets and the
        exposure sums all carry weight."""
        config = SystemConfig(clusters=3, processors_per_cluster=2,
                              scc_size=256, line_size=16)
        streams = {proc: [word for ref in refs for word in ref]
                   for proc, refs in enumerate(per_proc)}
        assert payload_of(profile_module._native_kernel, streams, config,
                          (4, 8)) == \
            payload_of(profile_module._reference_kernel, streams, config,
                       (4, 8))
