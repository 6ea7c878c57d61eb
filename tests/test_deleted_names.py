"""Deleted names stay deleted, from the code and from the prose.

Each entry is something the code no longer has; a mention of it in
``src/`` (docstrings and comments included), ``setup.py``, the CI
workflow and its scripts, README, DESIGN or the verify skill describes a
system that does not exist.  A PR that deletes a name appends it here.
``bench/`` is frozen between benchmark re-recordings and is not scanned.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DELETED = (
    # engines and engine tiers retired before this list existed
    "_run_fast", "_fused_pass", "numpy_backend", "_CHUNKED_EVENTS",
    "l_miss", "inflight_pop",
    # a native run returns to python once, so there is nothing to count
    "engine_returns",
    # one root (REPRO_CACHE_DIR) locates every artifact, and one
    # in-memory cache stands in for either file cache
    "REPRO_TRACE_DIR", "REPRO_SESSION_DIR", "REPRO_REPRO_DIR",
    "MemoryResultCache", "MemoryTraceCache",
    # one trace representation: workloads yield packed words, and the
    # trace cache's tapes are the one file format.  ``SpecApp.burst``,
    # ``stream.replay`` and Cholesky's ``_stream`` are gone too but stay
    # off this list: ``burst`` is a live prefix (``burst_chunk``),
    # ``replay`` a live word and ``_stream`` a private name any module may
    # take again.
    "read_span", "write_span", "read_record", "write_record",
    "tracefile", "SCCT", "save_trace", "load_trace", "TraceFormatError",
    "trace.stream", "materialize", "coalesce_compute", "event_histogram",
    "reference_count", "SyncNamespace",
    # a sweep does not choose its engine or its ladder (``$REPRO_ENGINE``
    # and the loader do), and fabric knobs nothing set are constants
    "no_fused", "ladder_available", "backend_requested", "unit_points",
    "heartbeat_interval", "idle_wait",
    # a native run refills the icaches itself: no callback, and no mode
    # for the icaches it could not address
    "call_ifetch", "icache_mode",
    # Barnes-Hut's processes walk each tree in C: no plan is relocated
    # there
    "force_words",
    # the extension is required: no switch refuses it, no build skips
    # it, no API asks whether it loaded, and no python twin of a
    # workload kernel ships (the oracles live in tests/oracles/)
    "REPRO_NATIVE", "REPRO_BUILD_NATIVE", "native_available",
    "native_unavailable_reason", "available_backends",
    "no_native_extension", "optional_build_ext", "_plans_kept",
    "_ForcePlan",
    # the session journal is an append-only log: nothing reads a
    # per-entry digest, so none is written
    "_stats_digest",
    # a sweep point carries no probe (``python -m repro profile`` is the
    # one way to look at a point's bus and banks), so no switch turns
    # one off and no timeline resolution is chosen for it
    "no_instrument", "INSTRUMENT_BIN_WIDTH",
    # a row profile holds only what ``predict_point`` reads: no
    # per-process histograms or write misses, and a sharing summary of
    # exposure alone (``shared_lines`` is gone too but stays off: it is
    # a generic local name)
    "process_histograms", "process_histogram", "proc_write_misses",
    "writer_sets", "interprocess_reuses",
    # the fabric store's tapes are read and written through
    # ``store.traces``
    "get_streams", "put_streams",
    # any probe keeps a run on the reference loop, whose callbacks are
    # the probe's one implementation: C bins nothing, and no probe is
    # told a run's totals afterwards
    "Metrics", "metrics_setup", "mx_bus_acquire", "mx_bank_access",
    "mx_write_buffer", "mx_proc_busy", "mx_reference", "series_add_span",
    "_METRIC_FIELDS", "SPAN_LAST_BIN",
    # the probe holds its series as attributes keyed by hardware, and
    # its readers count into plain dicts: no store of named series, no
    # prefix lookup, no per-series rebin, no name parsed back to a
    # cluster id
    "MetricsRegistry", "counter_group", "rebin_all", "_CLUSTER_TIMELINE",
    # a fused ladder pass is one call into C, its sync opcodes included,
    # and its rungs are planned and settled as a run's machine is
    "STATUS_SYNC", "STATUS_EXHAUSTED", "_flush_ladder", "scc_plan",
    "settle_scc",
    # what no user path reached: the race detector and the observer's
    # sync callbacks (``on_access`` is the observer's one method), a
    # second paper ladder beside ``PAPER_LADDER``, an unused formatter,
    # and the service's NDJSON routes -- ``GET /jobs/<id>/stream`` and
    # ``POST /sweep`` are gone, a job's progress is the ``events``
    # long-poll alone (the two patterns below)
    "racecheck", "RaceDetector", "on_acquire", "on_release",
    "on_barrier_arrive", "on_barrier_release", "on_enqueue", "on_dequeue",
    "paper_scc_ladder", "scaled_ladder", "_PAPER_SCC_SIZES_KB",
    "format_ratio", "_stream_events",
)

PATTERN = re.compile("|".join([
    *(rf"\b{re.escape(name)}\b" for name in DELETED),
    # the knob that chose between chunks and event objects
    r"\bpacked=False\b",
    # the per-request engine and ladder choice (``\b`` cannot anchor a
    # leading ``--``)
    r"(?<![\w-])--(?:backend|no-fused|no-instrument)\b",
    r"\b(?:spec|SweepSpec)\.(?:backend|fused)\b",
    # the interleaver's drain(); asyncio's ``writer.drain()`` is live
    r"(?<![\w.])drain\(\)",
    r"(?i:python\s+owns\s+the\s+generators)",
    r"/jobs/<id>/stream\b", r"\bPOST\s+/sweep\b", r"(?i:\bndjson\b)",
]))


def scanned_files():
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield ROOT / "setup.py"
    yield ROOT / "src" / "repro" / "trace" / "engine" / "_native.c"
    yield ROOT / ".github" / "workflows" / "ci.yml"
    yield from sorted((ROOT / ".github" / "scripts").glob("*.py"))
    for name in ("README.md", "DESIGN.md",
                 ".claude/skills/verify/SKILL.md"):
        yield ROOT / name


def test_no_deleted_name_is_mentioned():
    mentions = []
    for path in scanned_files():
        text = path.read_text()
        for match in PATTERN.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            mentions.append(f"{path.relative_to(ROOT)}:{line}: "
                            f"{match.group()}")
    assert mentions == []


def test_the_pattern_sees_each_name():
    for name in DELETED:
        assert PATTERN.search(f"see `{name}` here"), name
        assert not PATTERN.search(f"see `x{name}x` here"), name
    assert PATTERN.search("call drain() once")
    assert not PATTERN.search("await writer.drain()")
    assert PATTERN.search("Python owns the\n  generators")
    assert PATTERN.search("run it with packed=False")
    for flag in ("--backend", "--no-fused", "--no-instrument"):
        assert PATTERN.search(f"sweep mp3d {flag} native"), flag
        assert PATTERN.search(f"sweep mp3d {flag}=native"), flag
        assert not PATTERN.search(f"sweep mp3d {flag}s"), flag
        assert not PATTERN.search(f"sweep mp3d x{flag}"), flag
    assert not PATTERN.search("python -m repro optimize --budget-fused 64")
    for name in ("spec.backend", "spec.fused", "SweepSpec.backend"):
        assert PATTERN.search(f"reads `{name}` here"), name
        assert not PATTERN.search(f"reads `{name}_ladder` here"), name
        assert not PATTERN.search(f"reads `row_{name}` here"), name
    assert not PATTERN.search("see repro.trace.streams here")
    # the build cache's variable is live
    assert not PATTERN.search("REPRO_NATIVE_CACHE=/tmp/x python -m repro")
    assert PATTERN.search("REPRO_NATIVE=0 python -m repro")
    assert PATTERN.search("GET /jobs/<id>/stream until done")
    assert PATTERN.search("`POST\n/sweep` (submit + stream)")
    assert PATTERN.search("streaming NDJSON progress")
    assert not PATTERN.search("GET /jobs/<id>/streams")
    assert not PATTERN.search("python -m repro sweep mp3d")
