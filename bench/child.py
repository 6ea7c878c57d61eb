"""One fresh process: set one workload up, run passes, report samples.

``bench/run.py`` starts this several times per run -- a set-up that
includes the interpreter's imports and the native engine's load can only
be sampled in a process that has not done them yet.  The last line of
standard output is one JSON object; everything else is commentary.

Times are host seconds scaled to the reference host speed (see
``bench/calibrate.py``); the raw seconds travel alongside.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_PROCESS_START = time.perf_counter()

import _bootstrap  # noqa: E402  (bench/ is sys.path[0] for a script)
from _bootstrap import ROOT_DIR, SCRATCH_ROOT  # noqa: E402

_bootstrap.pin_environment()

from bench.calibrate import Calibration  # noqa: E402
from bench.layers import ROOT  # noqa: E402

CALIBRATION = Calibration()
_OPENING_SPIN_S = CALIBRATION.sample()  # before the imports: with the spin
#                                         after set-up, brackets ``setup_s``

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

HOUSEKEEPING_EVERY_S = 0.5
"""Passes shorter than this (warm fabric requests take milliseconds)
share one garbage collection and one calibration spin per interval."""


class _Clock:
    """``with`` block around one timed region.  Before it: collect
    garbage, so no pass pays for its predecessor's, and take a calibration
    spin.  Around it: the root span, when tracing."""

    def __init__(self, recorder):
        self._recorder = recorder
        self._span = None
        self.begin = self.end = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.begin

    def __enter__(self) -> "_Clock":
        if CALIBRATION.last_sample_age() > HOUSEKEEPING_EVERY_S:
            gc.collect()
            CALIBRATION.sample()
        if self._recorder is not None:
            self._span = self._recorder.span(ROOT)
            self._span.__enter__()
        self.begin = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        if self._span is not None:
            self._span.__exit__(*exc_info)


class _Stopwatch:
    """``ctx.timed``: a fresh :class:`_Clock` per pass, kept for reading."""

    def __init__(self, recorder):
        self._recorder = recorder
        self.last = None

    def __call__(self) -> _Clock:
        self.last = _Clock(self._recorder)
        return self.last


def _warm_up() -> None:
    """One tiny live simulation: imports every simulator module and loads
    (first run in a checkout: compiles) the native engine, so that cost
    lands in ``setup_s`` and not in the first timed pass."""
    from repro.core.config import SystemConfig
    from repro.simulation import run_simulation
    from repro.workloads.barnes_hut import BarnesHut
    run_simulation(SystemConfig.paper_parallel(2, 1024),
                   BarnesHut(n_bodies=16, steps=1))


def _write_expected(workload, ctx) -> int:
    workload.setup(ctx)
    payload = workload.write_expected(ctx)
    workload.teardown()
    path = workload.expected_path()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"wrote": str(path.relative_to(ROOT_DIR))}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="also dump the raw spans to this JSON file")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore")     # known-bad-row and deprecation notes

    from repro.trace.engine import backend_info
    from bench.workloads import WORKLOADS, Context, mismatches

    workload = WORKLOADS[args.workload]
    backend = backend_info()
    if backend["resolved"] != "native" or not backend.get("native_ladder"):
        # Numbers from another engine tier are those of another program.
        print(f"bench: replay engine resolved to {backend['resolved']!r}, "
              f"not native ({backend.get('native_error')})",
              file=sys.stderr)
        return 3

    recorder = None
    if args.traced:
        from bench.spans import Recorder
        recorder = Recorder()

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                    dir=SCRATCH_ROOT))
    stopwatch = _Stopwatch(recorder)
    ctx = Context(scratch=scratch, seed=args.seed, smoke=args.smoke,
                  timed=stopwatch)
    try:
        if args.write_expected:
            return _write_expected(workload, ctx)

        _warm_up()
        workload.setup(ctx)
        setup_end = time.perf_counter()
        CALIBRATION.sample()

        expected = None if args.smoke else workload.expected()
        if expected is None and not args.smoke:
            print(f"bench: no expected outputs for {workload.name}; run "
                  f"bench/run.py --write-expected", file=sys.stderr)
            return 4

        if recorder is not None:
            recorder.install()
        clocks, events, extras = [], [], {}
        ops = failed = 0
        first = None
        loop_start = time.perf_counter()
        try:
            while True:
                outcome = workload.one_pass(ctx)
                clocks.append(stopwatch.last)
                events.append(outcome.events)
                extras = outcome.extras
                if first is None:
                    first = outcome
                attempted = (outcome.ops if outcome.ops is not None
                             else len(outcome.observed) + outcome.raised)
                wrong = workload.failed_ops(
                    outcome, expected if expected is not None
                    else first.observed)
                # Simulated outputs must repeat exactly within a run.
                wrong = max(wrong,
                            mismatches(outcome.observed, first.observed))
                ops += attempted
                failed += min(attempted, wrong)
                if args.smoke:
                    if len(clocks) >= workload.smoke_passes:
                        break
                    continue
                elapsed = time.perf_counter() - loop_start
                typical = statistics.median(c.wall for c in clocks)
                if elapsed + typical / 2 >= args.seconds:
                    break
        finally:
            if recorder is not None:
                recorder.uninstall()
            workload.teardown()
        CALIBRATION.sample()            # closes the last pass's bracket

        scales = [CALIBRATION.scale(c.begin, c.end) for c in clocks]
        raw_walls = [c.wall for c in clocks]
        walls = [wall * scale for wall, scale in zip(raw_walls, scales)]
        setup_raw = setup_end - _PROCESS_START - _OPENING_SPIN_S
        report = {
            "workload": workload.name,
            "traced": bool(args.traced),
            "setup_s": setup_raw * CALIBRATION.scale(_PROCESS_START,
                                                     setup_end),
            "setup_raw_s": setup_raw,
            "walls": walls,
            "raw_walls": raw_walls,
            "host_speed": statistics.median(scales),
            "events": events,
            "ops": ops,
            "failed": failed,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "backend": backend,
            "extras": extras,
        }
        if recorder is None:
            report["extras"] = dict(extras, **workload.summarise(walls))
        else:
            from bench.layers import layer_metrics
            from bench.spans import tree_problems
            spans = recorder.spans
            report["layers"] = layer_metrics(spans, report["host_speed"])
            report["span_count"] = len(spans)
            report["span_problems"] = tree_problems(spans, ROOT)[:20]
            rooted = sum(span.duration for span in spans
                         if span.name == ROOT and span.parent is None)
            report["root_coverage"] = rooted / sum(raw_walls)
            if args.spans_out:
                index = {id(span): number
                         for number, span in enumerate(spans)}
                Path(args.spans_out).write_text(json.dumps([
                    {"name": span.name, "start": span.start,
                     "end": span.end, "thread": span.thread,
                     "parent": index.get(id(span.parent)),
                     "attrs": span.attrs} for span in spans]))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
