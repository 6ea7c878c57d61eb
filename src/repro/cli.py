"""Command-line interface: ``python -m repro``.

Its subcommands cover the library's everyday uses without writing any
Python:

* ``simulate`` -- run one benchmark on one machine configuration and
  print the headline statistics;
* ``profile`` -- run one benchmark with cycle-level instrumentation,
  print utilization timelines, and optionally export a Chrome-trace
  JSON that opens in ``ui.perfetto.dev``;
* ``sweep`` -- run a benchmark over the paper's processor-cache grid
  (optionally on several worker processes) and print its speedup table
  and figure series;
* ``report`` -- regenerate a specific table or figure of the paper
  (cost-model ones instantly, simulation ones via the cached sweeps);
* ``model`` -- the :mod:`repro.model` analytical surrogate: predict a
  row's miss-ratio curve without simulation, or cross-validate the
  model against the simulator and gate on the aggregate error;
* ``bench`` -- the checkout's benchmark: ``bench/run.py`` with the
  arguments given, verbatim (see ``bench/README.md``);
* ``fuzz`` -- differentially verify the native engine and its fused
  ladder against the reference loop, and that against a functional
  oracle, over seeded adversarial tapes, shrinking any divergence to a
  minimal repro;
* ``serve`` -- run the sweep fabric: an HTTP broker with in-process
  workers sharing the node's result/trace cache as the artifact store;
* ``submit`` -- send a sweep to a running fabric, stream its per-point
  progress, and print the same tables ``sweep`` would;
* ``optimize`` -- seeded Pareto-frontier search over the cluster design
  space for the best cost/performance, instead of sweeping it;
* ``list`` -- name the benchmarks and the reports.

Examples::

    python -m repro simulate barnes-hut --procs 2 --scc 8KB
    python -m repro simulate mp3d --procs 4 --scc 4KB --organization private
    python -m repro profile mp3d --procs 8 --scc 4KB --trace-out mp3d.json
    python -m repro sweep cholesky --profile quick --jobs 4
    python -m repro sweep mp3d --profile quick --fidelity analytical
    python -m repro model mp3d --profile quick --procs 1
    python -m repro model --validate --profile quick
    python -m repro report table6
    python -m repro bench --repeats 5 --traced --probes --out BENCH.json
    python -m repro fuzz --seed 0 --budget 200
    python -m repro serve --port 8765 --workers 4
    python -m repro submit mp3d --url http://127.0.0.1:8765 --profile quick
    python -m repro optimize --profile quick --seed 0
    python -m repro list
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path
from typing import List, Optional

from .core.config import KB, SystemConfig
from .experiments.spec import KNOWN_BENCHMARKS

__all__ = ["main"]

BENCHMARKS = KNOWN_BENCHMARKS

SIMULATION_REPORTS = ("figure2", "table3", "table4", "figure3", "figure4",
                      "figure5", "figure6", "table6", "table7")
MODEL_REPORTS = ("table5", "costs")

BENCH_SCRIPT = Path(__file__).resolve().parents[2] / "bench" / "run.py"
"""The benchmark of the checkout this module runs from (``bench/`` sits
beside ``src/``; an installed copy of the package has none)."""


def parse_size(text: str) -> int:
    """Parse ``8KB``/``4mb``/``512B``/``4096`` into bytes.

    Suffixes are case-insensitive (``8KB``, ``8kb``, ``8Kb`` all work);
    plain integers are bytes.
    """
    cleaned = text.strip().upper().replace(" ", "")
    try:
        if cleaned.endswith("MB"):
            return int(cleaned[:-2]) * KB * KB
        if cleaned.endswith("KB"):
            return int(cleaned[:-2]) * KB
        if cleaned.endswith("B"):
            return int(cleaned[:-1])
        return int(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse size {text!r}; accepted forms: plain bytes "
            f"(4096), B (512B), KB (8KB), MB (1MB) -- any letter case"
        ) from None


def _int_at_least(minimum: int):
    """An argparse ``type`` taking integers no smaller than
    ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _parse_int_list(text: str):
    """Parse ``1,2,4`` into a tuple of ints."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r}; expected comma-separated integers "
            f"like 1,2,4") from None


def _parse_size_list(text: str):
    """Parse ``4KB,8KB,64KB`` into a tuple of byte counts."""
    return tuple(parse_size(part) for part in text.split(",")
                 if part.strip())


def _parse_str_list(text: str):
    """Parse ``mp3d,cholesky`` into a tuple of names."""
    return tuple(part.strip() for part in text.split(",")
                 if part.strip())


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-grid knobs shared by ``sweep`` and ``submit``; they
    feed :meth:`SweepSpec.from_cli_args`, the single CLI-to-spec path."""
    parser.add_argument("--profile", default=None,
                        choices=("quick", "paper"),
                        help="workload sizing (default: REPRO_PROFILE)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="simulate uncached grid points on N worker "
                             "processes (default: serial)")
    parser.add_argument("--procs", type=_parse_int_list, default=None,
                        metavar="LIST",
                        help="processors per cluster, comma-separated "
                             "(default: 1,2,4,8)")
    parser.add_argument("--ladder", type=_parse_size_list, default=None,
                        metavar="LIST",
                        help="paper SCC sizes, comma-separated, e.g. "
                             "4KB,8KB,16KB (default: the full ladder)")
    parser.add_argument("--fidelity", default="fused",
                        choices=("analytical", "fused", "full"),
                        help="resolution tier: analytical prices every "
                             "point from one recorded tape per row "
                             "(repro.model, no simulation), fused allows "
                             "the exact replay engines (default), full "
                             "forces per-point simulation")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries per failing point before it is "
                             "quarantined (default 2)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any point taking longer "
                             "than this (default: unlimited)")
    parser.add_argument("--backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base sleep before a retry, scaled by the "
                             "attempt number (default 0.5)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shared-cache multiprocessor design-space "
                    "reproduction (Nayfeh & Olukotun, ISCA 1994)")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run one benchmark on one configuration")
    simulate.add_argument("benchmark", choices=BENCHMARKS)
    simulate.add_argument("--procs", type=int, default=2,
                          help="processors per cluster (default 2)")
    simulate.add_argument("--scc", type=parse_size, default=8 * KB,
                          help="simulated SCC size, e.g. 8KB")
    simulate.add_argument("--clusters", type=int, default=None,
                          help="clusters (default: 4; multiprogramming: 1)")
    simulate.add_argument("--organization", default="shared-scc",
                          choices=("shared-scc", "private"))
    simulate.add_argument("--associativity", type=int, default=1)
    simulate.add_argument("--line-size", type=parse_size, default=16)
    simulate.set_defaults(config_error=simulate.error)

    profile = commands.add_parser(
        "profile",
        help="run one benchmark instrumented; print utilization "
             "timelines and export a Perfetto trace")
    profile.add_argument("benchmark", choices=BENCHMARKS)
    profile.add_argument("--procs", type=int, default=2,
                         help="processors per cluster (default 2)")
    profile.add_argument("--scc", type=parse_size, default=8 * KB,
                         help="simulated SCC size, e.g. 8KB")
    profile.add_argument("--clusters", type=int, default=None,
                         help="clusters (default: 4; multiprogramming: 1)")
    profile.add_argument("--organization", default="shared-scc",
                         choices=("shared-scc", "private"))
    profile.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write a Chrome-trace JSON viewable in "
                              "ui.perfetto.dev (keeps the raw event "
                              "log; like every probed run, the run is "
                              "the per-event reference loop's)")
    profile.add_argument("--timeline-bins", type=_int_at_least(1),
                         default=64,
                         help="bins the printed timelines collapse to "
                              "(default 64)")
    profile.add_argument("--bin-width", type=_int_at_least(1), default=512,
                         help="timeline resolution in cycles while "
                              "recording (default 512)")
    profile.add_argument("--max-events", type=_int_at_least(2),
                         default=100_000,
                         help="raw events retained for the trace export "
                              "(deterministically decimated beyond this)")
    profile.set_defaults(config_error=profile.error)

    sweep = commands.add_parser(
        "sweep", help="run the paper's grid for one benchmark "
                      "(checkpointed; resumable after a crash)")
    sweep.add_argument("benchmark", choices=BENCHMARKS)
    _add_grid_options(sweep)
    sweep.add_argument("--resume", action="store_true",
                       help="resume this sweep from its session journal, "
                            "recomputing only points not yet completed")

    model = commands.add_parser(
        "model",
        help="analytical surrogate: predict a row without simulation, "
             "or cross-validate the model against the simulator")
    model.add_argument("benchmark", nargs="?", choices=BENCHMARKS,
                       help="predict this benchmark's miss-ratio curve "
                            "(omit with --validate)")
    model.add_argument("--validate", action="store_true",
                       help="cross-validate predictions against the "
                            "simulator over the paper grid and fail if "
                            "the aggregate error exceeds --threshold")
    model.add_argument("--profile", default=None,
                       choices=("quick", "paper"),
                       help="workload sizing (default: REPRO_PROFILE)")
    model.add_argument("--procs", type=_parse_int_list, default=None,
                       metavar="LIST",
                       help="processors per cluster, comma-separated "
                            "(default: 1,2,4,8; prediction mode only)")
    model.add_argument("--ladder", type=_parse_size_list, default=None,
                       metavar="LIST",
                       help="paper SCC sizes, comma-separated "
                            "(default: the full ladder)")
    model.add_argument("--threshold", type=float, default=0.05,
                       metavar="MAE",
                       help="largest acceptable aggregate mean absolute "
                            "miss-ratio error (default 0.05)")
    model.add_argument("--out", default=None, metavar="PATH",
                       help="also write the full report as JSON")

    report = commands.add_parser(
        "report", help="regenerate one table/figure of the paper")
    report.add_argument("experiment",
                        choices=SIMULATION_REPORTS + MODEL_REPORTS)
    report.add_argument("--profile", default=None,
                        choices=("quick", "paper"))

    # Listed for --help only: main() hands ``bench`` and everything
    # after it to bench/run.py before this parser sees the arguments.
    commands.add_parser(
        "bench", add_help=False,
        help="run the checkout's benchmark (bench/run.py; every "
             "argument is passed to it verbatim)")

    fuzz = commands.add_parser(
        "fuzz", help="differentially fuzz the timing engines "
                     "(reference loop vs native engine, vs native "
                     "fused ladder, checked against a functional "
                     "oracle)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="N",
                      help="master seed naming the tape set (default 0)")
    fuzz.add_argument("--budget", type=int, default=200, metavar="N",
                      help="tapes to generate and diff (default 200)")
    fuzz.add_argument("--shrink", action="store_true", default=True,
                      dest="shrink",
                      help="delta-debug diverging tapes to minimal "
                           "repros (default)")
    fuzz.add_argument("--no-shrink", action="store_false", dest="shrink",
                      help="persist diverging tapes unshrunk")
    fuzz.add_argument("--out-dir", default=None, metavar="DIR",
                      help="repro destination (default: repros/ under "
                           "$REPRO_CACHE_DIR or .repro_cache)")

    serve = commands.add_parser(
        "serve", help="run the sweep fabric service: HTTP broker plus "
                      "in-process workers over a shared artifact store")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default 8765; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="in-process worker threads (default: one "
                            "per CPU)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="artifact store directory (default: the "
                            "local result cache, $REPRO_CACHE_DIR or "
                            ".repro_cache -- local sweeps and the "
                            "fabric then share warmth)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       metavar="SECONDS",
                       help="work-unit lease without a heartbeat before "
                            "it is re-leased (default 30)")
    serve.add_argument("--unit-attempts", type=int, default=3,
                       metavar="N",
                       help="lease attempts per unit before its points "
                            "are quarantined (default 3)")

    submit = commands.add_parser(
        "submit", help="submit a sweep to a running fabric service and "
                       "stream its progress")
    submit.add_argument("benchmark", choices=BENCHMARKS)
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="fabric service URL (default "
                             "http://127.0.0.1:8765)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job handle and return without "
                             "streaming progress or results")
    _add_grid_options(submit)

    optimize = commands.add_parser(
        "optimize",
        help="seeded Pareto-frontier search over the cluster design "
             "space (procs, SCC size, associativity, banks, protocol, "
             "write buffers) for the best cost/performance")
    optimize.add_argument("--benchmarks", type=_parse_str_list,
                          default=("mp3d",), metavar="LIST",
                          help="benchmarks the fitness averages over, "
                               "comma-separated (default: mp3d)")
    optimize.add_argument("--profile", default=None,
                          choices=("quick", "paper"),
                          help="workload sizing (default: REPRO_PROFILE)")
    optimize.add_argument("--seed", type=int, default=0, metavar="N",
                          help="search seed; the same seed always "
                               "returns the same frontier (default 0)")
    optimize.add_argument("--generations", type=int, default=3,
                          metavar="N",
                          help="genetic generations (default 3)")
    optimize.add_argument("--population", type=int, default=12,
                          metavar="N",
                          help="candidates per generation (default 12)")
    optimize.add_argument("--promote", type=int, default=4, metavar="N",
                          help="triage survivors promoted to the exact "
                               "fused tier per generation (default 4)")
    optimize.add_argument("--procs", type=_parse_int_list, default=None,
                          metavar="LIST",
                          help="processors-per-cluster domain "
                               "(default: 1,2,4,8)")
    optimize.add_argument("--ladder", type=_parse_size_list, default=None,
                          metavar="LIST",
                          help="paper SCC size domain, e.g. 4KB,8KB "
                               "(default: the full ladder)")
    optimize.add_argument("--no-knobs", action="store_true",
                          help="search only the paper's (procs, SCC) "
                               "plane; hold associativity, banks, "
                               "protocol and write buffers at presets")
    optimize.add_argument("--budget-analytical", type=int, default=None,
                          metavar="N",
                          help="analytical-tier point budget "
                               "(default 4096)")
    optimize.add_argument("--budget-fused", type=int, default=None,
                          metavar="N",
                          help="fused-tier point budget (default 512)")
    optimize.add_argument("--budget-full", type=int, default=None,
                          metavar="N",
                          help="full-confirm point budget (default 128)")
    optimize.add_argument("--no-confirm", action="store_true",
                          help="skip the full-fidelity frontier confirm "
                               "pass")
    optimize.add_argument("--url", default=None, metavar="URL",
                          help="evaluate candidate batches through a "
                               "running fabric service instead of "
                               "locally")
    optimize.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes for uncached points "
                               "(local evaluation only)")

    commands.add_parser("list", help="list benchmarks and experiments")
    return parser


def _profile(name: Optional[str]):
    from .experiments import PROFILES, active_profile
    return PROFILES[name] if name else active_profile()


def _cli_config(args) -> SystemConfig:
    """Machine configuration shared by ``simulate`` and ``profile``."""
    clusters = args.clusters
    if clusters is None:
        clusters = 1 if args.benchmark == "multiprogramming" else 4
    return SystemConfig(
        clusters=clusters,
        processors_per_cluster=args.procs,
        scc_size=args.scc,
        associativity=getattr(args, "associativity", 1),
        line_size=getattr(args, "line_size", 16),
        cluster_organization=args.organization,
        model_icache=args.benchmark == "multiprogramming")


def _cmd_simulate(args) -> int:
    from .experiments import PROFILES
    from .simulation import run_simulation
    workload = PROFILES["quick"].workload(args.benchmark)
    result = run_simulation(args.config, workload)
    print(f"benchmark          : {args.benchmark}")
    print(result.summary())
    return 0


def _sweep_progress(point, status, done, total, counters) -> None:
    """Per-point progress line (journal-backed sessions make every
    point's completion durable, so print it as it lands)."""
    from .experiments import format_size
    procs, paper_bytes = point
    print(f"  [{done}/{total}] procs={procs} "
          f"scc={format_size(paper_bytes)} {status}", flush=True)


def _cmd_sweep(args) -> int:
    from .experiments import (SweepSession, SweepSpec,
                              default_session_dir, format_size)
    from .trace.engine import engine_degradation
    spec = SweepSpec.from_cli_args(args)
    session = SweepSession(spec, session_dir=default_session_dir(),
                           resume=args.resume,
                           progress=_sweep_progress)
    result = session.run()
    print(result.summary(), flush=True)
    degraded = engine_degradation()
    if degraded is not None:
        print(f"engine: {degraded}", flush=True)
    if result.quarantined:
        print()
        print(f"QUARANTINED {len(result.quarantined)} point(s):")
        for (procs, paper_bytes), reason in sorted(
                result.quarantined.items()):
            print(f"  procs={procs} scc={format_size(paper_bytes)}: "
                  f"{reason}")
        print("the rest of the grid is journaled; fix the cause and "
              "rerun with --resume")
        return 1
    print()
    print(_render_grid(args.benchmark, result.sweep))
    return 0


def _render_grid(benchmark: str, sweep) -> str:
    """The paper figures for a full grid, or the raw point table for a
    narrowed one (shared by ``sweep`` and ``submit``)."""
    from .experiments import (render_figure, render_figure5,
                              render_figure6, render_speedups)
    if (8, 512 * KB) not in sweep:
        # A narrowed --procs/--ladder grid lacks the paper figures'
        # normalization base; print the raw per-point table instead.
        return _render_sweep_points(benchmark, sweep)
    if benchmark == "multiprogramming":
        return f"{render_figure5(sweep)}\n\n{render_figure6(sweep)}"
    return (f"{render_figure(benchmark, sweep)}\n\n"
            f"{render_speedups(benchmark, sweep)}")


def _render_sweep_points(benchmark: str, sweep) -> str:
    from .experiments import format_size, render_table
    rows = [[procs, format_size(paper_bytes),
             f"{stats.execution_time:,}",
             f"{100 * stats.read_miss_rate:.2f} %"]
            for (procs, paper_bytes), stats in sorted(sweep.items())]
    return render_table(
        f"{benchmark}: sweep points",
        ["procs/cl", "SCC size", "exec cycles", "read miss"], rows)


_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"


def _sparkline(values, peak: float = None) -> str:
    """Render ``values`` as a unicode bar-per-bin strip."""
    top = peak if peak else (max(values) if values else 0.0)
    if top <= 0:
        return " " * len(values)
    scale = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[min(scale, int(round(scale * value / top)))]
        for value in values)


def _cmd_profile(args) -> int:
    from .instrument import InstrumentationProbe, write_chrome_trace
    from .experiments import PROFILES
    from .simulation import run_simulation
    config = args.config
    # Only the Chrome trace reads the raw event log.  Probed, the run is
    # the reference loop's either way.
    probe = InstrumentationProbe(bin_width=args.bin_width,
                                 max_events=args.max_events,
                                 record_events=bool(args.trace_out))
    workload = PROFILES["quick"].workload(args.benchmark)
    result = run_simulation(config, workload, instrumentation=probe)
    stats = result.stats
    probe.rebin(args.timeline_bins)

    bus = probe.bus_occupancy
    utilization = bus.utilization_series()
    summary = probe.summary()
    print(f"benchmark          : {args.benchmark}")
    print(f"configuration      : {config.clusters} clusters x "
          f"{config.processors_per_cluster} procs, {config.scc_size:,} B "
          f"SCC, {config.cluster_organization}")
    print(f"execution time     : {stats.execution_time:,} cycles")
    print(f"bus transactions   : {int(summary.get('bus_transactions', 0)):,}")
    print(f"bus utilization    : peak "
          f"{100 * summary.get('bus_peak_utilization', 0.0):.1f} %, "
          f"mean {100 * summary.get('bus_mean_utilization', 0.0):.1f} %")
    print(f"bank conflicts     : "
          f"{int(summary.get('bank_conflict_cycles', 0)):,} cycles over "
          f"{int(summary.get('bank_conflict_events', 0)):,} events")
    print(f"write buffer       : peak depth "
          f"{int(summary.get('write_buffer_peak_depth', 0))}, "
          f"{int(summary.get('write_buffer_stall_cycles', 0)):,} "
          f"stall cycles")
    print()
    print(f"bus occupancy ({len(utilization)} bins x "
          f"{bus.bin_width:,} cycles, full block = 100 %):")
    print(f"  [{_sparkline(utilization, peak=1.0)}]")
    # After rebin every series shares one bin width: bin i of each
    # covers the same cycles, so the pressure line sums them bin by bin.
    pressed = [*probe.bank_conflict.values(),
               *probe.write_buffer_depth.values()]
    pressure = [sum(column) for column in itertools.zip_longest(
        *(timeline.bins for timeline in pressed), fillvalue=0.0)]
    if any(pressure):
        print("bank conflict + write-buffer pressure:")
        print(f"  [{_sparkline(pressure)}]")
    print()
    print("per-processor cycle breakdown (busy / memory / sync):")
    for proc_id, proc in enumerate(stats.processors):
        total = max(1, proc.total_cycles)
        print(f"  proc {proc_id:2d}: "
              f"{100 * proc.busy_cycles / total:5.1f} % / "
              f"{100 * proc.memory_stall_cycles / total:5.1f} % / "
              f"{100 * proc.sync_stall_cycles / total:5.1f} %")
    if args.trace_out:
        path = write_chrome_trace(probe, args.trace_out, config=config)
        recorded = int(summary.get("events_recorded", 0))
        dropped = int(summary.get("events_dropped", 0))
        print()
        print(f"trace written      : {path} ({recorded:,} events kept, "
              f"{dropped:,} decimated) -- open in ui.perfetto.dev")
    return 0


def _cmd_report(args) -> int:
    from . import experiments as exp
    profile = _profile(args.profile)
    if args.experiment == "table5":
        print(exp.render_table5())
        return 0
    if args.experiment == "costs":
        print(exp.render_section4_costs())
        return 0
    if args.experiment in ("figure5", "figure6"):
        sweep = exp.run_sweep(
            exp.SweepSpec.multiprogramming(profile=profile))
        renderer = (exp.render_figure5 if args.experiment == "figure5"
                    else exp.render_figure6)
        print(renderer(sweep))
        return 0
    if args.experiment in ("table6", "table7"):
        sweeps = {name: exp.run_sweep(
                      exp.SweepSpec.parallel(name, profile=profile))
                  for name in ("barnes-hut", "mp3d", "cholesky")}
        sweeps["multiprogramming"] = exp.run_sweep(
            exp.SweepSpec.multiprogramming(profile=profile))
        renderer = (exp.render_table6 if args.experiment == "table6"
                    else exp.render_table7)
        print(renderer(sweeps))
        return 0
    benchmark = {"figure2": "barnes-hut", "table3": "barnes-hut",
                 "table4": "barnes-hut", "figure3": "mp3d",
                 "figure4": "cholesky"}[args.experiment]
    sweep = exp.run_sweep(exp.SweepSpec.parallel(benchmark,
                                                 profile=profile))
    if args.experiment == "table3":
        print(exp.render_speedups(benchmark, sweep, exp.PAPER_TABLE3))
    elif args.experiment == "table4":
        print(exp.render_miss_rates(benchmark, sweep, exp.PAPER_TABLE4))
    else:
        print(exp.render_figure(benchmark, sweep))
    return 0


def _cmd_model(args) -> int:
    import json
    from .experiments import (PAPER_LADDER, SweepSpec,
                              default_session_dir, format_size,
                              render_table, run_sweep)
    from .model import cross_validate
    profile = _profile(args.profile)
    ladder = args.ladder or PAPER_LADDER
    if args.validate:
        def progress(benchmark, procs, stage):
            print(f"  {benchmark} procs={procs}: {stage}...", flush=True)

        print(f"cross-validating the analytical model "
              f"({profile.name} profile)...")
        report = cross_validate(profile=profile, ladder=ladder,
                                session_dir=default_session_dir(),
                                progress=progress)
        print()
        rows = [[row["benchmark"], row["procs"],
                 f"{row['mae']:.4f}", f"{row['max_error']:.4f}"]
                for row in report["rows"]]
        print(render_table("analytical vs simulated miss ratios",
                           ["benchmark", "procs/cl", "MAE", "max error"],
                           rows))
        print()
        print(f"aggregate: MAE={report['mae']:.4f} "
              f"max={report['max_error']:.4f} over "
              f"{len(report['rows'])} rows x {len(report['ladder'])} "
              f"sizes")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.out}")
        if report["mae"] > args.threshold:
            print(f"FAIL: aggregate MAE {report['mae']:.4f} exceeds "
                  f"threshold {args.threshold}")
            return 1
        print(f"OK: aggregate MAE {report['mae']:.4f} within "
              f"threshold {args.threshold}")
        return 0
    if not args.benchmark:
        print("model: name a benchmark to predict, or pass --validate",
              file=sys.stderr)
        return 2
    spec = SweepSpec.from_cli_args(args, profile=profile, ladder=ladder,
                                   fidelity="analytical")
    sweep = run_sweep(spec, session_dir=default_session_dir())
    rows = [[procs, format_size(paper_bytes),
             f"{100 * stats.miss_rate:.2f} %",
             f"{100 * stats.read_miss_rate:.2f} %",
             f"{stats.execution_time:,}"]
            for (procs, paper_bytes), stats in sorted(sweep.items())]
    print(render_table(
        f"{args.benchmark}: analytical predictions (no simulation)",
        ["procs/cl", "SCC size", "miss", "read miss", "est. cycles"],
        rows))
    if args.out:
        payload = {f"{procs}/{paper_bytes}": stats.as_dict()
                   for (procs, paper_bytes), stats in sorted(sweep.items())}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


# Kept for bench/probes.py, which imports it by name (bench/ is frozen).
def _packed_replay_stream():
    """A cache-resident uniprocessor loop in the packed encoding.

    The working set (8KB data, 8KB of instruction addresses) fits the
    16KB SCC after one cold pass, so replay is dominated by the hit
    path every engine optimizes -- the same regime as the warm inner
    rungs of a sweep.  Built once and replayed as a single chunk per
    run, which is exactly how :class:`~repro.trace.record
    .ReplayApplication` delivers recorded sweeps.
    """
    from array import array
    from .trace.packed import (OP_COMPUTE, OP_IFETCH, OP_READ, OP_WRITE)
    stream = array("q")
    lines = 8 * KB // 32
    for _ in range(200):
        for line_no in range(lines):
            addr = line_no * 32
            stream.extend((OP_IFETCH, (addr * 4) % (8 * KB), 4))
            stream.extend((OP_READ, addr))
            if line_no % 8 == 0:
                stream.extend((OP_WRITE, addr))
            if line_no % 4 == 0:
                stream.extend((OP_COMPUTE, 2))
    return stream


def _bench_front(argv: List[str]) -> int:
    """``bench`` has no flags of its own: it *is* ``bench/run.py``."""
    import subprocess
    if not BENCH_SCRIPT.is_file():
        print(f"bench: no bench/run.py in {BENCH_SCRIPT.parent.parent} "
              f"(the benchmark ships with the source checkout, not the "
              f"installed package)", file=sys.stderr)
        return 2
    return subprocess.call([sys.executable, str(BENCH_SCRIPT), *argv])


def _cmd_serve(args) -> int:
    import asyncio
    import os
    from pathlib import Path
    from .fabric import ArtifactStore, Broker, FabricService, Worker
    import threading
    store = (ArtifactStore(Path(args.store)) if args.store
             else ArtifactStore.default())
    broker = Broker(store, lease_ttl=args.lease_ttl,
                    max_unit_attempts=args.unit_attempts)
    workers = args.workers or os.cpu_count() or 1
    stop = threading.Event()
    for index in range(workers):
        worker = Worker(broker, worker_id=f"serve-{index + 1}")
        threading.Thread(target=worker.run, kwargs={"stop": stop},
                         name=worker.worker_id, daemon=True).start()

    async def _serve() -> int:
        service = FabricService(broker, args.host, args.port)
        await service.start()
        print(f"fabric service on {service.url} "
              f"({workers} worker(s), store: "
              f"{store.directory or 'memory'})", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("fabric service stopped")
        return 0
    finally:
        stop.set()


def _cmd_submit(args) -> int:
    from .experiments import SweepSpec, format_size
    from .fabric import FabricError, SweepClient
    from .experiments.session import QuarantinedPointError
    spec = SweepSpec.from_cli_args(args)
    client = SweepClient.connect(args.url)
    try:
        handle = client.submit(spec)
        print(f"job {handle.job}: {handle.total} point(s), "
              f"{handle.store_hits} already in the store, "
              f"{handle.pending_units} work unit(s) queued", flush=True)
        if args.no_wait:
            print(f"follow later with: curl {args.url}/jobs/"
                  f"{handle.job}/events")
            return 0
        for event in client.iter_progress(handle):
            if event.get("event") == "point":
                status = event["status"]
                print(f"  [{event['done']}/{event['total']}] "
                      f"procs={event['procs']} "
                      f"scc={format_size(event['scc'])} {status}",
                      flush=True)
        sweep = client.result(handle, timeout=60.0)
    except QuarantinedPointError as exc:
        print()
        print(f"QUARANTINED {len(exc.quarantined)} point(s):")
        for (procs, paper_bytes), reason in sorted(
                exc.quarantined.items()):
            print(f"  procs={procs} scc={format_size(paper_bytes)}: "
                  f"{reason}")
        return 1
    except FabricError as exc:
        print(f"fabric error: {exc}", file=sys.stderr)
        return 1
    print()
    print(_render_grid(args.benchmark, sweep))
    return 0


def _cmd_fuzz(args) -> int:
    from .verify import run_fuzz
    from .verify.differ import engine_registry

    def progress(index, budget, status, case_seed):
        # One line per noteworthy case; clean cases tick silently every
        # 50 so long budgets show life without drowning the terminal.
        if status != "clean":
            print(f"  [{index + 1}/{budget}] case {case_seed}: {status}")
        elif (index + 1) % 50 == 0 or index + 1 == budget:
            print(f"  [{index + 1}/{budget}] clean so far")

    print(f"fuzzing {args.budget} tape(s) from seed {args.seed} "
          f"(generic vs {' vs '.join(engine_registry())})...")
    report = run_fuzz(seed=args.seed, budget=args.budget,
                      shrink=args.shrink, out_dir=args.out_dir,
                      progress=progress)
    print(report.summary())
    for record in report.divergences:
        shrunk = (f", shrunk {record.original_events} -> "
                  f"{record.shrunk_events} events"
                  if record.shrunk_events is not None else "")
        print(f"DIVERGED case {record.case_seed} [{record.kind}]{shrunk}")
        for line in record.detail[:5]:
            print(f"    {line}")
        if record.repro_path is not None:
            print(f"    repro: {record.repro_path}")
    for case_seed, reason in report.quarantined:
        print(f"QUARANTINED case {case_seed}: {reason}")
    return 0 if report.ok else 1


def _cmd_optimize(args) -> int:
    from .experiments.session import QuarantinedPointError
    from .optimize import (BudgetLedger, DesignSpace, FunnelEvaluator,
                           optimize, render_frontier)
    from .trace.engine import engine_degradation

    unknown = sorted(set(args.benchmarks) - set(BENCHMARKS))
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}; "
              f"choose from {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2

    profile = _profile(args.profile)
    space_kwargs = {"explore_knobs": not args.no_knobs}
    if args.procs:
        space_kwargs["procs"] = args.procs
    if args.ladder:
        space_kwargs["ladder"] = args.ladder
    space = DesignSpace(profile, **space_kwargs)

    budgets = {}
    if args.budget_analytical is not None:
        budgets["analytical"] = args.budget_analytical
    if args.budget_fused is not None:
        budgets["fused"] = args.budget_fused
    if args.budget_full is not None:
        budgets["full"] = args.budget_full

    client = None
    if args.url is not None:
        from .fabric import SweepClient
        client = SweepClient.connect(args.url)
    evaluator = FunnelEvaluator(
        profile, benchmarks=args.benchmarks,
        budget=BudgetLedger(budgets or None),
        client=client, jobs=args.jobs)

    print(f"searching {len(space.procs)} x {len(space.ladder)} grid "
          f"points x knobs (seed {args.seed}, "
          f"{args.generations} generation(s), "
          f"population {args.population})...", flush=True)
    try:
        result = optimize(space, evaluator, seed=args.seed,
                          generations=args.generations,
                          population_size=args.population,
                          promote=args.promote,
                          confirm=not args.no_confirm)
    except QuarantinedPointError as exc:
        print(f"optimize aborted: {exc}", file=sys.stderr)
        return 1
    print()
    print(render_frontier(result))
    degraded = engine_degradation()
    if degraded is not None:
        print(f"engine: {degraded}", flush=True)
    return 0 if result.rediscovers_paper() else 1


def _cmd_list() -> int:
    print("benchmarks:")
    for name in BENCHMARKS:
        print(f"  {name}")
    print("experiments (report <name>):")
    for name in SIMULATION_REPORTS + MODEL_REPORTS:
        print(f"  {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["bench"]:
        return _bench_front(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command in ("simulate", "profile"):
        try:
            args.config = _cli_config(args)
        except ValueError as exc:       # SystemConfig's own checks
            args.config_error(str(exc))
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "optimize":
        return _cmd_optimize(args)
    return _cmd_list()


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
