"""Declarative sweep specifications and experiment profiles.

:class:`SweepSpec` is the single description of a design-space sweep:
which workload, which processor counts, which SCC ladder, and how to
run it (instrumentation, trace/fused policy, worker processes, retry
budget).  :func:`~repro.experiments.session.run_sweep`, the
checkpointed :class:`~repro.experiments.session.SweepSession` and the
fabric all consume one of these instead of threading an ever-growing
keyword list through every layer.

This module also owns the experiment profiles (workload sizings) and
the canonical per-point result-cache key, so a spec can answer both
"which simulations make up this sweep" (:meth:`SweepSpec.configs`) and
"under which keys do their results live" (:meth:`SweepSpec.point_key`,
:meth:`SweepSpec.signature`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.config import KB, SystemConfig
from ..workloads.barnes_hut import BarnesHut
from ..workloads.cholesky import Cholesky
from ..workloads.mp3d import MP3D
from ..workloads.multiprog import MultiprogrammingWorkload

__all__ = ["ExperimentProfile", "PROFILES", "active_profile",
           "PAPER_LADDER", "PROCS_SWEPT", "KNOWN_BENCHMARKS",
           "SWEEP_KINDS", "FIDELITIES", "VARIANT_KNOBS",
           "point_cache_key", "SweepSpec", "GridPoint", "WIRE_VERSION"]

WIRE_VERSION = 1
"""Version tag of the :meth:`SweepSpec.to_wire` JSON payload (the
fabric's submit body).  Bump only on incompatible wire changes."""

PAPER_LADDER: Tuple[int, ...] = tuple(
    kb * KB for kb in (4, 8, 16, 32, 64, 128, 256, 512))
"""The paper's SCC sweep, in paper bytes."""

PROCS_SWEPT: Tuple[int, ...] = (1, 2, 4, 8)

KNOWN_BENCHMARKS: Tuple[str, ...] = ("barnes-hut", "mp3d", "cholesky",
                                     "multiprogramming")

SWEEP_KINDS: Tuple[str, ...] = ("parallel", "multiprogramming")

FIDELITIES: Tuple[str, ...] = ("analytical", "fused", "full")
"""Resolution tiers for a sweep: ``analytical`` prices every point from
one recorded tape per row via :mod:`repro.model` (no simulation),
``fused`` (the default) allows the exact trace/fused-replay engines,
``full`` forces per-point simulation."""

CACHE_VERSION = 4
"""Bump to invalidate cached results after simulator changes.
(v4: cached payloads gained the ``instrument`` observability summary.)"""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class ExperimentProfile:
    """Workload sizing for one reproduction quality level."""

    name: str
    ladder_scale: int
    barnes_bodies: int
    barnes_steps: int
    mp3d_particles: int
    mp3d_steps: int
    cholesky_n: int
    multiprog_instructions: int
    multiprog_quantum: int

    def scaled_ladder(self) -> Tuple[int, ...]:
        """Simulated SCC sizes standing in for the paper ladder."""
        return tuple(size // self.ladder_scale for size in PAPER_LADDER)

    # -- workload factories (fresh application object per call) ---------

    def barnes_hut(self) -> BarnesHut:
        return BarnesHut(n_bodies=self.barnes_bodies,
                         steps=self.barnes_steps)

    def mp3d(self) -> MP3D:
        return MP3D(n_particles=self.mp3d_particles, steps=self.mp3d_steps)

    def cholesky(self) -> Cholesky:
        return Cholesky(n=self.cholesky_n)

    def multiprogramming(self) -> MultiprogrammingWorkload:
        return MultiprogrammingWorkload(
            instructions_per_app=self.multiprog_instructions,
            quantum_instructions=self.multiprog_quantum,
            scale=self.ladder_scale)

    def workload(self, benchmark: str):
        """Factory dispatch by benchmark name."""
        factories: Dict[str, Callable] = {
            "barnes-hut": self.barnes_hut,
            "mp3d": self.mp3d,
            "cholesky": self.cholesky,
            "multiprogramming": self.multiprogramming,
        }
        try:
            return factories[benchmark]()
        except KeyError:
            raise ValueError(f"unknown benchmark {benchmark!r}") from None


PROFILES: Dict[str, ExperimentProfile] = {
    "quick": ExperimentProfile(
        name="quick", ladder_scale=8,
        barnes_bodies=192, barnes_steps=2,
        mp3d_particles=600, mp3d_steps=3,
        cholesky_n=288,
        multiprog_instructions=60_000, multiprog_quantum=20_000),
    "paper": ExperimentProfile(
        name="paper", ladder_scale=8,
        barnes_bodies=512, barnes_steps=2,
        mp3d_particles=900, mp3d_steps=5,
        cholesky_n=416,
        multiprog_instructions=150_000, multiprog_quantum=50_000),
}


def active_profile() -> ExperimentProfile:
    """Profile selected by ``REPRO_PROFILE`` (default: ``paper``)."""
    name = os.environ.get("REPRO_PROFILE", "paper")
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"REPRO_PROFILE={name!r}; "
                         f"known profiles: {sorted(PROFILES)}") from None


VARIANT_KNOBS: Tuple[str, ...] = ("associativity", "banks_per_processor",
                                  "protocol", "write_buffer_depth")
"""The :class:`~repro.core.config.SystemConfig` knobs a sweep may vary
away from the paper presets (via :attr:`SweepSpec.variants`).  The
design-space optimizer searches over these."""

_VARIANT_KEY_TAGS: Tuple[Tuple[str, str], ...] = (
    ("associativity", "assoc"), ("banks_per_processor", "banks"),
    ("protocol", "protocol"), ("write_buffer_depth", "wbuf"))
"""Cache-key component per variant knob, in canonical order."""


def _variant_key_suffix(config: SystemConfig) -> str:
    """Cache-key components for knobs set away from the paper presets.

    Empty for every preset-built grid (all existing caches keep their
    exact keys); a candidate exploring e.g. two-way associativity gets
    a distinct ``|assoc=2`` entry so it can never shadow -- or be
    served -- the direct-mapped result.
    """
    defaults = SystemConfig()
    return "".join(
        f"|{tag}={getattr(config, knob)}"
        for knob, tag in _VARIANT_KEY_TAGS
        if getattr(config, knob) != getattr(defaults, knob))


def point_cache_key(benchmark: str, profile: ExperimentProfile,
                    config: SystemConfig, instrument: bool = True) -> str:
    """The result-cache key of one grid point.

    The format is stable across releases (it predates
    :class:`SweepSpec`) so warm caches survive the API redesign.
    Non-preset variant knobs (associativity, banks, protocol, write
    buffers) append their own components; preset-built grids -- every
    sweep that existed before the optimizer -- keep byte-identical keys.
    """
    key = (f"{benchmark}|{profile}|clusters={config.clusters}"
           f"|procs={config.processors_per_cluster}"
           f"|scc={config.scc_size}|icache={config.icache_size}"
           f"|model_icache={config.model_icache}"
           f"{_variant_key_suffix(config)}")
    if not instrument:
        # Digest-less payloads get their own entries so a benchmark run
        # never shadows the default instrumented payload (and the default
        # key format is unchanged from earlier cache generations).
        key += "|instrument=False"
    return key


GridPoint = Tuple[int, int]
"""(processors per cluster, paper SCC bytes)."""


@dataclass(frozen=True)
class SweepSpec:
    """Complete, validated description of one design-space sweep.

    The identity half (``kind``, ``benchmark``, ``profile``, ``ladder``,
    ``procs``, ``instrument``) determines the results bit-for-bit and is
    digested by :meth:`signature`; the execution half (``jobs``,
    ``fused``, ``max_attempts``, ``point_timeout``, ``retry_backoff``)
    only controls *how* those results are obtained, so changing it never
    invalidates a session journal or the result cache.
    """

    kind: str
    """``"parallel"`` (Section 3.1) or ``"multiprogramming"``
    (Section 3.2)."""

    benchmark: str
    profile: ExperimentProfile

    ladder: Tuple[int, ...] = PAPER_LADDER
    """SCC sizes in *paper* bytes; each simulation runs the paper size
    divided by the profile's ladder scale."""

    procs: Tuple[int, ...] = PROCS_SWEPT
    """Processors per cluster."""

    instrument: bool = True
    """Attach the summary-only observability digest to every point."""

    fused: bool = True
    """Allow the one-pass multi-configuration ladder engine."""

    fidelity: str = "fused"
    """Resolution tier (see :data:`FIDELITIES`).  ``analytical`` is part
    of the spec's *identity* -- its results are model outputs, cached
    under distinct keys, and never interchangeable with simulated ones
    -- while ``fused`` vs ``full`` only changes how the same exact
    results are obtained."""

    variants: Tuple[Tuple[str, object], ...] = ()
    """Config knobs applied on top of the paper presets for *every*
    grid point, as sorted ``(knob, value)`` pairs restricted to
    :data:`VARIANT_KNOBS` -- how the design-space optimizer prices
    candidates beyond the (procs, SCC) plane.  Part of the spec's
    identity: variants change the simulated machine, so they appear in
    :meth:`describe` (when non-empty; preset sweeps keep their existing
    signatures) and in every :meth:`point_key` via the knob's cache-key
    component."""

    backend: Optional[str] = None
    """Packed-replay engine for simulated points (``auto``/``python``/
    ``native``; see :mod:`repro.trace.engine`).  Execution
    knob only: every backend produces bit-identical statistics, so it is
    deliberately absent from :meth:`describe`, :meth:`signature` and
    :meth:`point_key` -- switching engines never invalidates a journal
    or the result cache.  ``None`` defers to ``$REPRO_ENGINE``."""

    jobs: Optional[int] = None
    """Worker processes for uncached points (``None``/1 = serial)."""

    max_attempts: int = 3
    """Simulation attempts per point before it is quarantined."""

    point_timeout: Optional[float] = None
    """Wall-clock seconds one attempt may take (``None`` = unlimited).
    Enforcing a timeout requires worker processes, so a serial sweep
    with a timeout runs its points on a single-worker pool."""

    retry_backoff: float = 0.5
    """Seconds slept before retry ``n`` (scaled by the attempt number)."""

    def __post_init__(self) -> None:
        # Coerce sequences so specs hash and pickle regardless of how
        # the caller spelled the grid.
        object.__setattr__(self, "ladder", tuple(self.ladder))
        object.__setattr__(self, "procs", tuple(self.procs))
        _require(self.kind in SWEEP_KINDS,
                 f"kind must be one of {SWEEP_KINDS}")
        _require(self.benchmark in KNOWN_BENCHMARKS,
                 f"benchmark must be one of {KNOWN_BENCHMARKS}")
        _require(isinstance(self.profile, ExperimentProfile),
                 "profile must be an ExperimentProfile")
        if self.kind == "multiprogramming":
            _require(self.benchmark == "multiprogramming",
                     "multiprogramming sweeps run the multiprogramming "
                     "workload")
        _require(len(self.ladder) >= 1, "ladder must name at least one "
                                        "SCC size")
        _require(all(isinstance(size, int) and size >= 1
                     for size in self.ladder),
                 "ladder entries must be positive paper byte counts")
        _require(len(self.procs) >= 1,
                 "procs must name at least one processor count")
        _require(all(isinstance(count, int) and count >= 1
                     for count in self.procs),
                 "procs entries must be positive processor counts")
        _require(self.fidelity in FIDELITIES,
                 f"fidelity must be one of {FIDELITIES}")
        if self.fidelity == "analytical":
            _require(not self.instrument,
                     "analytical results carry no observability digest; "
                     "pass instrument=False")
        # Variants: canonicalize to sorted pairs with preset-valued
        # entries dropped, so equal machines always spell equal specs.
        defaults = SystemConfig()
        cleaned = {}
        for pair in self.variants:
            knob, value = pair
            _require(knob in VARIANT_KNOBS,
                     f"variant knob must be one of {VARIANT_KNOBS}, "
                     f"not {knob!r}")
            _require(knob not in cleaned or cleaned[knob] == value,
                     f"variant knob {knob!r} given twice")
            if value != getattr(defaults, knob):
                cleaned[knob] = value
        object.__setattr__(self, "variants",
                           tuple(sorted(cleaned.items())))
        if self.backend is not None:
            from ..trace.engine import BACKEND_CHOICES, RETIRED_BACKENDS
            _require(self.backend in BACKEND_CHOICES + RETIRED_BACKENDS,
                     f"backend must be one of {BACKEND_CHOICES}")
        _require(self.jobs is None or self.jobs >= 1,
                 "jobs must be None or >= 1")
        _require(self.max_attempts >= 1, "max_attempts must be >= 1")
        _require(self.point_timeout is None or self.point_timeout > 0,
                 "point_timeout must be None or > 0")
        _require(self.retry_backoff >= 0, "retry_backoff must be >= 0")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def parallel(cls, benchmark: str,
                 profile: Optional[ExperimentProfile] = None,
                 ladder: Optional[Tuple[int, ...]] = None,
                 procs: Tuple[int, ...] = PROCS_SWEPT,
                 **knobs) -> "SweepSpec":
        """The Section 3.1 grid for one parallel benchmark."""
        return cls(kind="parallel", benchmark=benchmark,
                   profile=profile or active_profile(),
                   ladder=ladder or PAPER_LADDER, procs=procs, **knobs)

    @classmethod
    def multiprogramming(cls,
                         profile: Optional[ExperimentProfile] = None,
                         ladder: Optional[Tuple[int, ...]] = None,
                         procs: Tuple[int, ...] = PROCS_SWEPT,
                         **knobs) -> "SweepSpec":
        """The Section 3.2 grid (single cluster, icache modelled)."""
        return cls(kind="multiprogramming", benchmark="multiprogramming",
                   profile=profile or active_profile(),
                   ladder=ladder or PAPER_LADDER, procs=procs, **knobs)

    @classmethod
    def from_cli_args(cls, args, **overrides) -> "SweepSpec":
        """The single CLI-namespace -> spec path.

        Every subcommand that turns parsed arguments into a sweep
        (``sweep``, ``model``, ``submit``) goes through here:
        attributes missing from the namespace fall back to the spec
        defaults, and keyword ``overrides`` pin whatever the subcommand
        fixes itself (e.g. ``model`` passes ``fidelity="analytical"``).
        An override wins over the namespace unconditionally.
        """

        def pick(name, default=None):
            if name in overrides:
                return overrides.pop(name)
            return getattr(args, name, default)

        benchmark = pick("benchmark")
        if benchmark is None:
            raise ValueError("from_cli_args needs a benchmark (positional "
                             "argument or benchmark= override)")
        profile = pick("profile")
        if isinstance(profile, str):
            profile = PROFILES[profile]
        if profile is None:
            profile = active_profile()
        fidelity = pick("fidelity") or "fused"
        instrument = overrides.pop(
            "instrument", not getattr(args, "no_instrument", False))
        fused = overrides.pop(
            "fused", not getattr(args, "no_fused", False))
        ladder = pick("ladder")
        procs = pick("procs")
        knobs = dict(
            profile=profile,
            ladder=tuple(ladder) if ladder else None,
            procs=tuple(procs) if procs else PROCS_SWEPT,
            instrument=instrument and fidelity != "analytical",
            fused=fused and fidelity != "full",
            fidelity=fidelity,
            backend=pick("backend"),
            jobs=pick("jobs"),
            max_attempts=pick("retries", 2) + 1,
            point_timeout=pick("timeout"),
            retry_backoff=pick("backoff", 0.5),
        )
        if overrides:
            raise TypeError(f"unknown from_cli_args override(s): "
                            f"{sorted(overrides)}")
        if benchmark == "multiprogramming":
            return cls.multiprogramming(**knobs)
        return cls.parallel(benchmark, **knobs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def configs(self) -> Dict[GridPoint, SystemConfig]:
        """Every grid point's machine configuration, keyed by
        (processors per cluster, paper SCC bytes)."""
        scale = self.profile.ladder_scale
        overrides = dict(self.variants)
        if self.kind == "multiprogramming":
            icache = max(16 * KB // scale, 512)
            return {
                (count, paper_bytes):
                    SystemConfig.paper_multiprogramming(
                        count, paper_bytes // scale).with_updates(
                            icache_size=icache, **overrides)
                for paper_bytes in self.ladder
                for count in self.procs
            }
        return {
            (count, paper_bytes): SystemConfig.paper_parallel(
                count, paper_bytes // scale).with_updates(**overrides)
            for paper_bytes in self.ladder
            for count in self.procs
        }

    def point_key(self, config: SystemConfig) -> str:
        """The result-cache key of one of this sweep's points.

        Analytical points get a distinct, model-versioned key suffix:
        their payloads are predictions, so they must never be served
        for (or shadow) a full-fidelity request, and a model change
        must invalidate them without touching simulated entries.
        """
        key = point_cache_key(self.benchmark, self.profile, config,
                              self.instrument)
        if self.fidelity == "analytical":
            from ..model.profile import MODEL_VERSION
            key += f"|fidelity=analytical|model=v{MODEL_VERSION}"
        return key

    def describe(self) -> Dict[str, object]:
        """JSON-safe identity payload (the fields that determine the
        results bit-for-bit; execution knobs are deliberately absent).

        ``fidelity`` appears only for analytical sweeps: fused and full
        produce bit-identical results, so they share a signature (and
        existing journals stay valid)."""
        payload = {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "profile": asdict(self.profile),
            "ladder": list(self.ladder),
            "procs": list(self.procs),
            "instrument": self.instrument,
        }
        if self.fidelity == "analytical":
            payload["fidelity"] = "analytical"
        if self.variants:
            payload["variants"] = [list(pair) for pair in self.variants]
        return payload

    def signature(self) -> str:
        """Stable digest of :meth:`describe`; keys the session journal
        (and anything else that needs one name for the whole sweep)."""
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(
            f"s{CACHE_VERSION}:{payload}".encode()).hexdigest()[:24]

    # ------------------------------------------------------------------
    # Wire format (the fabric's submit payload)
    # ------------------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        """Complete JSON-safe payload: identity *and* execution knobs.

        Unlike :meth:`describe` (which deliberately omits execution
        knobs so signatures stay stable) this is a full round-trip --
        ``SweepSpec.from_wire(spec.to_wire())`` reconstructs an equal
        spec, which is what ``repro.fabric`` ships between client,
        broker, and workers.
        """
        return {
            "version": WIRE_VERSION,
            "kind": self.kind,
            "benchmark": self.benchmark,
            "profile": asdict(self.profile),
            "ladder": list(self.ladder),
            "procs": list(self.procs),
            "instrument": self.instrument,
            "fused": self.fused,
            "fidelity": self.fidelity,
            "variants": [list(pair) for pair in self.variants],
            "backend": self.backend,
            "jobs": self.jobs,
            "max_attempts": self.max_attempts,
            "point_timeout": self.point_timeout,
            "retry_backoff": self.retry_backoff,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "SweepSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_wire`.  Keys
        this build has no field for -- a 1.4 payload's
        ``strict_parallel`` -- are ignored."""
        if not isinstance(payload, dict):
            raise ValueError("wire spec must be a JSON object")
        version = payload.get("version")
        if version != WIRE_VERSION:
            raise ValueError(f"unsupported spec wire version {version!r} "
                             f"(this build speaks {WIRE_VERSION})")
        try:
            profile = ExperimentProfile(**payload["profile"])
            return cls(
                kind=payload["kind"],
                benchmark=payload["benchmark"],
                profile=profile,
                ladder=tuple(payload["ladder"]),
                procs=tuple(payload["procs"]),
                instrument=bool(payload["instrument"]),
                fused=bool(payload["fused"]),
                fidelity=payload["fidelity"],
                variants=tuple((str(knob), value) for knob, value
                               in payload.get("variants") or ()),
                backend=payload.get("backend"),
                jobs=payload.get("jobs"),
                max_attempts=int(payload.get("max_attempts", 3)),
                point_timeout=payload.get("point_timeout"),
                retry_backoff=float(payload.get("retry_backoff", 0.5)),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed spec wire payload: {exc}") from None
