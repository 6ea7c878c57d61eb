"""System configuration for the clustered shared-cache multiprocessor.

The paper's base architecture (Section 2.1, Figure 1) is a four-cluster
machine.  Each cluster holds one to eight processors, one Shared Cluster
Cache (SCC) for data, and a private instruction cache per processor.  The
SCC is direct-mapped on 16-byte lines, interleaved across banks (four banks
per processor), and refilled over a snoopy invalidation bus with a fixed
100-cycle line-fetch latency.

:class:`SystemConfig` captures all of those knobs as a frozen dataclass with
eager validation, plus the named presets used throughout the evaluation
(``paper_parallel`` for Sections 3.1/5 and ``paper_multiprogramming`` for
Section 3.2, which simulates a single cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["SystemConfig", "KB"]

KB = 1024
"""Bytes per kilobyte, for readable cache-size literals."""


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one point in the processor-cache design space.

    Parameters mirror Section 2 of the paper; defaults are the paper's base
    values.  Instances are immutable -- derive variants with
    :meth:`with_updates`.
    """

    clusters: int = 4
    """Number of clusters on the snoopy inter-cluster bus."""

    processors_per_cluster: int = 1
    """Processors sharing each cluster's SCC (paper sweeps 1, 2, 4, 8)."""

    scc_size: int = 64 * KB
    """Total SCC data capacity in bytes (paper sweeps 4 KB .. 512 KB)."""

    associativity: int = 1
    """SCC (or private-cache) set associativity.  The paper's designs
    are direct-mapped for cycle-time reasons (Section 4.2); higher
    values exist for the associativity ablation, which the cost model
    charges extra FO4 delays for."""

    inter_cluster: str = "snoopy-bus"
    """Inter-cluster coherence transport: ``"snoopy-bus"`` (the paper's
    broadcast bus) or ``"directory"`` (a DASH-style full-map directory
    with point-to-point messages -- the scalability alternative the
    paper cites as reference [13])."""

    directory_banks: int = 8
    """Directory transport only: interleaved home banks."""

    directory_occupancy: int = 4
    """Directory transport only: cycles a home bank is busy per
    transaction."""

    remote_dirty_latency: int = 135
    """Directory transport only: three-hop latency when the line is
    dirty in another cluster (request -> home -> owner -> requester)."""

    invalidation_latency: int = 120
    """Directory transport only: latency of a write needing an
    invalidation round before ownership is granted."""

    protocol: str = "msi"
    """Inter-cluster coherence protocol: ``"msi"`` (the paper's plain
    write-invalidate scheme) or ``"mesi"`` (adds an Exclusive state so
    unshared lines upgrade silently -- a protocol ablation)."""

    cluster_organization: str = "shared-scc"
    """``"shared-scc"`` (the paper's design: one multi-ported shared
    cluster cache) or ``"private"`` (Section 2.1's alternative: a
    private cache per processor kept coherent over an intra-cluster
    snooping bus)."""

    intra_bus_occupancy: int = 2
    """Private organization only: cycles the intra-cluster bus is held
    per transaction."""

    intra_transfer_latency: int = 14
    """Private organization only: cycles for a cache-to-cache transfer
    between cluster-mates (far cheaper than the 100-cycle global
    fetch -- the clustering premise)."""

    line_size: int = 16
    """Cache line size in bytes; the paper picks 16 to limit false sharing."""

    banks_per_processor: int = 4
    """SCC banks provisioned per processor in the cluster (Section 2.2.2)."""

    memory_latency: int = 100
    """Fixed cycles to fetch a line from memory or a remote SCC (Sec 2.2.2)."""

    bus_occupancy: int = 4
    """Cycles the shared bus is held per line transfer; the remaining
    ``memory_latency - bus_occupancy`` cycles overlap with other traffic.
    Contention appears as queueing on this occupancy.  The default matches
    the Challenge-class bus the paper cites for its 100-cycle latency
    (Section 2.2.2): ~1.2 GB/s moving 16-byte lines is about four processor
    cycles of bus occupancy per transfer."""

    upgrade_bus_occupancy: int = 2
    """Bus cycles consumed by an invalidation (upgrade) broadcast that moves
    no data."""

    icache_size: int = 16 * KB
    """Per-processor instruction cache capacity in bytes (Section 4.2)."""

    icache_line_size: int = 32
    """Instruction cache line size in bytes."""

    icache_miss_latency: int = 100
    """Cycles to refill an instruction cache line."""

    write_buffer_depth: int = 4
    """Entries in each SCC bank's write buffer; stores retire without
    stalling the processor until the buffer is full."""

    stall_on_writes: bool = False
    """When ``True``, stores stall the processor until they complete
    (strict sequential consistency with no write buffering) -- the
    ablation that prices the write buffers Section 4.3 adds to every
    SCC bank."""

    bank_cycle_time: int = 1
    """Cycles a bank is busy per access (banks are pipelined SRAM)."""

    lock_overhead: int = 8
    """Cycles charged for an uncontended lock acquire/release (ANL macros)."""

    barrier_overhead: int = 16
    """Cycles charged to every process released from a barrier."""

    model_icache: bool = False
    """When ``False`` instruction fetches hit unconditionally; the parallel
    kernels fit comfortably in 16 KB so Section 3.1 runs disable modelling
    for speed.  The multiprogramming experiments enable it."""

    def __post_init__(self) -> None:
        _require(self.clusters >= 1, "clusters must be >= 1")
        _require(self.processors_per_cluster >= 1,
                 "processors_per_cluster must be >= 1")
        _require(_is_power_of_two(self.line_size),
                 "line_size must be a power of two")
        _require(_is_power_of_two(self.scc_size),
                 "scc_size must be a power of two")
        _require(self.scc_size % self.line_size == 0,
                 "scc_size must be a whole number of lines")
        _require(self.banks_per_processor >= 1,
                 "banks_per_processor must be >= 1")
        _require(self.associativity >= 1
                 and self.scc_lines % self.associativity == 0,
                 "associativity must divide the SCC line count")
        _require(self.protocol in ("msi", "mesi"),
                 "protocol must be 'msi' or 'mesi'")
        _require(self.inter_cluster in ("snoopy-bus", "directory"),
                 "inter_cluster must be 'snoopy-bus' or 'directory'")
        _require(self.directory_banks >= 1,
                 "directory_banks must be >= 1")
        _require(self.directory_occupancy >= 1,
                 "directory_occupancy must be >= 1")
        _require(self.remote_dirty_latency >= self.memory_latency,
                 "remote_dirty_latency must be >= memory_latency")
        _require(self.invalidation_latency >= 1,
                 "invalidation_latency must be >= 1")
        _require(self.cluster_organization in ("shared-scc", "private"),
                 "cluster_organization must be 'shared-scc' or 'private'")
        _require(self.intra_bus_occupancy >= 1,
                 "intra_bus_occupancy must be >= 1")
        _require(1 <= self.intra_transfer_latency <= self.memory_latency,
                 "intra_transfer_latency must be in [1, memory_latency]")
        if self.cluster_organization == "private":
            _require(self.scc_size % self.processors_per_cluster == 0
                     and _is_power_of_two(self.private_cache_size),
                     "scc_size must split into power-of-two private "
                     "caches across the cluster's processors")
        _require(self.num_banks <= self.scc_lines,
                 "more SCC banks than cache lines; shrink banks or grow SCC")
        _require(self.memory_latency >= 1, "memory_latency must be >= 1")
        _require(1 <= self.bus_occupancy <= self.memory_latency,
                 "bus_occupancy must lie in [1, memory_latency]")
        _require(self.upgrade_bus_occupancy >= 0,
                 "upgrade_bus_occupancy must be >= 0")
        _require(_is_power_of_two(self.icache_size)
                 and self.icache_size % self.icache_line_size == 0,
                 "icache_size must be a power of two multiple of its line")
        _require(self.write_buffer_depth >= 1,
                 "write_buffer_depth must be >= 1")
        _require(self.bank_cycle_time >= 1, "bank_cycle_time must be >= 1")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def total_processors(self) -> int:
        """Processors in the whole machine."""
        return self.clusters * self.processors_per_cluster

    @property
    def private_cache_size(self) -> int:
        """Per-processor cache capacity in the private organization:
        the same total SRAM as the shared SCC, split evenly."""
        return self.scc_size // self.processors_per_cluster

    @property
    def num_banks(self) -> int:
        """SCC banks per cluster (four per processor, Section 2.2.2)."""
        return self.banks_per_processor * self.processors_per_cluster

    @property
    def scc_lines(self) -> int:
        """Cache lines per SCC."""
        return self.scc_size // self.line_size

    @property
    def lines_per_bank(self) -> int:
        """Cache lines held by each SCC bank."""
        return self.scc_lines // self.num_banks

    @property
    def line_offset_bits(self) -> int:
        """Low address bits that select the byte within a line."""
        return self.line_size.bit_length() - 1

    def line_of(self, addr: int) -> int:
        """Map a byte address to its global line number."""
        return addr >> self.line_offset_bits

    def bank_of(self, addr: int) -> int:
        """Map a byte address to its SCC bank.

        Banks are interleaved on cache lines: consecutive lines live in
        consecutive banks (Section 2.1).
        """
        return self.line_of(addr) % self.num_banks

    def cluster_of(self, proc: int) -> int:
        """Cluster that processor ``proc`` (machine-global id) belongs to.

        Processors are numbered contiguously within a cluster, so processors
        ``0 .. p-1`` form cluster 0; this is also the placement the SPLASH
        partitioning strategies assume.
        """
        _require(0 <= proc < self.total_processors, "processor id out of range")
        return proc // self.processors_per_cluster

    def port_of(self, proc: int) -> int:
        """SCC port used by processor ``proc`` within its cluster."""
        _require(0 <= proc < self.total_processors, "processor id out of range")
        return proc % self.processors_per_cluster

    # ------------------------------------------------------------------
    # Presets and variants
    # ------------------------------------------------------------------

    def with_updates(self, **changes) -> "SystemConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)

    @classmethod
    def paper_parallel(cls, processors_per_cluster: int,
                       scc_size: int) -> "SystemConfig":
        """The Section 3.1 machine: four clusters, swept procs and SCC."""
        return cls(clusters=4,
                   processors_per_cluster=processors_per_cluster,
                   scc_size=scc_size)

    @classmethod
    def paper_multiprogramming(cls, processors_per_cluster: int,
                               scc_size: int) -> "SystemConfig":
        """The Section 3.2 machine: a single cluster, icache modelled."""
        return cls(clusters=1,
                   processors_per_cluster=processors_per_cluster,
                   scc_size=scc_size,
                   model_icache=True)


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)
