"""Cycle-level clustered shared-cache multiprocessor simulator.

The paper's primary evaluation vehicle: four clusters of one to eight
processors each sharing a banked, multi-ported Shared Cluster Cache, kept
coherent over a snoopy invalidation bus (Sections 2.1-2.2).
"""

from .._lazy import lazy_exports

__all__ = [
    "BusTransaction", "SnoopyBus",
    "INVALID", "MODIFIED", "SHARED", "STATE_NAMES", "DirectMappedArray",
    "SetAssociativeArray", "make_array",
    "PrivateCache", "PrivateClusterSystem",
    "Cluster", "AccessOutcome", "CoherenceController",
    "DirectoryController", "DirectoryEntry",
    "KB", "SystemConfig",
    "INSTRUCTION_BYTES", "InstructionCache", "BankInterconnect",
    "ProcessorState", "SharedClusterCache",
    "ProcessorStats", "SccStats", "SystemStats",
    "MultiprocessorSystem",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bus": ("BusTransaction", "SnoopyBus"),
    ".cache": ("INVALID", "MODIFIED", "SHARED", "STATE_NAMES",
               "DirectMappedArray", "SetAssociativeArray", "make_array"),
    ".cluster": ("Cluster",),
    ".coherence": ("AccessOutcome", "CoherenceController"),
    ".directory": ("DirectoryController", "DirectoryEntry"),
    ".config": ("KB", "SystemConfig"),
    ".icache": ("INSTRUCTION_BYTES", "InstructionCache"),
    ".interconnect": ("BankInterconnect",),
    ".private": ("PrivateCache", "PrivateClusterSystem"),
    ".processor": ("ProcessorState",),
    ".scc": ("SharedClusterCache",),
    ".stats": ("ProcessorStats", "SccStats", "SystemStats"),
    ".system": ("MultiprocessorSystem",),
})
