"""Instrumented workloads: the SPLASH applications and the SPEC92-style
multiprogramming mix the paper evaluates (Sections 2.2-2.3)."""

from .._lazy import lazy_exports

__all__ = [
    "BarnesHut", "TracedApplication", "Cholesky",
    "SparsePattern", "Supernode", "bcsstk_like", "elimination_tree",
    "supernodes", "symbolic_factor",
    "ArrayRegion", "HeapExhaustedError", "Region", "SharedHeap",
    "MP3D", "MultiprogrammingWorkload",
    "SPEC92_PROFILES", "SpecApp", "SpecProfile", "spec92_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".barnes_hut": ("BarnesHut",),
    ".base": ("TracedApplication",),
    ".cholesky": ("Cholesky",),
    ".matrices": ("SparsePattern", "Supernode", "bcsstk_like",
                  "elimination_tree", "supernodes", "symbolic_factor"),
    ".memory": ("ArrayRegion", "HeapExhaustedError", "Region", "SharedHeap"),
    ".mp3d": ("MP3D",),
    ".multiprog": ("MultiprogrammingWorkload",),
    ".spec": ("SPEC92_PROFILES", "SpecApp", "SpecProfile", "spec92_workload"),
})
