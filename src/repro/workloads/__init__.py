"""Instrumented workloads: the SPLASH applications and the SPEC92-style
multiprogramming mix the paper evaluates (Sections 2.2-2.3)."""

from .barnes_hut import BarnesHut
from .base import TracedApplication
from .cholesky import Cholesky
from .matrices import (SparsePattern, Supernode, bcsstk_like,
                       elimination_tree, supernodes, symbolic_factor)
from .memory import ArrayRegion, HeapExhaustedError, Region, SharedHeap
from .mp3d import MP3D
from .multiprog import MultiprogrammingWorkload
from .spec import SPEC92_PROFILES, SpecApp, SpecProfile, spec92_workload

__all__ = [
    "BarnesHut", "TracedApplication", "Cholesky",
    "SparsePattern", "Supernode", "bcsstk_like", "elimination_tree",
    "supernodes", "symbolic_factor",
    "ArrayRegion", "HeapExhaustedError", "Region", "SharedHeap",
    "MP3D", "MultiprogrammingWorkload",
    "SPEC92_PROFILES", "SpecApp", "SpecProfile", "spec92_workload",
]
