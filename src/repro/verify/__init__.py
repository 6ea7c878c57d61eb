"""Differential verification of the execution paths.

The simulator has one reference timing engine -- the per-event
interleaver loop over the :mod:`repro.core` objects -- and one compiled
engine with two entry points, packed replay and the fused
multi-configuration ladder.  Golden fingerprints pin a fixed set of
runs; this package closes the gap the way cache-simulator reproductions
normally do: differential testing of the compiled engine against the
reference loop, and of the reference loop against a slow,
obviously-correct functional model, over seeded adversarial inputs.

* :mod:`repro.verify.tapes` -- seeded random generator of packed event
  tapes (all opcodes, lock/barrier/queue sync, pathological line
  aliasing, 1-8 processors across 1-4 clusters).
* :mod:`repro.verify.oracle` -- a dict-based MESI functional model run
  as the interleaver's observer (``on_access``, called before every data
  reference); checks residency, exclusivity, inclusion of in-flight
  fills, and write-buffer bounds after every transaction.
* :mod:`repro.verify.differ` -- runs one tape through every applicable
  engine and diffs cycle counts, per-cluster statistics, and final
  tag/state arrays.
* :mod:`repro.verify.shrink` -- delta-debugging reduction of a
  diverging tape to a minimal repro (written to ``<cache root>/repros``).
* :mod:`repro.verify.fuzz` -- the supervised fuzz campaign behind
  ``python -m repro fuzz``.
"""

from .._lazy import lazy_exports

__all__ = [
    "Tape", "TapeApplication", "generate_tape", "tape_from_json",
    "tape_to_json",
    "FunctionalOracle", "OracleViolation",
    "PathResult", "TapeDivergence", "diff_tape", "run_tape",
    "shrink_tape", "write_repro",
    "FuzzDivergence", "FuzzReport", "default_repro_dir", "run_fuzz",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".differ": ("PathResult", "TapeDivergence", "diff_tape", "run_tape"),
    ".fuzz": ("FuzzDivergence", "FuzzReport", "default_repro_dir", "run_fuzz"),
    ".oracle": ("FunctionalOracle", "OracleViolation"),
    ".shrink": ("shrink_tape", "write_repro"),
    ".tapes": ("Tape", "TapeApplication", "generate_tape", "tape_from_json",
               "tape_to_json"),
})
