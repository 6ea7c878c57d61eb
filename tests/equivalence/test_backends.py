"""Golden-equivalence of every packed replay backend.

The golden suite (:mod:`tests.equivalence.test_golden_stats`) pins the
python fast path against pre-packed-encoding fingerprints.  This module
closes the loop for the compiled tier: native re-runs the full golden
grid with the backend forced and must reproduce the same fingerprints
bit for bit.  A backend that silently ran on python would pass
trivially, so the resolution is asserted too.  The removed ``numpy``
tier's name rides the same grid: a stored request naming it must still
run, on python, to the same fingerprints.
"""

import pytest

from repro.trace.engine import resolve_backend

from .test_golden_stats import GOLDEN, fingerprint, run_key


@pytest.mark.parametrize("backend", ["native", "numpy"])
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_backend_matches_golden(key, backend, monkeypatch):
    """Each requestable backend reproduces every golden fingerprint
    (the ``instrumented`` keys carry a probe, so they run the reference
    loop whatever the request)."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert resolve_backend() == ("python" if backend == "numpy"
                                 else backend)
    assert fingerprint(run_key(key)) == GOLDEN[key]


def test_native_tier_present_or_reason():
    """The native tier engages for real: the extension is required."""
    assert resolve_backend("native") == "native"
    key = "multiprogramming|p1|s1024"
    assert fingerprint(run_key(key)) == GOLDEN[key]
