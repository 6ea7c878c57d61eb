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

import json

import pytest

from repro.instrument import InstrumentationProbe
from repro.trace.engine import resolve_backend

from .test_golden_stats import GOLDEN, fingerprint, run_key


@pytest.mark.parametrize("backend", ["native", "numpy"])
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_backend_matches_golden(key, backend, monkeypatch):
    """Each requestable backend reproduces every golden fingerprint."""
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert resolve_backend() == ("python" if backend == "numpy"
                                 else backend)
    assert fingerprint(run_key(key)) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_native_probe_registry_matches_the_reference_loop(
        key, monkeypatch, engines_used):
    """Every golden point under the standard probe: the registry and
    the cached digest are the same text on both engines -- same keys,
    same bins, same types -- on top of the fingerprint.  The
    ``instrumented`` keys (and every machine the engine runs) must get
    there natively; variants it does not run compare python to python.
    """
    text = {}
    for backend in ("python", "native"):
        monkeypatch.setenv("REPRO_ENGINE", backend)
        probe = InstrumentationProbe(bin_width=512, record_events=False)
        assert fingerprint(run_key(key, probe=probe)) == GOLDEN[key]
        text[backend] = (
            json.dumps(probe.registry.as_dict(), sort_keys=True),
            json.dumps(probe.summary(), sort_keys=True))
    assert text["native"] == text["python"]
    reference_only = key.endswith(("|assoc2", "|private", "|directory"))
    assert engines_used == ["python",
                            "python" if reference_only else "native"]


def test_native_tier_present_or_reason():
    """The native tier engages for real: the extension is required."""
    assert resolve_backend("native") == "native"
    key = "multiprogramming|p1|s1024"
    assert fingerprint(run_key(key)) == GOLDEN[key]
