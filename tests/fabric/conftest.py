"""Shared fixtures for the sweep-fabric tests."""

import pytest

from repro.core.config import KB
from repro.experiments.runner import RunStats
from repro.experiments.spec import SweepSpec


@pytest.fixture
def tiny_spec(tiny_profile):
    """A 2x2 mp3d grid small enough for every end-to-end test."""
    return SweepSpec.parallel("mp3d", profile=tiny_profile,
                              ladder=(4 * KB, 8 * KB), procs=(1, 2),
                              retry_backoff=0.0)


def make_stats(seed: int = 0) -> RunStats:
    """A distinguishable, wire-safe RunStats payload."""
    return RunStats(execution_time=1000 + seed, read_miss_rate=0.25,
                    miss_rate=0.2, invalidations=seed, reads=100,
                    writes=50, events=200)


class FakeClock:
    """Deterministic monotonic clock for lease-expiry tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def counting_simulator(monkeypatch):
    """Count every real simulator invocation (any thread)."""
    from repro.experiments import runner
    real = runner.run_simulation
    calls = []

    def counted(config, application, **kwargs):
        calls.append(type(application).__name__)
        return real(config, application, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counted)
    return calls
