"""Shared fixtures for the design-space optimizer tests."""

import pytest


@pytest.fixture
def counting_simulator(monkeypatch):
    """Count every real simulator invocation."""
    from repro.experiments import runner
    real = runner.run_simulation
    calls = []

    def counted(config, application, **kwargs):
        calls.append(type(application).__name__)
        return real(config, application, **kwargs)

    monkeypatch.setattr(runner, "run_simulation", counted)
    return calls
