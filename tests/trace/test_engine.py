"""Unit tests for the replay-engine registry.

The cross-backend *timing* equivalence lives in ``tests/equivalence``
and the fuzz corpus; this module covers the selection machinery
(:mod:`repro.trace.engine`) -- the one piece with behavior of its own
beyond "same numbers as the python loop".
"""

import pytest

from repro.trace.engine import (BACKEND_CHOICES, available_backends,
                                backend_info, engine_degradation,
                                native_available, resolve_backend)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

class TestResolveBackend:
    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown replay backend"):
            resolve_backend("fortran")

    def test_env_var_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_backend() == "python"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_explicit_request_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        assert resolve_backend("python") == "python"

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()

    def test_requests_degrade_down_the_ladder(self, monkeypatch):
        import repro.trace.engine as engine
        monkeypatch.setattr(engine, "native_available", lambda: False)
        monkeypatch.setattr(engine, "native_unavailable_reason",
                            lambda: "no compiler")
        assert engine.resolve_backend("auto") == "python"
        assert engine.resolve_backend("native") == "python"
        assert "no compiler" in engine.engine_degradation("native")
        assert engine.engine_degradation("python") is None
        with pytest.raises(RuntimeError, match="no compiler"):
            engine.resolve_backend("native", strict=True)

    def test_retired_numpy_name_is_an_unavailable_tier(self, monkeypatch):
        """Stored requests (environment, specs, 1.2 wire payloads) may
        still name the removed tier; they run on python."""
        assert "numpy" not in BACKEND_CHOICES
        assert resolve_backend("numpy") == "python"
        monkeypatch.setenv("REPRO_ENGINE", "numpy")
        assert resolve_backend() == "python"
        assert backend_info()["resolved"] == "python"
        assert "removed" in engine_degradation()
        with pytest.raises(RuntimeError, match="removed"):
            resolve_backend("numpy", strict=True)

    def test_python_is_always_available(self):
        assert "python" in available_backends()
        assert set(available_backends()) <= set(BACKEND_CHOICES)
        assert BACKEND_CHOICES == ("auto", "python", "native")

    def test_backend_info_shape(self):
        info = backend_info()
        assert info["resolved"] in info["available"]
        if native_available():
            assert "native_version" in info
        else:
            assert info["native_error"]


def test_differ_registry_covers_available_backends():
    from repro.trace.engine.native import ladder_available
    from repro.verify.differ import engine_registry
    expected = {"oracle", "fast", "fused"}
    if native_available():
        expected.add("native")
        if ladder_available():
            expected.add("fused-native")
    assert set(engine_registry()) == expected
