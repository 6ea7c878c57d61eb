"""Fixtures shared by more than one test directory."""

import sys

import pytest

#: The one statement the mutant changes: when a read miss lets its
#: processor carry on.
_READ_MISS_DONE = "*done = fill + 1;"


@pytest.fixture(scope="session")
def mutant_native(tmp_path_factory):
    """``_native`` with an off-by-one in its read-miss path, built from
    the source text into a cache of its own -- the production object
    carries no mutation switch.  Skips, with the loader's reason, on a
    host that cannot build the extension at all."""
    from repro.trace.engine import native, native_unavailable_reason
    if native.load() is None:
        pytest.skip(f"native replay backend unavailable: "
                    f"{native_unavailable_reason()}")
    source = native._source_path().read_text()
    assert source.count(_READ_MISS_DONE) == 1
    root = tmp_path_factory.mktemp("mutant-native")
    mutated = root / "_native.c"
    mutated.write_text(source.replace(_READ_MISS_DONE, "*done = fill + 2;"))
    # Loading a single-phase extension also registers it in sys.modules,
    # where a later ``load()`` would find the mutant as the in-place build.
    name = "repro.trace.engine._native"
    registered = sys.modules.get(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_CACHE", str(root / "cache"))
        patch.setattr(native, "_source_path", lambda: mutated)
        patch.setattr(native, "LOAD_ERROR", None)
        try:
            module = native._compile_on_demand()
            assert module is not None, native.LOAD_ERROR
        finally:
            if registered is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = registered
    return module


@pytest.fixture
def off_by_one_read_miss(mutant_native, monkeypatch):
    """Run the native engine (and only it: the reference loop shares no
    code with ``_native.c``) on the mutant for one test."""
    from repro.trace.engine import native
    monkeypatch.setattr(native, "_mod", mutant_native)
