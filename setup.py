"""Legacy setup shim (and optional C-extension build).

The offline environment lacks the ``wheel`` package that modern editable
installs (PEP 660) require, so ``pip install -e .`` falls back to this
classic setuptools entry point.  All real metadata lives in pyproject.toml.

The native replay backend (``repro.trace.engine._native``) is built here
when a C toolchain is present, and skipped -- loudly but non-fatally --
when it is not: the package is pure-python-complete (without the
extension every run is on the per-event reference loop and ladders replay
once per size -- same results, slower; README "Replay engines" has the
measured cost), the extension is the one fast engine, and
:mod:`repro.trace.engine.native` can also compile it on demand at import
time.  Set ``REPRO_BUILD_NATIVE=0`` to skip the build attempt entirely.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """``build_ext`` that degrades to a pure-python install on failure."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:
            self._skip(exc)

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:
            self._skip(exc)

    def _skip(self, exc):
        print(f"WARNING: native replay backend not built ({exc}); "
              f"the reference loop remains fully functional, slower")


if os.environ.get("REPRO_BUILD_NATIVE", "1") == "0":
    extensions = []
else:
    extensions = [Extension(
        "repro.trace.engine._native",
        sources=["src/repro/trace/engine/_native.c"],
        optional=True,
    )]

setup(ext_modules=extensions,
      cmdclass={"build_ext": optional_build_ext})
