"""Legacy setup shim and the C-extension build.

The offline environment lacks the ``wheel`` package that modern editable
installs (PEP 660) require, so ``pip install -e .`` falls back to this
classic setuptools entry point.  All real metadata lives in pyproject.toml.

The native extension (``repro.trace.engine._native``) is required: the
workloads make their streams with it and the fast timing engine is it.
It is built here, and a failed build fails the install with the
compiler's message.  Running from a source tree (``PYTHONPATH=src``)
needs no install: :mod:`repro.trace.engine.native` compiles it on first
use.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "repro.trace.engine._native",
    sources=["src/repro/trace/engine/_native.c"],
    # No a * b + c fused into one rounding on FMA targets: MP3D's and
    # Barnes-Hut's physics and spec_burst's comparisons round as python
    # does (the on-demand build's flags, engine/native.py's _CFLAGS).
    extra_compile_args=["-ffp-contract=off"],
)])
