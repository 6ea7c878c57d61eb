"""Python twins of the native extension's workload kernels.

Each workload of ``repro.workloads`` makes its streams in C
(``barnes_processes``, ``mp3d_processes``, ``spec_burst`` in
``src/repro/trace/engine/_native.c``).  The modules here are the same
programs written in python, kept as the references the parity tests,
hostile-input tests and mutation tests hold the C kernels to: resume for
resume the same chunks, draw for draw the same words, and the same state
left behind.  Nothing under ``src/`` imports them.
"""
