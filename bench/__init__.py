"""The repo's benchmark: paper-grid workloads, end-to-end metrics, and a
traced pass that attributes host time to layers.  See ``bench/README.md``.
"""
