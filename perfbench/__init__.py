"""Benchmark of the radiolabel package: time to a verdict on three workloads,
with a traced run that breaks each job down by module.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and how to read the metrics.
"""
