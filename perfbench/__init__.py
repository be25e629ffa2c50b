"""The analyser's end-to-end and per-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload batch-suite --seed 1 --seconds 45 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how they
map onto the older ``benchmarks/results/BENCH_*.json`` files.
"""
