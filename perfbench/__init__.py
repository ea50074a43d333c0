"""The repository's benchmark: both end-to-end paths, layer by layer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics, ``perfbench/NOTES.md`` says why they were chosen.
"""
