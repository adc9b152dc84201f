"""Benchmark of the dpledger library: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. See ``run.py``.
"""
