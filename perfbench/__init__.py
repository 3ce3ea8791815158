"""Repository benchmark: named workloads, end-to-end metrics, traced layers.

Run ``python3 perfbench/run.py --help`` from the root of a checkout; see
``perfbench/README.md`` for the workloads and metrics.
"""
