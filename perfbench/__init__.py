"""Benchmark of the glci command line; run it with `python3 perfbench/run.py`."""
