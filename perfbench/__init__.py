"""Benchmark of the semicontract pipeline; run it with `python3 perfbench/run.py`."""
