"""Benchmark for the tridirac library and CLI; run `python3 perfbench/run.py --help`."""
