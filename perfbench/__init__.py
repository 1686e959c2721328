"""Benchmark of the Damaris reproduction: see perfbench/run.py."""
