"""Benchmark of dircq; run perfbench/run.py."""
