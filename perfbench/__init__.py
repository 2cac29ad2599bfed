"""Seeded, layered benchmark for contactmech (run with ``python3 perfbench/run.py``)."""
