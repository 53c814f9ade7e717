"""Closed-loop benchmark of the heawood package; run ``python3 perfbench/run.py --help``."""
