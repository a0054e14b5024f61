"""Closed-loop serving benchmark (entry point: ``perfbench/run.py``)."""
