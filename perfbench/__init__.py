"""End-to-end and per-layer benchmark of dualtherm; entry point ``perfbench/run.py``."""
