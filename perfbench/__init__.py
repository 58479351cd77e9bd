"""The repository benchmark: see run.py and workloads.json."""
