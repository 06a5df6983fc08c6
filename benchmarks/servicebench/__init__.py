"""Benchmark of the charging service: three workloads, one command.

Run ``python3 benchmarks/servicebench/run.py --workload durable --seed 42
--seconds 8 --trace 0``; see ``README.md`` here.  Importing this package
imports nothing else, so the set-up probe can time ``import repro`` alone.
"""
