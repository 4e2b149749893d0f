"""Benchmark harness: configs, runners, aggregation, and reports."""
