"""Benchmark of the octformer system: workloads, tracing and the runner."""
