"""Performance benchmark harness (``repro bench``)."""

from .perf import (
    BENCH_SCHEMA,
    DEFAULT_OUTPUT,
    bench_provenance,
    run_benchmarks,
    validate_document,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_OUTPUT",
    "bench_provenance",
    "run_benchmarks",
    "validate_document",
]
