"""Machine-readable performance benchmarking: ``python -m repro.bench``.

Runs the paper's application workloads on the representative ORIANNA
accelerator and writes a schema-versioned ``BENCH_*.json`` document
(cycles, energy, utilization, provenance attribution per workload).
Every field is a model output, deterministic per seed.
``python -m repro.obs diff --exact`` compares two such documents and
exits nonzero on any difference, which is how CI gates the model
against the committed baseline in ``benchmarks/baseline/``.
"""

from repro.bench.core import (
    BENCH_SCHEMA,
    bench_document,
    load_bench,
    run_bench,
    write_bench,
)
from repro.bench.diff import EXACT_SKIP_SECTIONS, diff_documents, render_diff

__all__ = [
    "BENCH_SCHEMA",
    "EXACT_SKIP_SECTIONS",
    "bench_document",
    "load_bench",
    "run_bench",
    "write_bench",
    "diff_documents",
    "render_diff",
]
