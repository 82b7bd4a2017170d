"""Benchmark CLI: ``python -m repro.bench [--quick]``.

Runs the application workload suite and writes ``BENCH_<mode>.json``
(override with ``--output``).  The document carries model outputs only
(cycles, energy, attribution); compare two documents with::

    python -m repro.obs diff old.json new.json --exact

Host wall-clock is measured end to end by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.core import run_bench, summarize, write_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the ORIANNA workload suite and emit BENCH JSON.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="OoO policy only (the CI configuration)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", metavar="FILE",
                        help="output path (default BENCH_<mode>.json)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    document = run_bench(quick=args.quick, seed=args.seed)
    elapsed = time.perf_counter() - started

    path = args.output or f"BENCH_{document['mode']}.json"
    write_bench(path, document)
    print(summarize(document))
    print(f"wrote {path} in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
