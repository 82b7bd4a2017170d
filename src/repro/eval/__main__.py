"""Command-line experiment runner: ``python -m repro.eval``.

Runs the paper-reproduction experiments and prints their tables.  By
default the fast subset runs; ``--all`` includes the slow sweeps
(mission success over 30 seeds, the Fig. 19/20 hardware-generation
sweeps, the full-size sphere benchmark).

Examples::

    python -m repro.eval                 # fast subset
    python -m repro.eval --all           # everything
    python -m repro.eval --only F13 F14  # specific experiment ids
    python -m repro.eval --markdown      # markdown instead of plain text
    python -m repro.eval --output out.txt          # tables to a file
    python -m repro.eval --metrics metrics.json    # metrics JSON export
    python -m repro.eval --trace-dir traces/       # Chrome traces

``--metrics`` and ``--trace-dir`` enable the observability collector
(:mod:`repro.obs`) for the run: every experiment then contributes a
metrics entry (cycles, energy breakdown, per-pass compiler timings,
issue-stall counters) and, with ``--trace-dir``, a Chrome/Perfetto
``trace_event`` JSON file — one track per accelerator unit instance plus
the host-side optimizer/compiler spans.  Experiments that share one
runner (F13/F14, F16*, F17/F18) share one recorded run; their entries
repeat the shared telemetry.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.eval import experiments
from repro.eval.harness import ExperimentTable
from repro.obs.metrics import experiment_entry, write_metrics
from repro.obs.trace_export import write_chrome_trace


def _fig13(args):
    return experiments.experiment_fig13_fig14(seed=args.seed)


def _fig16(args):
    return experiments.experiment_fig16(seed=args.seed)


def _fig17(args):
    return experiments.experiment_fig17_fig18(seed=args.seed)


# id -> (slow?, runner returning a table or tuple of tables)
EXPERIMENTS = {
    "S43": (False, lambda args: experiments.experiment_sec43()),
    "T1": (True, lambda args: experiments.experiment_table1(seed=args.seed)),
    "T5": (True, lambda args: experiments.experiment_table5(
        num_missions=args.missions)),
    "F13": (False, _fig13),
    "F14": (False, _fig13),
    "F15": (False, lambda args: experiments.experiment_fig15(
        seed=args.seed)),
    "F16a": (False, _fig16),
    "F16b": (False, _fig16),
    "F16c": (False, _fig16),
    "F17": (False, _fig17),
    "F18": (False, _fig17),
    "F19": (True, lambda args: experiments.experiment_fig19(
        seed=args.seed)),
    "F20": (True, lambda args: experiments.experiment_fig20(
        seed=args.seed)),
    "LBRK": (False, lambda args: experiments.experiment_latency_breakdown(
        seed=args.seed)),
    "AOOO": (False, lambda args: experiments.experiment_ablation_ooo(
        seed=args.seed)),
    "SCAL": (False, lambda args: _scaling(args)),
}


def _scaling(args):
    from repro.eval.scaling import experiment_scaling

    return experiment_scaling(seed=args.seed)


def _tables_of(result):
    if isinstance(result, ExperimentTable):
        return [result]
    return list(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the ORIANNA paper's evaluation tables.",
    )
    parser.add_argument("--all", action="store_true",
                        help="include the slow experiments")
    parser.add_argument("--only", nargs="+", metavar="ID",
                        help=f"run only these ids "
                             f"({', '.join(EXPERIMENTS)})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--missions", type=int, default=30,
                        help="missions per application for T5")
    parser.add_argument("--markdown", action="store_true",
                        help="emit GitHub markdown tables")
    parser.add_argument("--output", metavar="FILE",
                        help="write the tables to FILE instead of stdout")
    parser.add_argument("--metrics", metavar="FILE",
                        help="export a metrics JSON document to FILE")
    parser.add_argument("--trace-dir", metavar="DIR",
                        help="write one Chrome trace_event JSON per "
                             "experiment into DIR")
    parser.add_argument("--obs-debug", action="store_true",
                        help="arm the simulator's schedule-invariant "
                             "assertions while observing")
    args = parser.parse_args(argv)

    if args.only:
        unknown = [x for x in args.only if x not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiment ids: {unknown}")
        selected = list(dict.fromkeys(args.only))
    else:
        selected = [eid for eid, (slow, _) in EXPERIMENTS.items()
                    if args.all or not slow]

    observing = bool(args.metrics or args.trace_dir)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    if observing:
        obs.enable(debug=args.obs_debug)
        obs.collector().drain()  # start each run from a clean stream
    try:
        stream = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        parser.error(f"cannot open --output file: {exc}")
    entries = []
    try:
        cache = {}
        for eid in selected:
            _, runner = EXPERIMENTS[eid]
            key = runner  # shared runners (F13/F14, F16*, F17/F18) cache
            if key not in cache:
                with obs.trace.span(f"experiment.{eid}", category="eval"):
                    started = time.perf_counter()
                    tables = _tables_of(runner(args))
                    elapsed = time.perf_counter() - started
                snapshot = obs.collector().drain() if observing else None
                cache[key] = (tables, elapsed, snapshot)
            tables, elapsed, snapshot = cache[key]
            for table in tables:
                if table.experiment_id != eid:
                    continue
                if args.markdown:
                    print(f"### {table.title}\n", file=stream)
                    print(table.to_markdown(), file=stream)
                    print(file=stream)
                else:
                    print(table.format(), file=stream)
                    print(f"[{eid} in {elapsed:.1f}s]", file=stream)
                    print(file=stream)
            if snapshot is not None:
                entries.append(experiment_entry(eid, elapsed, snapshot))
                if args.trace_dir:
                    write_chrome_trace(
                        os.path.join(args.trace_dir,
                                     f"{eid.lower()}.trace.json"),
                        snapshot,
                    )
    finally:
        if stream is not sys.stdout:
            stream.close()
        if observing:
            obs.disable()

    if args.metrics:
        write_metrics(args.metrics, entries, meta={
            "command": "python -m repro.eval",
            "seed": args.seed,
            "experiments": selected,
            "unix_time": time.time(),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
