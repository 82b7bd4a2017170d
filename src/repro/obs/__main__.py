"""Observability CLI: ``python -m repro.obs <command>``.

- ``report metrics.json`` — flat profile summary (per-experiment totals,
  top compiler passes by wall time, top units by busy cycles, stalls)
  over a metrics document from ``python -m repro.eval --metrics``.
- ``profile metrics.json`` — provenance-attributed hotspot profile: top
  factor types/factors by cycles and energy, the algorithm-stage
  breakdown, the critical-path listing, and the slack histogram.
- ``diff old.json new.json`` — compare two BENCH documents from
  ``python -m repro.bench`` (or campaign/chaos runs); exits 1 when any
  workload's cycles or energy regressed beyond ``--threshold``, or
  with ``--exact`` (the CI gate) on any difference outside the
  advisory sections; 2 when a document is missing or unreadable.
- ``bottleneck file.json`` — top-down cycle accounting: the
  makespan-identity line (chain compute + attributed wait), wait-cause
  breakdowns, the gating chain, unit contention, and the roofline, over
  either a metrics or a BENCH document.
- ``advise`` — run the what-if advisor over the application suite:
  enumerate config deltas (+1 unit instance, +1 issue width, policy,
  buffer), predict their payoff from the wait attribution, validate the
  top-k by resimulation, and report predicted-vs-measured speedup.
- ``hotspots file.json`` — the host phase timers (build, compile,
  rebind, execute, simulate, ...) of a metrics document, from its
  ``host.phase`` spans.  A BENCH document carries no host timing and
  renders the empty table.
- ``vtrace`` — record a per-instruction value trace
  (:mod:`repro.obs.vtrace`) of one application frame: a blake2 digest
  per destination register plus provenance, streamed as chunked JSONL,
  with a full-value ring buffer; ``--fault-rate`` injects a
  deterministic ``repro.resilience`` value-fault schedule first, and
  ``--executor fused`` records through the fused vectorized backend
  (the CI parity smoke diffs a fused trace against an interpreter one).
- ``divergence A.trace B.trace`` — align two value traces and report
  the first diverging instruction with its provenance, abs/rel/ulp
  error stats for ring-captured values, and the def-use backward slice
  of suspect producers; ``--capture-window N`` re-executes both
  producers with full-value capture around the divergence point.
  Exits 0 on agreement, 1 on divergence, 2 on an unreadable trace.
- ``slo file.json`` — per-app×executor SLO table (deadline hit-rate,
  degradation/wrong/crash rate, p50/p95/p99 solve latency from the
  fleet quantile sketch) over a document carrying fleet telemetry (a
  BENCH/campaign/chaos document's ``fleet`` section, or a metrics
  document's per-experiment sections merged).  Exits 1 when any
  ``--target name=value`` (or default) SLO is breached, 2 on an
  unreadable document.
- ``top file.json`` — fleet summary over the same documents: top
  counter series by value, per-label-set latency percentiles, window
  rollups; ``--prom FILE`` / ``--jsonl FILE`` additionally export the
  Prometheus text exposition and the JSONL time series.

``report``, ``profile``, ``bottleneck``, ``hotspots``, ``divergence``,
``slo``, and ``top`` all accept
``--json FILE`` to additionally write their raw analysis as a
machine-readable artifact.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.metrics import load_metrics
from repro.obs.profile import render_profile
from repro.obs.report import render_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect exported observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="print a profile summary of a metrics JSON file"
    )
    report.add_argument("metrics", help="path to a --metrics output file")
    report.add_argument("--top", type=int, default=10,
                        help="rows per ranking section (default 10)")
    report.add_argument("--json", metavar="FILE",
                        help="also write the aggregated profile summary "
                             "as JSON")

    profile = sub.add_parser(
        "profile",
        help="print a provenance-attributed hotspot profile of a "
             "metrics JSON file",
    )
    profile.add_argument("metrics", help="path to a --metrics output file")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per ranking section (default 10)")
    profile.add_argument("--json", metavar="FILE",
                         help="also write the raw attribution and "
                              "numeric-health aggregates as JSON")

    diff = sub.add_parser(
        "diff",
        help="compare two BENCH JSON documents; exit 1 on regression",
    )
    diff.add_argument("old", help="baseline BENCH document")
    diff.add_argument("new", help="candidate BENCH document")
    diff.add_argument("--threshold", type=float, default=0.10,
                      help="relative regression tolerance (default 0.10)")
    diff.add_argument("--exact", action="store_true",
                      help="require bit-identical metrics (the "
                           "baseline gate); any difference in either "
                           "direction fails")

    bottleneck = sub.add_parser(
        "bottleneck",
        help="print the top-down cycle accounting of a metrics or "
             "BENCH JSON file",
    )
    bottleneck.add_argument("document",
                            help="a --metrics output or BENCH document")
    bottleneck.add_argument("--top", type=int, default=10,
                            help="rows per ranking section (default 10)")
    bottleneck.add_argument("--json", metavar="FILE",
                            help="also write the raw cycle accounting "
                                 "as JSON")

    advise_p = sub.add_parser(
        "advise",
        help="run the what-if advisor over the application suite "
             "(predict + validate config deltas)",
    )
    advise_p.add_argument("--app", default=None,
                          help="restrict to one application by name "
                               "(default: all four)")
    advise_p.add_argument("--policy", default="ooo",
                          choices=("ooo", "inorder", "sequential"),
                          help="issue policy to advise on (default ooo)")
    advise_p.add_argument("--issue-width", type=int, default=None,
                          help="dispatch width (default unbounded)")
    advise_p.add_argument("--minimal", action="store_true",
                          help="advise on the minimal one-unit-per-class "
                               "config instead of the representative "
                               "ORIANNA accelerator")
    advise_p.add_argument("--top-k", type=int, default=3,
                          help="candidates to validate by resimulation "
                               "(default 3)")
    advise_p.add_argument("--seed", type=int, default=0,
                          help="workload seed (default 0)")

    hotspots_p = sub.add_parser(
        "hotspots",
        help="print the host phase timers of a metrics or BENCH JSON "
             "file",
    )
    hotspots_p.add_argument("document",
                            help="a --metrics output or BENCH document")
    hotspots_p.add_argument("--json", metavar="FILE",
                            help="also write the phase timers as JSON")

    vtrace_p = sub.add_parser(
        "vtrace",
        help="record a per-instruction value trace of one application "
             "frame",
    )
    vtrace_p.add_argument("--app", required=True,
                          help="application name (e.g. MobileRobot)")
    vtrace_p.add_argument("--seed", type=int, default=0,
                          help="workload seed (default 0)")
    vtrace_p.add_argument("--output", "-o", required=True,
                          help="trace file to write (JSONL)")
    vtrace_p.add_argument("--ring", type=int, default=32,
                          help="full-value ring buffer size in "
                               "instructions (default 32; 0 disables)")
    vtrace_p.add_argument("--capture", nargs=2, type=int,
                          metavar=("LO", "HI"), default=None,
                          help="record full values inline for seq in "
                               "[LO, HI)")
    vtrace_p.add_argument("--fault-rate", type=float, default=0.0,
                          help="per-instruction value-fault probability "
                               "(default 0: clean run)")
    vtrace_p.add_argument("--fault-seed", type=int, default=0,
                          help="fault-schedule seed (default 0)")
    vtrace_p.add_argument("--fault-model", default="value",
                          choices=("value", "bitflip"),
                          help="value-domain fault model (default value)")
    vtrace_p.add_argument("--fault-magnitude", type=float, default=0.05,
                          help="relative value-fault size (default 0.05)")
    vtrace_p.add_argument("--max-faults", type=int, default=None,
                          help="cap on scheduled faults")
    vtrace_p.add_argument("--executor", metavar="NAME", default=None,
                          help="value-domain backend: interpreter or "
                               "fused (default: $REPRO_EXECUTOR or "
                               "interpreter); ignored for fault runs, "
                               "which are per-instruction")

    divergence_p = sub.add_parser(
        "divergence",
        help="align two value traces and report the first diverging "
             "instruction; exit 1 on divergence",
    )
    divergence_p.add_argument("a", help="first trace file")
    divergence_p.add_argument("b", help="second trace file")
    divergence_p.add_argument("--align", default="seq",
                              choices=("seq", "uid"),
                              help="record alignment: positional (seq) "
                                   "or by instruction uid (default seq)")
    divergence_p.add_argument("--slice", type=int, default=8,
                              help="backward-slice size in producers "
                                   "(default 8)")
    divergence_p.add_argument("--capture-window", type=int, default=None,
                              metavar="N",
                              help="re-execute both producers with full "
                                   "capture N instructions around the "
                                   "divergence point")
    divergence_p.add_argument("--capture-dir", default=".",
                              help="directory for --capture-window "
                                   "re-execution traces (default .)")
    divergence_p.add_argument("--json", metavar="FILE",
                              help="also write the divergence report "
                                   "as JSON")

    slo_p = sub.add_parser(
        "slo",
        help="per-app×executor SLO table over a document's fleet "
             "telemetry; exit 1 on a breached target",
    )
    slo_p.add_argument("document",
                       help="a BENCH/campaign/chaos or metrics JSON "
                            "file carrying fleet telemetry")
    slo_p.add_argument("--target", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override one SLO target (repeatable); "
                            "NAME one of min_deadline_hit_rate, "
                            "max_degraded_rate, max_wrong_rate, "
                            "max_crash_rate, max_p99_s; VALUE a float "
                            "or 'none' to disable")
    slo_p.add_argument("--json", metavar="FILE",
                       help="also write the SLO evaluation as JSON")

    top_p = sub.add_parser(
        "top",
        help="fleet summary: per-label-set counter totals and latency "
             "percentiles over a document's fleet telemetry",
    )
    top_p.add_argument("document",
                       help="a BENCH/campaign/chaos or metrics JSON "
                            "file carrying fleet telemetry")
    top_p.add_argument("--top", type=int, default=10,
                       help="rows per ranking section (default 10)")
    top_p.add_argument("--prom", metavar="FILE",
                       help="also export the Prometheus text exposition")
    top_p.add_argument("--jsonl", metavar="FILE",
                       help="also export the JSONL time series")
    top_p.add_argument("--json", metavar="FILE",
                       help="also write the raw fleet section as JSON")

    args = parser.parse_args(argv)

    if args.command in ("report", "profile"):
        try:
            document = load_metrics(args.metrics)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        renderer = render_report if args.command == "report" \
            else render_profile
        if args.command == "report" and args.json:
            from repro.obs.emit import write_json
            from repro.obs.report import report_payload

            write_json(args.json, report_payload(document))
        if args.command == "profile" and args.json:
            from repro.obs.emit import write_json
            from repro.obs.profile import (
                aggregate_attribution,
                aggregate_health,
            )

            write_json(args.json, {
                "schema": "repro.obs.profile/1",
                "attribution": aggregate_attribution(document),
                "health": aggregate_health(document),
            })
        print(renderer(document, top=args.top))
        return 0

    if args.command == "diff":
        from repro.bench.core import load_bench
        from repro.bench.diff import diff_documents, render_diff

        try:
            old = load_bench(args.old)
            new = load_bench(args.new)
            result = diff_documents(old, new, threshold=args.threshold,
                                    exact=args.exact)
        except (OSError, ValueError) as exc:
            # A missing or malformed document is a usage problem, not a
            # regression: one line on stderr, exit 2 (distinct from the
            # exit-1 regression signal the CI gate keys on).
            print(f"repro.obs diff: {exc}", file=sys.stderr)
            return 2
        print(render_diff(result))
        return 1 if result["regressions"] else 0

    if args.command == "bottleneck":
        import json

        from repro.obs.bottleneck import bottleneck_payload, \
            render_bottleneck

        try:
            with open(args.document) as fh:
                document = json.load(fh)
            rendered = render_bottleneck(document, top=args.top)
            if args.json:
                from repro.obs.emit import write_json

                write_json(args.json, bottleneck_payload(document))
        except (OSError, ValueError) as exc:
            print(f"repro.obs bottleneck: {exc}", file=sys.stderr)
            return 2
        print(rendered)
        return 0

    if args.command == "advise":
        from repro.apps import all_applications
        from repro.eval.experiments import ORIANNA_CONFIG
        from repro.hw.accelerator import minimal_config
        from repro.obs.bottleneck import render_advice
        from repro.sim.bottleneck import advise

        config = minimal_config() if args.minimal else ORIANNA_CONFIG
        apps = [a for a in all_applications()
                if args.app is None or a.name == args.app]
        if not apps:
            known = ", ".join(a.name for a in all_applications())
            print(f"repro.obs advise: unknown app {args.app!r} "
                  f"(known: {known})", file=sys.stderr)
            return 2
        advices = []
        for app in apps:
            program = app.compile_frame(args.seed)
            advices.append(advise(program, config, args.policy,
                                  issue_width=args.issue_width,
                                  top_k=args.top_k, label=app.name))
        print(render_advice(advices))
        return 0

    if args.command == "hotspots":
        import json

        from repro.obs.hotspots import hotspots_payload, render_hotspots

        try:
            with open(args.document) as fh:
                document = json.load(fh)
            rendered = render_hotspots(document)
            if args.json:
                from repro.obs.emit import write_json

                write_json(args.json, hotspots_payload(document))
        except (OSError, ValueError) as exc:
            print(f"repro.obs hotspots: {exc}", file=sys.stderr)
            return 2
        print(rendered)
        return 0

    if args.command == "vtrace":
        from repro.obs.divergence import record_app_trace

        fault = None
        if args.fault_rate > 0.0:
            fault = {
                "fault_model": args.fault_model,
                "rate": args.fault_rate,
                "seed": args.fault_seed,
                "magnitude": args.fault_magnitude,
                "max_faults": args.max_faults,
            }
        try:
            summary = record_app_trace(
                args.app, args.seed, args.output,
                ring_size=args.ring,
                capture_range=tuple(args.capture) if args.capture else None,
                fault=fault,
                executor_name=args.executor,
            )
        except (OSError, ValueError) as exc:
            print(f"repro.obs vtrace: {exc}", file=sys.stderr)
            return 2
        line = (f"traced {summary['app']} seed {summary['seed']}: "
                f"{summary['instructions']} instructions -> "
                f"{summary['path']} "
                f"(fingerprint {summary['fingerprint']})")
        if summary["fault_uids"]:
            uids = ", ".join(str(u) for u in summary["fault_uids"])
            line += f"; injected fault uids: {uids}"
        print(line)
        return 0

    if args.command in ("slo", "top"):
        import json

        from repro.obs.slo import collect_fleet

        try:
            with open(args.document) as fh:
                document = json.load(fh)
            if not isinstance(document, dict):
                raise ValueError(f"{args.document}: not a JSON object")
            section = collect_fleet(document)
        except (OSError, ValueError) as exc:
            print(f"repro.obs {args.command}: {exc}", file=sys.stderr)
            return 2
        if section is None:
            print(f"repro.obs {args.command}: {args.document} carries "
                  f"no fleet telemetry (run the producer with fleet "
                  f"collection enabled)", file=sys.stderr)
            return 2

        if args.command == "slo":
            from repro.obs.slo import (
                evaluate_slo,
                parse_target,
                render_slo,
                slo_payload,
            )

            try:
                targets = dict(parse_target(t) for t in args.target)
            except ValueError as exc:
                print(f"repro.obs slo: {exc}", file=sys.stderr)
                return 2
            result = evaluate_slo(section, targets)
            if args.json:
                from repro.obs.emit import write_json

                write_json(args.json, slo_payload(result))
            print(render_slo(result))
            return 0 if result["passed"] else 1

        from repro.obs.slo import render_top

        if args.prom:
            from repro.obs.fleet import write_prometheus

            write_prometheus(args.prom, section)
        if args.jsonl:
            from repro.obs.fleet import write_series_jsonl

            write_series_jsonl(args.jsonl, section)
        if args.json:
            from repro.obs.emit import write_json

            write_json(args.json, section)
        print(render_top(section, top=args.top))
        return 0

    if args.command == "divergence":
        import os

        from repro.obs.divergence import (
            find_divergence,
            load_trace,
            render_capture_window,
            render_divergence,
            rerecord_window,
        )

        try:
            trace_a = load_trace(args.a)
            trace_b = load_trace(args.b)
        except (OSError, ValueError) as exc:
            print(f"repro.obs divergence: {exc}", file=sys.stderr)
            return 2
        report = find_divergence(trace_a, trace_b, align=args.align,
                                 slice_limit=args.slice)
        if args.json:
            from repro.obs.emit import write_json

            write_json(args.json, {
                "schema": "repro.obs.divergence/1",
                "a": trace_a["path"],
                "b": trace_b["path"],
                "align": args.align,
                "divergence": report,
            })
        if report is None:
            records = sum(len(p["records"]) for p in trace_a["programs"])
            print(f"no divergences: {len(trace_a['programs'])} program(s), "
                  f"{records} records aligned, all digests match")
            return 0
        print(render_divergence(report))
        if args.capture_window and report["kind"] == "value":
            window_a = rerecord_window(
                trace_a, report["seq"], args.capture_window,
                os.path.join(args.capture_dir, "capture_a.trace"))
            window_b = rerecord_window(
                trace_b, report["seq"], args.capture_window,
                os.path.join(args.capture_dir, "capture_b.trace"))
            if window_a is None or window_b is None:
                print("(capture window unavailable: a trace lacks an "
                      "app producer recipe)")
            else:
                print(render_capture_window(report, window_a, window_b))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
