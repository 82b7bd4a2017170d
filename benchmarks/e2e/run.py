"""End-to-end host benchmark of the ORIANNA reproduction.

Measure::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace {0,1}] [--output FILE] [--smoke]

Compare two ``--output`` files against the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --compare A.json B.json

Each workload runs a fixed number of rounds in fresh child processes
(``worker.py``), one after another, with one op in flight at a time.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced replay of the first quarter of the rounds,
and leaving ``--trace`` out does both.  ``--seconds`` caps each child's
rounds on a slow host.  Every metric is printed by name with its unit.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an op failed and 2
when a child could not run.  See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SCHEMA = "orianna.e2e/1"
# Op times are reported in ms at the host speed at which the calibration
# kernel of worker.py takes exactly this long.
CAL_NOMINAL_MS = 2.0
# Rounds per run; a round is one op per class.  Both commits of a
# comparison do the same work on the same inputs.  The 30 s run_seconds
# cap cuts none of them short unless the host runs at under half the
# nominal speed (calibration samples above 2 x CAL_NOMINAL_MS).
ROUNDS = {"frame-ooo": 4, "frame-inorder": 30, "solve-gn": 10,
          "solve-lm": 6}
SETUP_SAMPLES = 3
OTHER_SHARE_LIMIT = 0.05
CHILD_TIMEOUT_S = 150

# Outputs of the modelled hardware and of the correctness gate: two runs
# with the same seed must agree exactly.  Simulated totals are summed
# over round 0 (frame seed S), so they do not depend on the run length.
EXACT_UNITS = {"error_rate": "fraction", "sim_cycles": "cycles",
               "sim_energy_mj": "mJ"}


class BenchmarkError(RuntimeError):
    pass


def run_child(spec):
    """Run ``worker.py`` with ``spec``; return its JSON document."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{spec['workload']}: {spec['mode']} child "
                             f"timed out after {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchmarkError(f"{spec['workload']}: {spec['mode']} child "
                             f"exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def op_ms(op):
    """Op time in ms at nominal host speed (see CAL_NOMINAL_MS)."""
    return op["raw_ms"] * CAL_NOMINAL_MS / statistics.fmean(op["cal_ms"])


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def median_spread(values):
    """Estimated relative IQR of the median of ``values``.

    For normal samples the median's standard error is 1.25 sigma/sqrt(n),
    so its IQR is 1.25 x the samples' IQR / sqrt(n).  Inclusive quartiles
    keep one outlier among a handful of samples from setting them.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return 1.25 * (q3 - q1) / median / math.sqrt(len(values))


def entries(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def class_samples(ops, group):
    samples = {}
    for op in ops:
        if op["group"] == group and not op["error"]:
            samples.setdefault(op["cls"], []).append(op_ms(op))
    return samples


def timing_metrics(ops, classes, group, prefix=""):
    """``round_ms`` and ``op_ms_p50`` from per-class medians.

    A class is one app or one app x algorithm graph.  The spread comes
    from the same statistic taken round by round.
    """
    samples = class_samples(ops, group)
    if set(samples) != set(classes):
        return {}
    medians = [statistics.median(samples[c]) for c in classes]
    by_round = {}
    for op in ops:
        if op["group"] == group and not op["error"]:
            by_round.setdefault(op["round"], {})[op["cls"]] = op_ms(op)
    rounds = [[r[c] for c in classes] for r in by_round.values()
              if len(r) == len(classes)]
    return {
        f"{prefix}round_ms": (sum(medians), "ms",
                              median_spread([sum(r) for r in rounds])),
        f"{prefix}op_ms_p50": (geomean(medians), "ms",
                               median_spread([geomean(r) for r in rounds])),
    }


def end_to_end(measure, setups):
    """End-to-end metrics of one measuring child plus set-up samples."""
    ops, classes = measure["ops"], measure["classes"]
    metrics = {}
    metrics.update(timing_metrics(ops, classes, "fused"))
    metrics.update(timing_metrics(ops, classes, "ref", prefix="ref_"))
    # Only warm-up is normalized: the calibration kernel does not track
    # the loader's work, and normalizing the imports made them noisier.
    setup = [doc["import_s"] + doc["warm_up_s"] * CAL_NOMINAL_MS
             / statistics.median(doc["setup_cal_ms"]) for doc in setups]
    metrics["setup_s"] = (statistics.median(setup), "s",
                          median_spread(setup))
    metrics["peak_rss_mb"] = (measure["peak_rss_mb"], "MB", 0.0)
    return {name: {"value": value, "unit": unit, "spread": spread}
            for name, (value, unit, spread) in metrics.items()}


def exact_metrics(ops):
    failed = sum(1 for op in ops if op["error"])
    first = [op for op in ops
             if op["round"] == 0 and op["group"] == "fused" and "cycles" in op]
    values = {"error_rate": failed / len(ops)}
    if first:
        values["sim_cycles"] = sum(op["cycles"] for op in first)
        values["sim_energy_mj"] = sum(op["energy_mj"] for op in first)
    return {name: {"value": value, "unit": EXACT_UNITS[name]}
            for name, value in values.items()}


def solve_ratios(doc):
    """Fused / reference ratio of each graph's median (solve workloads)."""
    fused = class_samples(doc["ops"], "fused")
    ref = class_samples(doc["ops"], "ref")
    classes = doc["classes"]
    if not doc["workload"].startswith("solve-") \
            or not set(classes) <= set(fused) & set(ref):
        return {}
    ratios = {c: statistics.median(fused[c]) / statistics.median(ref[c])
              for c in classes}
    metrics = {
        "solve.fused_over_ref": (geomean(ratios.values()), "ratio"),
        "solve.worse_than_ref": (sum(r > 1.0 for r in ratios.values()),
                                 "graphs"),
    }
    metrics.update({f"ratio.{c}": (r, "ratio") for c, r in ratios.items()})
    return entries(metrics)


def layer_shares(totals, prefix):
    """``<layer>.share`` of each layer plus the ``other`` residual."""
    op_ns = totals["op_ns"]
    shares = {f"{prefix}{layer}.share": stats["self_ns"] / op_ns
              for layer, stats in totals["layers"].items()}
    shares[f"{prefix}other.share"] = 1.0 - sum(shares.values())
    return shares


def per_layer(trace, measure):
    """``(metrics, extras, identity)`` of one traced child.

    ``metrics`` holds the names BENCHMARK.json lists, the same for every
    workload; ``extras`` the ones that exist only on some workloads.
    ``trace.overhead`` compares each traced op with the same op of the
    untraced ``measure`` child.
    """
    groups = trace["layers"]
    fused = groups["fused"]
    layers = fused["layers"]
    calls = {layer: stats["calls"] for layer, stats in layers.items()}
    metrics, extras, identity = {}, {}, {}
    for group, prefix in (("fused", ""), ("ref", "ref.")):
        shares = layer_shares(groups[group], prefix)
        metrics.update((name, (share, "fraction"))
                       for name, share in shares.items())
        total = sum(shares.values())
        other = shares[f"{prefix}other.share"]
        identity[group] = {"sum": total, "other": other,
                           "ok": abs(total - 1.0) <= 1e-9
                           and other <= OTHER_SHARE_LIMIT}
    metrics.update((f"{layer}.calls", (count / fused["ops"], "calls/op"))
                   for layer, count in calls.items())

    compiles = calls["compiler.cache.rebind"] + \
        calls["compiler.codegen.compile"]
    metrics["compiler.cache.hit_ratio"] = (
        calls["compiler.cache.rebind"] / compiles if compiles else 0.0,
        "fraction")
    runs = calls["compiler.fused.run"]
    metrics["compiler.fused.plan.reuse_ratio"] = (
        1.0 - calls["compiler.fused.plan"] / runs if runs else 0.0,
        "fraction")
    untraced = {(op["round"], op["cls"], op["group"]): op_ms(op)
                for op in measure["ops"] if not op["error"]}
    pairs = [(op_ms(op), untraced[key]) for op in trace["ops"]
             if not op["error"]
             and (key := (op["round"], op["cls"], op["group"])) in untraced]
    metrics["trace.overhead"] = (
        sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0,
        "fraction")
    metrics["cal_ms"] = (statistics.median(trace["cal_ms"]), "ms")

    traced_fused = [op for op in trace["ops"]
                    if op["group"] == "fused" and not op["error"]]
    if calls["sim.run"]:
        sim_s = layers["sim.run"]["incl_ns"] / fused["op_ns"] \
            * sum(op_ms(op) for op in traced_fused) / 1e3
        extras["sim.instr_per_s"] = (
            sum(op["instructions"] for op in traced_fused) / sim_s, "1/s")
    interpreter_ns = groups["ref"]["layers"]["compiler.executor.run"][
        "incl_ns"]
    if interpreter_ns and runs:
        extras["execute.fused_speedup"] = (
            (interpreter_ns / groups["ref"]["ops"])
            / (layers["compiler.fused.run"]["incl_ns"] / fused["ops"]),
            "ratio")
    iterations = [op["iterations"] for op in traced_fused
                  if "iterations" in op]
    if iterations:
        extras["optim.iterations"] = (statistics.fmean(iterations),
                                      "iterations/call")
        extras["optim.accept_ratio"] = (sum(iterations) / runs, "fraction")
    return entries(metrics), entries(extras), identity


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def measure_workload(workload, seed, seconds, trace, smoke):
    """Run the children of one workload; return its result section.

    The measuring child runs every round, or with ``trace == 1`` only the
    rounds the traced child replays, which ``trace.overhead`` needs.
    """
    rounds = 1 if smoke else ROUNDS[workload]
    trace_rounds = max(1, rounds // 4)
    spec = {"workload": workload, "seed": seed, "seconds": seconds}
    # Set-up samples before and after the measuring child, so that they
    # meet different phases of the host's speed; the smoke run skips them.
    extra_setups = 0 if smoke or trace == 1 else SETUP_SAMPLES // 2
    setups = [run_child(dict(spec, mode="setup"))
              for _ in range(extra_setups)]
    measure = run_child(dict(spec, mode="measure", rounds=trace_rounds
                             if trace == 1 else rounds))
    setups += [measure] + [run_child(dict(spec, mode="setup"))
                           for _ in range(extra_setups)]
    traced = None
    if trace != 0:
        traced = run_child(dict(spec, mode="trace", rounds=trace_rounds))
    fused = class_samples(measure["ops"], "fused")
    ref = class_samples(measure["ops"], "ref")
    result = {
        "seed": seed, "rounds": measure["rounds"], "host": measure["host"],
        "exact": exact_metrics(measure["ops"]),
        "extras": solve_ratios(measure),
        "classes": {cls: {"fused_ms": statistics.median(fused[cls]),
                          "ref_ms": statistics.median(ref[cls])}
                    for cls in measure["classes"]
                    if cls in fused and cls in ref},
    }
    ops = list(measure["ops"])
    if trace != 1:
        result["end_to_end"] = end_to_end(measure, setups)
    if traced is not None:
        ops += traced["ops"]
        layers, extras, identity = per_layer(traced, measure)
        result.update(trace_rounds=traced["rounds"], per_layer=layers,
                      identity=identity)
        result["extras"].update(extras)
    result["attempted"] = len(ops)
    result["failed"] = sum(1 for op in ops if op["error"])
    result["errors"] = sorted({f"{op['cls']} ({op['group']}): {op['error']}"
                               for op in ops if op["error"]})[:10]
    return result


def print_workload(name, result, out):
    head = f"== {name}: seed {result['seed']}, {result['rounds']} rounds"
    if "trace_rounds" in result:
        head += f", {result['trace_rounds']} traced rounds"
    print(f"{head}, {result['attempted']} ops, {result['failed']} failed",
          file=out)
    for error in result["errors"]:
        print(f"  FAILED {error}", file=out)
    layers = result.get("per_layer", {})
    rows = [name[:-len(".share")] for name in layers
            if name.endswith(".share") and not name.startswith("ref.")]
    tabled = {f"{prefix}{row}.{kind}" for row in rows
              for prefix in ("", "ref.") for kind in ("share", "calls")}
    for title, section in (("end to end", result.get("end_to_end")),
                           ("exact", result.get("exact")),
                           ("extras", result.get("extras")),
                           ("per layer", {k: v for k, v in layers.items()
                                          if k not in tabled})):
        if not section:
            continue
        print(f"  {title}", file=out)
        for metric, entry in section.items():
            value = entry["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            spread = entry.get("spread")
            note = "" if spread is None else f"spread {spread:.1%}"
            print(f"    {metric:<34} {text:>14} {entry['unit']:<16}{note}",
                  file=out)
    if rows:
        print(f"  {'layer (self time share of op)':<36} {'share':>9} "
              f"{'calls/op':>9} {'ref.share':>9}", file=out)
    for row in rows:
        cells = [layers.get(f"{row}.share"), layers.get(f"{row}.calls"),
                 layers.get(f"ref.{row}.share")]
        text = " ".join("{:>9}".format("" if c is None
                                       else f"{c['value']:.4g}")
                        for c in cells)
        print(f"    {row:<34} {text}", file=out)
    for group, check in result.get("identity", {}).items():
        verdict = "ok" if check["ok"] else "VIOLATED"
        print(f"  identity ({group}): shares sum to {check['sum']:.12f}, "
              f"other {check['other']:.4f} (limit {OTHER_SHARE_LIMIT}): "
              f"{verdict}", file=out)


def result_line(results, bench, trace):
    """The last stdout line: every listed metric of the requested modes.

    With several workloads the metric names are prefixed ``<workload>/``.
    """
    names = []
    if trace != 1:
        names += [(m["name"], "end_to_end") for m in bench["end_to_end"]]
    if trace != 0:
        names += [(m["name"], "per_layer") for m in bench["per_layer"]]
    metrics = {}
    for workload, result in results.items():
        prefix = f"{workload}/" if len(results) > 1 else ""
        for name, section in names:
            entry = result.get(section, {}).get(name)
            if entry is not None:
                metrics[prefix + name] = {"value": entry["value"],
                                          "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------

def verdict(a, b, better, bound):
    """``same``/``better``/``worse``/``unresolved`` for B against A."""
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(path_a, path_b, bench, out):
    """Print one verdict per metric x workload row; 1 if any is worse."""
    with open(path_a) as fh:
        doc_a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        doc_b = json.load(fh)["workloads"]
    rows = []
    for workload in [w for w in doc_a if w in doc_b]:
        a, b = doc_a[workload], doc_b[workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            ea = a.get("end_to_end", {}).get(name)
            eb = b.get("end_to_end", {}).get(name)
            if ea and eb:
                rows.append((workload, name, ea["value"], eb["value"],
                             max(ea["spread"], eb["spread"]),
                             metric["bound"],
                             verdict(ea, eb, metric["better"],
                                     metric["bound"])))
        for name in EXACT_UNITS:
            ea = a.get("exact", {}).get(name)
            eb = b.get("exact", {}).get(name)
            if ea and eb:
                rows.append((workload, name, ea["value"], eb["value"], 0.0,
                             0.0, "same" if ea["value"] == eb["value"]
                             else "worse"))
    print(f"{'workload':<14} {'metric':<14} {'A':>14} {'B':>14} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict", file=out)
    for workload, name, va, vb, spread, bound, word in rows:
        change = (vb - va) / va if va else 0.0
        print(f"{workload:<14} {name:<14} {va:>14.6g} {vb:>14.6g} "
              f"{change:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {word}",
              file=out)
    return 1 if any(row[-1] == "worse" for row in rows) else 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def parse_args(argv, bench):
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end host benchmark (see README.md).")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="cap on each child's measuring time; no "
                             "round starts after it")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--output", help="write the full results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload, no extra set-up "
                             "children")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --output files and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or names
    return args


def main(argv=None):
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    args = parse_args(argv, bench)
    if args.compare:
        return compare(*args.compare, bench, sys.stdout)
    results = {}
    started = time.perf_counter()
    try:
        for workload in args.workload:
            results[workload] = measure_workload(
                workload, args.seed, args.seconds, args.trace, args.smoke)
            print_workload(workload, results[workload], sys.stdout)
            sys.stdout.flush()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall_s = time.perf_counter() - started
    print(f"== wall time {wall_s:.1f} s (raw, all children)")
    if args.output:
        document = {"schema": SCHEMA, "cal_nominal_ms": CAL_NOMINAL_MS,
                    "seed": args.seed, "seconds": args.seconds,
                    "smoke": args.smoke, "wall_s": wall_s,
                    "workloads": results}
        with open(args.output, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    line = result_line(results, bench, None if args.smoke else args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
