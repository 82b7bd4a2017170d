"""Resilience CLI: ``python -m repro.resilience campaign | chaos``.

``campaign`` runs a seeded *value-domain* fault-injection campaign over
the paper's applications and prints the success-rate/accuracy-
degradation table (the robustness analogue of Tbl. 5).  ``chaos`` runs
the *host-level* chaos matrix against the supervised solve pipeline
(handler exceptions, NaN storms, slow ops, cache poisoning, silent
corruption) and exits nonzero if any graceful-degradation gate fails —
in particular if any scenario returns a wrong answer without a
``resilience.supervisor.*`` degradation event.  Both write BENCH-schema
JSON via ``--output``, so two runs can be compared with ``python -m
repro.obs diff`` — ``--exact`` between two same-seed runs is the
determinism gate.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ResilienceError
from repro.resilience.campaign import (
    CampaignConfig,
    FULL_RATES,
    FULL_TRIALS,
    QUICK_RATES,
    QUICK_TRIALS,
    run_campaign,
)
from repro.resilience.spec import (
    ESCALATE_CONTINUE,
    ESCALATE_ERROR,
    FAULT_MODELS,
    CampaignSpec,
    RecoveryPolicy,
)


def _parse_rates(text: str):
    try:
        rates = tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rate list {text!r}")
    if not rates:
        raise argparse.ArgumentTypeError("empty rate list")
    return rates


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Fault-injection campaigns over the application suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser(
        "campaign",
        help="sweep fault rates over the applications, print the "
             "success-rate table",
    )
    scale = camp.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true",
                       help=f"default rate only, {QUICK_TRIALS} trials "
                            f"(the default)")
    scale.add_argument("--full", action="store_true",
                       help=f"rate sweep {list(FULL_RATES)}, "
                            f"{FULL_TRIALS} trials")
    camp.add_argument("--rates", type=_parse_rates, default=None,
                      help="comma-separated fault rates (overrides "
                           "--quick/--full)")
    camp.add_argument("--trials", type=int, default=None,
                      help="seeded trials per (application, rate)")
    camp.add_argument("--seed", type=int, default=0,
                      help="campaign master seed (default 0)")
    camp.add_argument("--apps", default=None,
                      help="comma-separated application names "
                           "(default: all)")
    camp.add_argument("--model", default=None, choices=FAULT_MODELS,
                      help="fault model (default value)")
    camp.add_argument("--magnitude", type=float, default=None,
                      help="relative size of value perturbations")
    camp.add_argument("--persistent", type=float, default=None,
                      help="fraction of faults that recur on retry")
    camp.add_argument("--target-units", default=None,
                      help="comma-separated unit classes to target")
    camp.add_argument("--target-stages", default=None,
                      help="comma-separated provenance stage prefixes")
    camp.add_argument("--no-abft", action="store_true",
                      help="disable ABFT checksum verification")
    camp.add_argument("--no-dmr", action="store_true",
                      help="disable the DMR re-execution fallback")
    camp.add_argument("--retries", type=int, default=None,
                      help="bounded per-instruction retries (default 2)")
    camp.add_argument("--checkpoint-every", type=int, default=None,
                      help="register-file snapshot interval "
                           "(0 disables; default 64)")
    camp.add_argument("--escalate", default=None,
                      choices=(ESCALATE_ERROR, ESCALATE_CONTINUE),
                      help="behavior when recovery is exhausted")
    camp.add_argument("--sim-policy", default="ooo",
                      choices=("inorder", "ooo"),
                      help="issue policy for the timing replay")
    camp.add_argument("--timeout-s", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock limit per scenario: a hung solve "
                           "fails the scenario (crash verdict) instead "
                           "of hanging the campaign")
    camp.add_argument("--output", default=None, metavar="FILE",
                      help="write the BENCH-schema campaign document "
                           "(repro.obs diff compatible)")
    camp.add_argument("--markdown", action="store_true",
                      help="print the table as GitHub markdown")

    chaos = sub.add_parser(
        "chaos",
        help="host-level fault injection against the supervised solve "
             "pipeline; exits nonzero when a degradation gate fails",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign master seed (default 0)")
    chaos.add_argument("--apps", default=None,
                       help="comma-separated application names "
                            "(default: all)")
    chaos.add_argument("--executors", default=None,
                       help="comma-separated ladder tops to attack "
                            "(default: fused,interpreter)")
    chaos.add_argument("--faults", default=None,
                       help="comma-separated fault kinds (default: all)")
    chaos.add_argument("--output", default=None, metavar="FILE",
                       help="write the BENCH-schema chaos document "
                            "(repro.obs diff compatible)")
    chaos.add_argument("--markdown", action="store_true",
                       help="print the table as GitHub markdown")
    return parser


def _spec_from_args(args) -> CampaignSpec:
    spec = CampaignSpec()
    overrides = {}
    if args.model is not None:
        overrides["fault_model"] = args.model
    if args.magnitude is not None:
        overrides["magnitude"] = args.magnitude
    if args.persistent is not None:
        overrides["persistent_fraction"] = args.persistent
    if args.target_units:
        overrides["target_units"] = tuple(
            u for u in args.target_units.split(",") if u)
    if args.target_stages:
        overrides["target_stages"] = tuple(
            s for s in args.target_stages.split(",") if s)
    if overrides:
        from dataclasses import replace

        spec = replace(spec, **overrides)
    return spec


def _policy_from_args(args) -> RecoveryPolicy:
    policy = RecoveryPolicy()
    overrides = {}
    if args.no_abft:
        overrides["abft"] = False
    if args.no_dmr:
        overrides["dmr_fallback"] = False
    if args.retries is not None:
        overrides["max_retries"] = args.retries
    if args.checkpoint_every is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if args.escalate is not None:
        overrides["escalate"] = args.escalate
    if overrides:
        from dataclasses import replace

        policy = replace(policy, **overrides)
    return policy


def _chaos_main(args) -> int:
    from repro.resilience.chaos import ChaosConfig, run_chaos

    apps = tuple(a for a in args.apps.split(",") if a) if args.apps else ()
    overrides = {}
    if args.executors:
        overrides["executors"] = tuple(
            e for e in args.executors.split(",") if e)
    if args.faults:
        overrides["faults"] = tuple(f for f in args.faults.split(",") if f)
    try:
        config = ChaosConfig(seed=args.seed, apps=apps, **overrides)
        table, document = run_chaos(config)
    except ResilienceError as exc:
        print(f"repro.resilience: {exc}", file=sys.stderr)
        return 2

    print(table.to_markdown() if args.markdown else table.format())
    gates = document["chaos"]["gates"]
    print(f"\ngates: controls_identical={gates['controls_identical']} "
          f"correct={gates['correct_scenarios']}/"
          f"{gates['injected_scenarios']} "
          f"({gates['correct_rate']:.1%}) "
          f"silent_wrong={len(gates['silent_wrong'])}")
    if args.output:
        from repro.bench.core import write_bench

        write_bench(args.output, document)
        print(f"wrote {args.output}")
    if not gates["passed"]:
        if gates["silent_wrong"]:
            print("FAIL: wrong answers without a degradation event: "
                  + ", ".join(gates["silent_wrong"]), file=sys.stderr)
        if not gates["correct_rate_ok"]:
            print(f"FAIL: correct rate {gates['correct_rate']:.1%} below "
                  f"the gate", file=sys.stderr)
        if not gates["controls_identical"]:
            print("FAIL: a no-fault control was not bit-identical to the "
                  "unsupervised solve", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "chaos":
        return _chaos_main(args)
    if args.command != "campaign":  # pragma: no cover - argparse guards
        parser.error(f"unknown command {args.command!r}")

    full = args.full
    rates = args.rates if args.rates is not None else (
        FULL_RATES if full else QUICK_RATES)
    trials = args.trials if args.trials is not None else (
        FULL_TRIALS if full else QUICK_TRIALS)
    apps = tuple(a for a in args.apps.split(",") if a) if args.apps else ()

    try:
        config = CampaignConfig(
            rates=tuple(rates),
            trials=trials,
            seed=args.seed,
            apps=apps,
            spec=_spec_from_args(args),
            policy=_policy_from_args(args),
            sim_policy=args.sim_policy,
            timeout_s=args.timeout_s,
        )
        table, document = run_campaign(config)
    except ResilienceError as exc:
        print(f"repro.resilience: {exc}", file=sys.stderr)
        return 2

    print(table.to_markdown() if args.markdown else table.format())
    if args.output:
        from repro.bench.core import write_bench

        write_bench(args.output, document)
        print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
