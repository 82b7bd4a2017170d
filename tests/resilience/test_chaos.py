"""Chaos campaign: verdicts, gates, byte-determinism, CLI exit codes.

Each application's seed-0 chaos document is pinned by one SHA-256 of
its bytes as :func:`~repro.bench.core.write_bench` writes them, stored
per application in ``golden/chaos_digest.json``.  Any change to a
verdict, an event (backoff delays and complaint details included) or a
fleet series moves it.  After an intentional change to the supervised
pipeline's observable behaviour, regenerate the file with::

    PYTHONPATH=src python tests/resilience/test_chaos.py --regenerate

and say in the change why the document moved.
"""

import filecmp
import hashlib
import json
import os
import sys
import tempfile

import pytest

from repro.bench.core import load_bench, write_bench
from repro.bench.diff import diff_documents
from repro.errors import ResilienceError
from repro.resilience.chaos import (
    CORRECT_VERDICTS,
    ChaosConfig,
    FAULT_NONE,
    FAULTS,
    ScenarioOutcome,
    VERDICT_IDENTICAL,
    VERDICT_SKIPPED,
    VERDICT_WRONG,
    evaluate_gates,
    run_chaos,
)


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "chaos_digest.json")
GOLDEN_APPS = ("MobileRobot", "Manipulator", "AutoVehicle", "Quadrotor")


def quick_config(**overrides):
    overrides.setdefault("apps", ("MobileRobot",))
    return ChaosConfig(**overrides)


def document_digest(document):
    """SHA-256 of a BENCH document's bytes as ``write_bench`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chaos.json")
        write_bench(path, document)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def chaos_result():
    return run_chaos(quick_config())


class TestChaosGolden:
    def test_document_matches_golden_digest(self, chaos_result):
        _, document = chaos_result
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert document_digest(document) == golden["MobileRobot"], (
            "the seed-0 MobileRobot chaos document moved; see the module "
            "docstring before regenerating")

    @pytest.mark.parametrize("app", GOLDEN_APPS[1:])
    def test_other_apps_match_golden_digests(self, app):
        _, document = run_chaos(quick_config(apps=(app,)))
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        assert document_digest(document) == golden[app], (
            f"the seed-0 {app} chaos document moved; see the module "
            "docstring before regenerating")

    def test_cache_poison_names_the_poisoned_constant(self, chaos_result):
        _, document = chaos_result
        rows = [s for s in document["chaos"]["scenarios"]
                if s["fault"] == "cache_poison"]
        assert len(rows) == 2
        for row in rows:
            assert [(e["kind"], e["detail"]) for e in row["events"]] == [
                ("cache_eviction",
                 "static constant c9 (uid 9) contains non-finite values")]


class TestChaosCampaign:
    def test_controls_are_identical_and_gates_pass(self, chaos_result):
        _, document = chaos_result
        scenarios = document["chaos"]["scenarios"]
        controls = [s for s in scenarios if s["fault"] == FAULT_NONE]
        assert controls
        assert all(s["verdict"] == VERDICT_IDENTICAL for s in controls)
        gates = document["chaos"]["gates"]
        assert gates["passed"]
        assert gates["controls_identical"]
        assert gates["silent_wrong"] == []
        assert gates["correct_rate"] >= 0.95

    def test_every_injected_fault_leaves_an_event_trail(self,
                                                        chaos_result):
        _, document = chaos_result
        for scenario in document["chaos"]["scenarios"]:
            if scenario["fault"] == FAULT_NONE:
                continue
            if scenario["verdict"] == VERDICT_SKIPPED:
                continue
            # No silent anything: a fault either leaves events or the
            # verdict is identical (fault missed the sampled window).
            assert scenario["events"] or \
                scenario["verdict"] == VERDICT_IDENTICAL

    def test_table_covers_the_matrix(self, chaos_result):
        table, document = chaos_result
        config = document["chaos"]["config"]
        expected = (len(config["apps"]) * len(config["executors"])
                    * len(config["faults"]))
        skipped = sum(1 for s in document["chaos"]["scenarios"]
                      if s["verdict"] == VERDICT_SKIPPED)
        assert len(document["chaos"]["scenarios"]) == expected
        assert len(table.rows) == expected - skipped or \
            len(table.rows) == expected

    def test_workloads_carry_verdicts_for_the_bench_gate(self,
                                                         chaos_result):
        _, document = chaos_result
        for key, workload in document["workloads"].items():
            assert workload["verdict"] in (VERDICT_IDENTICAL,
                                           *CORRECT_VERDICTS,
                                           VERDICT_SKIPPED)
            app, executor, fault = key.split("/")
            assert fault in FAULTS

    def test_same_seed_is_byte_identical(self, chaos_result, tmp_path):
        _, first = chaos_result
        _, second = run_chaos(quick_config())
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        write_bench(path_a, first)
        write_bench(path_b, second)
        assert filecmp.cmp(path_a, path_b, shallow=False)
        diff = diff_documents(load_bench(path_a), load_bench(path_b),
                              exact=True)
        assert diff["regressions"] == []

    def test_different_seed_still_passes_gates(self):
        _, document = run_chaos(quick_config(seed=7))
        assert document["chaos"]["gates"]["passed"]

    def test_fleet_section_is_exact_view_only(self, chaos_result):
        # The CI byte-compares two chaos documents, so the embedded
        # fleet section must carry no host wall-clock (seconds) series.
        _, document = chaos_result
        fleet = document["fleet"]
        assert fleet["schema"] == "repro.obs.fleet/1"
        assert all(e["unit"] != "seconds" for e in fleet["series"])
        verdicts = [e for e in fleet["series"]
                    if e["name"] == "fleet.scenario.verdicts"]
        assert verdicts
        assert all(e["labels"].get("session") == "chaos"
                   and {"app", "executor", "fault", "verdict"}
                   <= set(e["labels"]) for e in verdicts)

    def test_config_validation(self):
        with pytest.raises(ResilienceError):
            ChaosConfig(faults=("meteor_strike",))
        with pytest.raises(ResilienceError):
            ChaosConfig(executors=("gpu",))
        with pytest.raises(ResilienceError):
            ChaosConfig(apps=("NotAnApp",))
        with pytest.raises(ResilienceError):
            ChaosConfig(min_correct_rate=1.5)


class TestGateEvaluation:
    @staticmethod
    def outcome(fault, verdict, events=0):
        return ScenarioOutcome(
            app="MobileRobot", executor="fused", fault=fault,
            verdict=verdict, rung="fused", attempts=1, demotions=0,
            events=["x"] * events, error="")

    def test_silent_wrong_fails_the_gate(self):
        outcomes = [self.outcome("nan_storm", VERDICT_WRONG, events=0)]
        gates = evaluate_gates(outcomes)
        assert not gates["silent_wrong_ok"]
        assert gates["silent_wrong"] == ["MobileRobot/fused/nan_storm"]
        assert not gates["passed"]

    def test_loud_wrong_fails_only_the_rate(self):
        outcomes = [self.outcome("nan_storm", VERDICT_WRONG, events=2)]
        gates = evaluate_gates(outcomes)
        assert gates["silent_wrong_ok"]
        assert not gates["correct_rate_ok"]
        assert not gates["passed"]

    def test_non_identical_control_fails(self):
        outcomes = [self.outcome(FAULT_NONE, VERDICT_WRONG, events=0)]
        gates = evaluate_gates(outcomes)
        assert not gates["controls_identical"]
        assert not gates["passed"]

    def test_all_recovered_passes(self):
        outcomes = [
            self.outcome(FAULT_NONE, VERDICT_IDENTICAL),
            self.outcome("nan_storm", "recovered", events=2),
            self.outcome("slow_op", "degraded", events=1),
        ]
        gates = evaluate_gates(outcomes)
        assert gates["passed"]
        assert gates["correct_rate"] == 1.0
        assert gates["injected_scenarios"] == 2

    def test_skipped_scenarios_do_not_count(self):
        outcomes = [self.outcome("silent_corruption", VERDICT_SKIPPED)]
        gates = evaluate_gates(outcomes)
        assert gates["injected_scenarios"] == 0
        assert gates["passed"]


class TestChaosCli:
    def test_cli_passes_and_writes_bench(self, tmp_path, capsys):
        from repro.resilience.__main__ import main

        out = tmp_path / "chaos.json"
        code = main(["chaos", "--apps", "MobileRobot",
                     "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "gates:" in captured.out
        document = load_bench(out)
        assert document["mode"] == "chaos"
        assert document["chaos"]["gates"]["passed"]

    def test_cli_rejects_unknown_fault(self, capsys):
        from repro.resilience.__main__ import main

        code = main(["chaos", "--apps", "MobileRobot",
                     "--faults", "meteor_strike"])
        assert code == 2

    def test_cli_seed_reruns_byte_identical(self, tmp_path):
        from repro.resilience.__main__ import main

        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["chaos", "--apps", "MobileRobot", "--seed", "3",
                     "--output", str(out_a)]) == 0
        assert main(["chaos", "--apps", "MobileRobot", "--seed", "3",
                     "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.slow
class TestChaosSoak:
    def test_full_matrix_all_gates_pass(self):
        table, document = run_chaos(ChaosConfig())
        gates = document["chaos"]["gates"]
        assert gates["passed"], json.dumps(gates, indent=1)
        assert gates["controls_identical"]
        assert gates["silent_wrong"] == []
        # 4 apps x 2 executor tops x 7 faults
        assert len(document["chaos"]["scenarios"]) == 56


def regenerate():
    digests = {app: document_digest(run_chaos(quick_config(apps=(app,)))[1])
               for app in GOLDEN_APPS}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_chaos.py --regenerate")
    regenerate()
