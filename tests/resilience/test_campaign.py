"""Campaign runner: determinism, document schema, and the CLI."""

import json

import pytest

from repro.compiler.fused import (
    EXECUTOR_ENV,
    EXECUTOR_FUSED,
    EXECUTOR_INTERPRETER,
    default_executor_name,
)
from repro.errors import ResilienceError
from repro.eval.harness import ExperimentTable
from repro.resilience.campaign import (
    CampaignConfig,
    run_campaign,
    solution_registers,
)
from repro.resilience.spec import CampaignSpec


def tiny_config(**overrides):
    kwargs = dict(rates=(0.02,), trials=2, apps=("Manipulator",))
    kwargs.update(overrides)
    return CampaignConfig(**kwargs)


@pytest.fixture(scope="module")
def campaign_result():
    return run_campaign(tiny_config())


class TestCampaign:
    def test_same_config_same_document(self, campaign_result):
        _, document = campaign_result
        _, again = run_campaign(tiny_config())
        assert json.dumps(document, sort_keys=True) == \
            json.dumps(again, sort_keys=True)

    def test_document_is_bench_schema(self, campaign_result, tmp_path):
        from repro.bench.core import BENCH_SCHEMA, load_bench, write_bench

        _, document = campaign_result
        assert document["schema"] == BENCH_SCHEMA
        path = tmp_path / "campaign.json"
        write_bench(path, document)
        assert load_bench(path)["workloads"] == document["workloads"]

    def test_document_diffs_clean_against_itself(self, campaign_result):
        from repro.bench.diff import diff_documents

        _, document = campaign_result
        diff = diff_documents(document, document, exact=True)
        assert not diff["regressions"]

    def test_table_mirrors_workloads(self, campaign_result):
        table, document = campaign_result
        assert len(table.rows) == len(document["workloads"]) == 1
        row = table.rows[0]
        assert row["application"] == "Manipulator"
        assert row["trials"] == 2
        assert 0.0 <= row["success_rate"] <= 1.0
        assert row["cycle_overhead"] >= 1.0

    def test_table_round_trips_through_dict(self, campaign_result):
        table, _ = campaign_result
        again = ExperimentTable.from_dict(table.to_dict())
        assert again.columns == table.columns
        assert again.rows == table.to_dict()["rows"]

    def test_unknown_app_rejected(self):
        with pytest.raises(ResilienceError):
            run_campaign(tiny_config(apps=("Starship",)))

    def test_bad_config_rejected(self):
        with pytest.raises(ResilienceError):
            CampaignConfig(trials=0)
        with pytest.raises(ResilienceError):
            CampaignConfig(rates=())

    def test_solution_registers_are_bsub_outputs(self, program):
        from repro.compiler.isa import Opcode

        names = solution_registers(program)
        bsub_dsts = {d for i in program.instructions
                     if i.op is Opcode.BSUB for d in i.dsts}
        assert set(names) == bsub_dsts
        assert names

    @pytest.mark.parametrize("backend", [EXECUTOR_INTERPRETER,
                                         EXECUTOR_FUSED])
    def test_replayed_sites_are_recovered_once(self, backend, monkeypatch):
        # Persistent faults force checkpoint replays, which re-execute
        # (and re-inject) sites recovered by retry before the restore;
        # each site still counts as recovered at most once.
        monkeypatch.setenv(EXECUTOR_ENV, backend)
        spec = CampaignSpec(fault_model="mixed", persistent_fraction=0.2)
        table, _ = run_campaign(tiny_config(rates=(0.02, 0.05), trials=1,
                                            spec=spec))
        assert [row["recovered_rate"] <= row["detected_rate"]
                for row in table.rows] == [True, True]

    def test_fault_free_campaign_is_all_success(self):
        table, _ = run_campaign(tiny_config(rates=(0.0,), trials=1))
        row = table.rows[0]
        assert row["success_rate"] == 1.0
        assert row["injected"] == 0
        assert row["max_degradation"] == 0.0
        assert row["cycle_overhead"] == 1.0


class TestFleetSection:
    def test_document_embeds_labeled_fleet_series(self, campaign_result):
        _, document = campaign_result
        fleet = document["fleet"]
        assert fleet["schema"] == "repro.obs.fleet/1"
        totals = [e for e in fleet["series"]
                  if e["name"] == "fleet.solve.total"]
        (entry,) = totals
        # The executor label names the backend the trials ran on.
        assert entry["labels"] == {
            "app": "Manipulator", "executor": default_executor_name(),
            "session": "campaign", "stage": "rate=0.02"}
        assert entry["value"] == 2.0  # one per trial
        assert [w["key"] for w in fleet["windows"]] == \
            ["Manipulator/rate=0.02"]

    def test_latency_is_simulated_time_only(self, campaign_result):
        # The campaign's fleet section is byte-compared by the CI
        # determinism gate, so it must carry no host wall-clock series.
        _, document = campaign_result
        units = {e["unit"] for e in document["fleet"]["series"]}
        assert "seconds" not in units
        latency = [e for e in document["fleet"]["series"]
                   if e["name"] == "fleet.solve.sim_latency_s"]
        assert latency and latency[0]["unit"] == "sim_seconds"
        assert latency[0]["sketch"]["count"] == 2

    def test_timeout_records_deadline_outcomes(self):
        _, document = run_campaign(tiny_config(timeout_s=60.0))
        names = {e["name"] for e in document["fleet"]["series"]}
        assert "fleet.solve.deadline_hit" in names

    def test_no_timeout_records_no_deadline_series(self, campaign_result):
        _, document = campaign_result
        names = {e["name"] for e in document["fleet"]["series"]}
        assert "fleet.solve.deadline_hit" not in names
        assert "fleet.solve.deadline_miss" not in names

    def test_slo_cli_passes_on_campaign_document(self, campaign_result,
                                                 tmp_path, capsys):
        from repro.bench.core import write_bench
        from repro.obs.__main__ import main as obs_main

        _, document = campaign_result
        path = tmp_path / "campaign.json"
        write_bench(path, document)
        assert obs_main(["slo", str(path)]) == 0
        assert "OK: all SLO targets met" in capsys.readouterr().out


class TestCli:
    def test_campaign_cli_writes_document(self, tmp_path, capsys):
        from repro.resilience.__main__ import main

        out = tmp_path / "doc.json"
        code = main(["campaign", "--quick", "--apps", "Manipulator",
                     "--trials", "1", "--output", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Manipulator" in text
        assert json.loads(out.read_text())["mode"] == "campaign"

    def test_campaign_cli_markdown(self, capsys):
        from repro.resilience.__main__ import main

        assert main(["campaign", "--apps", "Manipulator", "--trials",
                     "1", "--markdown"]) == 0
        assert "| application |" in capsys.readouterr().out

    def test_campaign_cli_unknown_app_exits_2(self, capsys):
        from repro.resilience.__main__ import main

        assert main(["campaign", "--apps", "Starship"]) == 2
        assert "repro.resilience" in capsys.readouterr().err

    def test_campaign_cli_custom_spec_flags(self, tmp_path):
        from repro.resilience.__main__ import main

        out = tmp_path / "doc.json"
        code = main(["campaign", "--apps", "Manipulator", "--trials",
                     "1", "--rates", "0.01", "--model", "stall",
                     "--no-dmr", "--retries", "1", "--escalate",
                     "continue", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        spec = CampaignSpec.from_dict(doc["campaign"]["spec"])
        assert spec.fault_model == "stall"
        assert doc["campaign"]["policy"]["max_retries"] == 1
        assert doc["campaign"]["rates"] == [0.01]
