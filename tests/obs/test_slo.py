"""SLO evaluation and the ``repro.obs slo`` / ``top`` commands."""

import contextlib
import io
import json

import pytest

from repro.obs.__main__ import main
from repro.obs.fleet import FLEET_SCHEMA, FleetRegistry, label_scope
from repro.obs.slo import (
    DEFAULT_TARGETS,
    collect_fleet,
    evaluate_slo,
    parse_target,
    render_slo,
    render_top,
)


def fleet_section(misses=0, wrong=0, degraded=0, crash=0, solves=10):
    reg = FleetRegistry()
    with label_scope(app="Quadrotor", executor="fused", session="t"):
        for i in range(solves):
            reg.incr("fleet.solve.total")
            reg.observe("fleet.solve.latency_s", 0.001 * (i + 1))
        for _ in range(solves - misses):
            reg.incr("fleet.solve.deadline_hit")
        for _ in range(misses):
            reg.incr("fleet.solve.deadline_miss")
        for _ in range(degraded):
            reg.incr("fleet.solve.degraded")
        for _ in range(wrong):
            reg.incr("fleet.solve.wrong")
        for _ in range(crash):
            reg.incr("fleet.solve.crash")
    return reg.snapshot()


class TestEvaluateSlo:
    def test_clean_fleet_passes_default_targets(self):
        result = evaluate_slo(fleet_section())
        assert result["passed"] is True
        (row,) = result["rows"]
        assert row["app"] == "Quadrotor"
        assert row["executor"] == "fused"
        assert row["solves"] == 10
        assert row["deadline_hit_rate"] == 1.0
        assert row["latency_unit"] == "seconds"
        # rank = q * (n - 1): p50 of 1..10 ms lands on the 5 ms bucket,
        # p99 on the 9 ms one (within the sketch's alpha).
        assert row["p50_s"] == pytest.approx(0.005, rel=0.02)
        assert row["p99_s"] == pytest.approx(0.009, rel=0.02)

    def test_deadline_miss_breaches_hit_rate_target(self):
        result = evaluate_slo(fleet_section(misses=2))
        assert result["passed"] is False
        (breach,) = result["breaches"]
        assert breach["target"] == "min_deadline_hit_rate"
        assert breach["value"] == pytest.approx(0.8)

    def test_wrong_and_crash_rates_breach_zero_targets(self):
        result = evaluate_slo(fleet_section(wrong=1, crash=1))
        targets = {b["target"] for b in result["breaches"]}
        assert targets == {"max_wrong_rate", "max_crash_rate"}

    def test_latency_target_applies_when_set(self):
        result = evaluate_slo(fleet_section(),
                              targets={"max_p99_s": 0.0001})
        assert result["passed"] is False
        assert result["breaches"][0]["target"] == "max_p99_s"

    def test_no_deadline_series_passes_vacuously(self):
        reg = FleetRegistry()
        reg.incr("fleet.solve.total", app="A", executor="fused")
        result = evaluate_slo(reg.snapshot())
        assert result["passed"] is True
        assert result["rows"][0]["deadline_hit_rate"] is None

    def test_stage_and_session_labels_fold_into_one_group(self):
        reg = FleetRegistry()
        for stage in ("rate=0.01", "rate=0.02"):
            reg.incr("fleet.solve.total", app="A", executor="e",
                     stage=stage)
        result = evaluate_slo(reg.snapshot())
        (row,) = result["rows"]
        assert row["solves"] == 2

    def test_sim_latency_used_when_no_wallclock_series(self):
        reg = FleetRegistry()
        reg.incr("fleet.solve.total", app="A", executor="e")
        reg.observe("fleet.solve.sim_latency_s", 0.5,
                    unit="sim_seconds", app="A", executor="e")
        (row,) = evaluate_slo(reg.snapshot())["rows"]
        assert row["latency_unit"] == "sim_seconds"
        assert row["p50_s"] == pytest.approx(0.5, rel=0.011)

    def test_render_mentions_verdict(self):
        assert "OK: all SLO targets met" in \
            render_slo(evaluate_slo(fleet_section()))
        assert "FAIL: 1 SLO breach(es)" in \
            render_slo(evaluate_slo(fleet_section(misses=5)))


class TestParseTarget:
    def test_parses_value_and_none(self):
        assert parse_target("max_p99_s=0.5") == ("max_p99_s", 0.5)
        assert parse_target("max_p99_s=none") == ("max_p99_s", None)
        assert parse_target("max_wrong_rate=off") == \
            ("max_wrong_rate", None)

    def test_rejects_unknown_or_malformed(self):
        with pytest.raises(ValueError):
            parse_target("nonsense=1")
        with pytest.raises(ValueError):
            parse_target("max_p99_s")
        with pytest.raises(ValueError):
            parse_target("max_p99_s=abc")
        assert set(DEFAULT_TARGETS) == {
            "min_deadline_hit_rate", "max_degraded_rate",
            "max_wrong_rate", "max_crash_rate", "max_p99_s"}


class TestCollectFleet:
    def test_bench_document_section_wins(self):
        section = fleet_section()
        assert collect_fleet({"fleet": section}) is section

    def test_metrics_experiments_merge(self):
        half = fleet_section(solves=5)
        document = {"experiments": [{"fleet": half}, {"fleet": half},
                                    {"no_fleet": True}]}
        merged = collect_fleet(document)
        assert merged["schema"] == FLEET_SCHEMA
        totals = [e for e in merged["series"]
                  if e["name"] == "fleet.solve.total"]
        assert totals[0]["value"] == 10.0

    def test_no_fleet_anywhere_returns_none(self):
        assert collect_fleet({"workloads": {}}) is None
        assert collect_fleet({"experiments": [{"x": 1}]}) is None


def write_document(tmp_path, section, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "repro.bench/1",
                                "fleet": section}))
    return path


class TestSloCli:
    def run(self, *argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    def test_exit_zero_when_targets_met(self, tmp_path):
        path = write_document(tmp_path, fleet_section())
        code, out = self.run("slo", str(path))
        assert code == 0
        assert "OK: all SLO targets met" in out

    def test_exit_one_on_breach(self, tmp_path):
        path = write_document(tmp_path, fleet_section(misses=5))
        code, out = self.run("slo", str(path))
        assert code == 1
        assert "min_deadline_hit_rate" in out

    def test_target_overrides(self, tmp_path):
        path = write_document(tmp_path, fleet_section(misses=5))
        code, _ = self.run("slo", str(path),
                           "--target", "min_deadline_hit_rate=0.4")
        assert code == 0
        code, _ = self.run("slo", str(path),
                           "--target", "min_deadline_hit_rate=none")
        assert code == 0

    def test_bad_target_exits_two(self, tmp_path, capsys):
        path = write_document(tmp_path, fleet_section())
        assert main(["slo", str(path), "--target", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_document_without_fleet_exits_two(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"workloads": {}}))
        assert main(["slo", str(path)]) == 2
        assert "fleet" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["slo", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_json_artifact(self, tmp_path):
        path = write_document(tmp_path, fleet_section(misses=5))
        out = tmp_path / "slo.json"
        code, _ = self.run("slo", str(path), "--json", str(out))
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.obs.slo/1"
        assert payload["passed"] is False


class TestTopCli:
    def run(self, *argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    def test_summary_and_exports(self, tmp_path):
        path = write_document(tmp_path, fleet_section())
        prom = tmp_path / "fleet.prom"
        jsonl = tmp_path / "fleet.jsonl"
        code, out = self.run("top", str(path), "--prom", str(prom),
                             "--jsonl", str(jsonl))
        assert code == 0
        assert "fleet summary" in out
        assert "fleet.solve.total" in out
        from repro.obs.fleet import parse_prometheus_text

        parse_prometheus_text(prom.read_text())
        assert jsonl.read_text().strip()

    def test_render_top_handles_empty_section(self):
        text = render_top({"series": [], "windows": []})
        assert "(none)" in text

    def test_document_without_fleet_exits_two(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"workloads": {}}))
        assert main(["top", str(path)]) == 2
        capsys.readouterr()


def counters_only_metrics(tmp_path):
    """A metrics document of two experiments whose registries hold
    instrumentation counters alone, as ``repro.eval`` writes it."""
    from repro import obs
    from repro.obs import counters
    from repro.obs.metrics import experiment_entry, write_metrics

    entries = []
    for experiment, hits in (("F13", 1), ("F19", 2)):
        with obs.enabled_scope() as collector:
            for _ in range(hits):
                counters.incr("sim.memo.hit")
            counters.incr("sim.memo.miss")
            entries.append(experiment_entry(experiment, 0.1,
                                            collector.drain()))
    path = tmp_path / "metrics.json"
    write_metrics(path, entries)
    return path


class TestMetricsDocumentCounters:
    def test_slo_exits_two_without_slo_series(self, tmp_path, capsys):
        path = counters_only_metrics(tmp_path)
        assert main(["slo", str(path)]) == 2
        captured = capsys.readouterr()
        assert "fleet.solve" in captured.err
        assert captured.out == ""

    def test_top_exports_merged_instrumentation_counters(self, tmp_path):
        from repro.obs.fleet import parse_prometheus_text, to_prometheus

        document = json.loads(counters_only_metrics(tmp_path).read_text())
        section = collect_fleet(document)
        families = parse_prometheus_text(to_prometheus(section))
        assert families["repro_sim_memo_hit_total"]["samples"] == \
            [("repro_sim_memo_hit_total", "", 3.0)]
        assert families["repro_sim_memo_miss_total"]["type"] == "counter"

        prom = tmp_path / "m.prom"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["top", str(tmp_path / "metrics.json"),
                         "--prom", str(prom)])
        assert code == 0
        assert parse_prometheus_text(prom.read_text()) == families
