"""Tests for the BENCH harness and the regression diff gate."""

import copy
import json
import pathlib

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    diff_documents,
    load_bench,
    render_diff,
    run_bench,
    write_bench,
)
from repro.bench.core import summarize
from repro.obs.__main__ import main as obs_main


@pytest.fixture(scope="module")
def document():
    return run_bench(quick=True, seed=0)


class TestRunBench:
    def test_schema_and_structure(self, document):
        assert document["schema"] == BENCH_SCHEMA
        assert document["mode"] == "quick"
        assert document["seed"] == 0
        assert document["workloads"]

    def test_one_workload_per_application(self, document):
        from repro.apps import all_applications

        expected = {f"{app.name}/ooo" for app in all_applications()}
        assert set(document["workloads"]) == expected

    def test_workload_entries_carry_gated_metrics(self, document):
        for entry in document["workloads"].values():
            assert entry["total_cycles"] > 0
            assert entry["energy_mj"] > 0.0
            assert entry["attribution"]["coverage"] >= 0.95
            assert entry["critical_path"]["length_cycles"] > 0

    def test_write_and_load_round_trip(self, document, tmp_path):
        path = tmp_path / "BENCH_quick.json"
        write_bench(path, document)
        loaded = load_bench(path)
        assert loaded["workloads"].keys() == document["workloads"].keys()

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError):
            load_bench(path)

    def test_determinism(self, document):
        again = run_bench(quick=True, seed=0)
        for key, entry in document["workloads"].items():
            assert again["workloads"][key]["total_cycles"] == \
                entry["total_cycles"]

    def test_summarize_lists_every_workload(self, document):
        text = summarize(document)
        for key in document["workloads"]:
            assert key in text

    def test_workloads_carry_cycle_accounting_without_chain(self,
                                                            document):
        # The accounting summary ships in BENCH, but the per-step chain
        # (like the schedule) is trace-only payload.
        for entry in document["workloads"].values():
            acc = entry["cycle_accounting"]
            assert acc["total_cycles"] == entry["total_cycles"]
            assert abs(acc["identity_error"]) <= 0.5
            assert "critical_chain" not in acc

    def test_bottleneck_section_is_advisory_per_workload(self, document):
        # Present for every workload, analytic-only, and shaped for the
        # CLI hint — and invisible to the diff gate.
        section = document["bottleneck"]
        assert set(section) == set(document["workloads"])
        for key, entry in section.items():
            assert entry["wait_total_cycles"] >= 0.0
            assert entry["roofline_bound"] in ("compute", "memory")
            top = entry["top_candidate"]
            if top is not None:
                assert top["predicted_speedup"] >= 1.0
                assert not top.get("validated")   # analytic, no resim
                assert "measured_cycles" not in top

    def test_bottleneck_section_ignored_by_the_diff_gate(self, document):
        mutated = copy.deepcopy(document)
        mutated["bottleneck"] = {}
        report = diff_documents(document, mutated, exact=True)
        assert report["regressions"] == []


def regress(document, factor=1.2, metric="total_cycles"):
    worse = copy.deepcopy(document)
    key = sorted(worse["workloads"])[0]
    entry = worse["workloads"][key]
    entry[metric] = type(entry[metric])(entry[metric] * factor)
    return worse, key


class TestDiff:
    def test_identical_documents_pass(self, document):
        diff = diff_documents(document, document, threshold=0.10)
        assert not diff["regressions"]
        assert "OK" in render_diff(diff)

    def test_twenty_percent_cycle_regression_fails(self, document):
        """Acceptance criterion: a synthetic +20% must trip the gate."""
        worse, key = regress(document, 1.2, "total_cycles")
        diff = diff_documents(document, worse, threshold=0.10)
        assert any(r["workload"] == key and r["metric"] == "cycles"
                   for r in diff["regressions"])
        assert "FAIL" in render_diff(diff)

    def test_energy_regression_fails_too(self, document):
        worse, key = regress(document, 1.5, "energy_mj")
        diff = diff_documents(document, worse, threshold=0.10)
        assert any(r["metric"] == "energy" for r in diff["regressions"])

    def test_improvement_is_not_a_regression(self, document):
        better, _ = regress(document, 0.5, "total_cycles")
        diff = diff_documents(document, better, threshold=0.10)
        assert not diff["regressions"]
        assert diff["improvements"]

    def test_within_threshold_passes(self, document):
        slightly = regress(document, 1.05, "total_cycles")[0]
        diff = diff_documents(document, slightly, threshold=0.10)
        assert not diff["regressions"]

    def test_disjoint_workloads_reported_not_failed(self, document):
        renamed = copy.deepcopy(document)
        key = sorted(renamed["workloads"])[0]
        renamed["workloads"]["NewApp/ooo"] = \
            renamed["workloads"].pop(key)
        diff = diff_documents(document, renamed, threshold=0.10)
        assert key in diff["only_old"]
        assert "NewApp/ooo" in diff["only_new"]
        assert not diff["regressions"]

    def test_unknown_sections_do_fail_the_exact_gate(self, document):
        # The skip list is an allowlist: a section NOT on it must match
        # deeply, so silent divergence can't hide outside "workloads".
        mutated = copy.deepcopy(document)
        mutated["mystery"] = {"anything": 1}
        report = diff_documents(document, mutated, exact=True)
        assert any(r["workload"] == "[section] mystery"
                   for r in report["regressions"])
        # Threshold (non-exact) mode stays workload-only.
        loose = diff_documents(document, mutated, threshold=0.10)
        assert not loose["regressions"]

    def test_wallclock_fleet_series_fail_the_exact_gate(self, document):
        # No BENCH producer writes host timing, so the exact gate
        # compares a fleet section like any other: a seconds-unit
        # latency series that differs is a difference.
        from repro.obs import fleet

        def with_latency(seconds):
            registry = fleet.FleetRegistry()
            registry.observe(fleet.M_SOLVE_LATENCY, seconds, app="App",
                             executor="fused")
            section = registry.snapshot()
            assert [e["unit"] for e in section["series"]] == \
                [fleet.UNIT_SECONDS]
            return dict(copy.deepcopy(document), fleet=section)

        report = diff_documents(with_latency(0.010), with_latency(0.020),
                                exact=True)
        assert [r["workload"] for r in report["regressions"]] == \
            ["[section] fleet"]


class TestDiffCli:
    def test_exit_zero_on_identical(self, document, tmp_path):
        path = tmp_path / "a.json"
        write_bench(path, document)
        assert obs_main(["diff", str(path), str(path)]) == 0

    def test_exit_nonzero_on_regression(self, document, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        write_bench(old, document)
        write_bench(new, regress(document, 1.2, "total_cycles")[0])
        assert obs_main(["diff", str(old), str(new),
                         "--threshold", "0.10"]) == 1

    def test_missing_baseline_exits_two_with_one_line(
            self, document, tmp_path, capsys):
        new = tmp_path / "new.json"
        write_bench(new, document)
        missing = tmp_path / "does-not-exist.json"
        assert obs_main(["diff", str(missing), str(new)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro.obs diff: ")
        assert err.count("\n") == 1

    def test_unreadable_baseline_exits_two(self, document, tmp_path,
                                           capsys):
        old = tmp_path / "old.json"
        old.write_text("{not json")
        new = tmp_path / "new.json"
        write_bench(new, document)
        assert obs_main(["diff", str(old), str(new)]) == 2
        assert "repro.obs diff: " in capsys.readouterr().err

    def test_foreign_schema_exits_two(self, document, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": "someone-else/9"}))
        new = tmp_path / "new.json"
        write_bench(new, document)
        assert obs_main(["diff", str(old), str(new)]) == 2
        assert "repro.obs diff: " in capsys.readouterr().err


class TestBenchCli:
    def test_writes_the_run_bench_document(self, monkeypatch, tmp_path):
        import repro.bench.__main__ as cli
        from repro.bench.core import bench_document

        captured = {}
        workloads = {"App/ooo": {"total_cycles": 1, "energy_mj": 1.0}}

        def fake_run_bench(**kwargs):
            captured.update(kwargs)
            return bench_document(workloads, quick=True, seed=3)

        monkeypatch.setattr(cli, "run_bench", fake_run_bench)
        out = tmp_path / "BENCH.json"
        assert cli.main(["--quick", "--seed", "3",
                         "--output", str(out)]) == 0
        assert captured == {"quick": True, "seed": 3}
        assert load_bench(out)["workloads"] == workloads


BASELINE = (pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "baseline" / "BENCH_seed.json")


class TestCommittedBaseline:
    def test_baseline_matches_current_tree(self, document):
        """The CI gate must be green on the committed baseline."""
        baseline = load_bench(BASELINE)
        diff = diff_documents(baseline, document, threshold=0.10)
        assert not diff["regressions"], render_diff(diff)

    def test_quick_document_is_model_outputs_only(self, document):
        # No host-timing section: the whole quick document is exact
        # against the committed baseline.
        assert set(document) == {"schema", "mode", "seed", "workloads",
                                 "bottleneck"}
        diff = diff_documents(load_bench(BASELINE), document, exact=True)
        assert not diff["regressions"], render_diff(diff)


class TestHostFingerprint:
    def test_fingerprint_fields(self):
        from repro.bench.history import host_fingerprint

        host = host_fingerprint()
        assert set(host) >= {"python", "numpy", "platform", "machine",
                             "cpu_count"}
        assert host["cpu_count"] >= 1
