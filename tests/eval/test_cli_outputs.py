"""Tests for the eval CLI's --output / --metrics / --trace-dir flags."""

import contextlib
import io
import json

from repro import obs
from repro.eval.__main__ import main
from repro.obs.metrics import SCHEMA


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestOutputFile:
    def test_tables_written_to_file_not_stdout(self, tmp_path):
        out = tmp_path / "tables.txt"
        code, stdout = run_cli("--only", "S43", "--output", str(out))
        assert code == 0
        assert stdout == ""
        text = out.read_text()
        assert "MAC cost" in text

    def test_markdown_to_file(self, tmp_path):
        out = tmp_path / "tables.md"
        code, _ = run_cli("--only", "S43", "--markdown",
                          "--output", str(out))
        assert code == 0
        assert out.read_text().lstrip().startswith("###")


class TestMetricsExport:
    def test_metrics_json_round_trips_with_required_fields(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, _ = run_cli("--only", "LBRK", "--metrics", str(path))
        assert code == 0
        document = json.loads(path.read_text())
        assert document["schema"] == SCHEMA
        assert document["meta"]["experiments"] == ["LBRK"]
        (entry,) = document["experiments"]
        assert entry["experiment"] == "LBRK"
        assert entry["elapsed_s"] > 0
        assert entry["pass_timings_s"]  # codegen at minimum
        sims = entry["simulations"]
        assert sims
        for sim in sims:
            assert sim["total_cycles"] > 0
            assert set(sim["energy"]) == {"dynamic_mj", "static_mj",
                                          "memory_mj"}
            assert isinstance(sim["stall_counts"], dict)

    def test_obs_disabled_after_run(self, tmp_path):
        run_cli("--only", "S43", "--metrics", str(tmp_path / "m.json"))
        assert not obs.is_enabled()
        assert obs.fleet.active() is None

    def test_counters_are_the_fleet_section_totals(self, tmp_path):
        path = tmp_path / "metrics.json"
        run_cli("--only", "LBRK", "--metrics", str(path))
        (entry,) = json.loads(path.read_text())["experiments"]
        totals = {}
        for series in entry["fleet"]["series"]:
            assert series["kind"] == "counter"
            totals[series["name"]] = \
                totals.get(series["name"], 0.0) + series["value"]
        assert totals == entry["counters"]
        # Every fault-free simulation replays or is kept, whichever this
        # process saw first.
        memo = [totals.get(f"sim.memo.{kind}", 0) for kind in ("hit", "miss")]
        assert sum(memo) >= 1


class TestTraceExportFlag:
    def test_trace_dir_gets_per_experiment_chrome_traces(self, tmp_path):
        traces = tmp_path / "traces"
        code, _ = run_cli("--only", "LBRK", "--trace-dir", str(traces),
                          "--obs-debug")
        assert code == 0
        trace_file = traces / "lbrk.trace.json"
        assert trace_file.exists()
        document = json.loads(trace_file.read_text())
        events = document["traceEvents"]
        assert events
        assert all({"ph", "pid", "name"} <= set(e) for e in events)
        tracks = [e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"]
        assert any(t.startswith("qr[") for t in tracks)
