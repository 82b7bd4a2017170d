"""Tests for the host phase-timer renderer and the degradation guarantees.

The second half pins the requirement that every document consumer
(``profile``, ``bottleneck``, ``hotspots``) stays usable on **older**
documents that predate this release's sections: a clear message and
exit 0, never a traceback.
"""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.hotspots import render_hotspots
from repro.obs.metrics import SCHEMA as METRICS_SCHEMA


def metrics_with_phases():
    return {
        "schema": METRICS_SCHEMA, "meta": {},
        "experiments": [{
            "experiment": "F13", "elapsed_s": 1.0,
            "span_timings_s": {"simulate": 0.5, "codegen": 0.1},
            "counters": {}, "simulations": [],
        }],
    }


class TestRenderHotspots:
    def test_bench_document(self):
        text = render_hotspots({"schema": "repro.bench/1", "workloads": {}})
        assert "no host.phase spans" in text

    def test_metrics_document(self):
        lines = render_hotspots(metrics_with_phases()).splitlines()
        assert lines[0] == "host phase timers"
        # Pipeline order, not document order: codegen before simulate.
        assert [line.split()[0] for line in lines[2:]] == \
            ["codegen", "simulate"]
        assert "500.00 ms" in lines[3]

    def test_merges_profiles_across_entries(self):
        document = metrics_with_phases()
        document["experiments"].append(
            dict(document["experiments"][0]))
        text = render_hotspots(document)
        assert "1000.00 ms" in text   # simulate: 0.5 s in each entry

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="unsupported schema"):
            render_hotspots({"schema": "someone-else/9"})

    def test_cli_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics_with_phases()))
        assert obs_main(["hotspots", str(path)]) == 0
        capsys.readouterr()
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "someone-else/9"}))
        assert obs_main(["hotspots", str(bogus)]) == 2
        assert "repro.obs hotspots: " in capsys.readouterr().err

    def test_cli_json_artifact(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics_with_phases()))
        artifact = tmp_path / "hotspots.json"
        assert obs_main(["hotspots", str(path),
                         "--json", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert payload == {
            "schema": "repro.obs.hotspots/1",
            "phase_timings_s": {"simulate": 0.5, "codegen": 0.1},
        }


def old_bench(tmp_path):
    """A pre-observability BENCH document: workloads only."""
    path = tmp_path / "old_bench.json"
    path.write_text(json.dumps({
        "schema": "repro.bench/1", "mode": "quick", "seed": 0,
        "workloads": {"App/ooo": {"total_cycles": 10, "energy_mj": 1.0}},
    }))
    return str(path)


def old_metrics(tmp_path):
    """A metrics document without host.phase span timings."""
    path = tmp_path / "old_metrics.json"
    path.write_text(json.dumps({
        "schema": METRICS_SCHEMA, "meta": {},
        "experiments": [{"experiment": "F13", "elapsed_s": 1.0,
                         "span_timings_s": {}, "counters": {},
                         "simulations": []}],
    }))
    return str(path)


class TestOlderDocumentsDegradeGracefully:
    def test_hotspots_on_old_bench(self, tmp_path, capsys):
        assert obs_main(["hotspots", old_bench(tmp_path)]) == 0
        assert "no host.phase spans" in capsys.readouterr().out

    def test_hotspots_on_old_metrics(self, tmp_path, capsys):
        assert obs_main(["hotspots", old_metrics(tmp_path)]) == 0
        assert "no host.phase spans" in capsys.readouterr().out

    def test_bottleneck_on_old_bench(self, tmp_path, capsys):
        assert obs_main(["bottleneck", old_bench(tmp_path)]) == 0
        assert "no cycle accounting recorded" in capsys.readouterr().out

    def test_bottleneck_on_old_metrics(self, tmp_path, capsys):
        assert obs_main(["bottleneck", old_metrics(tmp_path)]) == 0
        assert "no cycle accounting recorded" in capsys.readouterr().out

    def test_profile_on_old_metrics(self, tmp_path, capsys):
        assert obs_main(["profile", old_metrics(tmp_path)]) == 0
        assert "no factor attribution recorded" in capsys.readouterr().out
