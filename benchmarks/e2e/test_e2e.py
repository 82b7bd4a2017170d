"""Smoke test of the end-to-end benchmark (about 30 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --smoke`` once (one round per workload) and checks the
result line, the recorded metrics, the correctness gate and the layer
identity; then the ``--compare`` mode and the failure path.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    output = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run("--smoke", "--output", str(output))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(output) as fh:
        return line, json.load(fh), output


def test_result_line_lists_every_metric(smoke):
    line, _, _ = smoke
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            entry = line["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            assert line["metrics"][f"{workload}/{metric['name']}"]["value"] \
                > 0


def test_outputs_are_correct(smoke):
    _, document, _ = smoke
    for workload in WORKLOADS:
        assert document["workloads"][workload]["exact"]["error_rate"][
            "value"] == 0
    with open(os.path.join(ROOT, "benchmarks", "baseline",
                           "BENCH_seed.json")) as fh:
        baseline = json.load(fh)["workloads"]
    exact = document["workloads"]["frame-ooo"]["exact"]
    assert exact["sim_cycles"]["value"] == sum(
        entry["total_cycles"] for entry in baseline.values())
    assert exact["sim_energy_mj"]["value"] == pytest.approx(
        sum(entry["energy_mj"] for entry in baseline.values()), rel=1e-12)


def test_layer_shares_tile_the_op(smoke):
    _, document, _ = smoke
    for workload in WORKLOADS:
        identity = document["workloads"][workload]["identity"]
        assert set(identity) == {"fused", "ref"}
        for check in identity.values():
            assert abs(check["sum"] - 1.0) <= 1e-9
            assert check["other"] <= 0.05
            assert check["ok"]


def test_traced_replay_meets_the_measured_cache_state(smoke):
    # Quadrotor's seed-0 frame misses the compile cache after warm-up in
    # the measuring child, so it must miss in the traced replay too.
    _, document, _ = smoke
    layers = document["workloads"]["frame-inorder"]["per_layer"]
    assert layers["compiler.codegen.compile.calls"]["value"] > 0
    assert layers["compiler.codegen.compile.share"]["value"] > 0
    assert layers["compiler.cache.hit_ratio"]["value"] < 1


def test_compare_of_a_run_with_itself_is_same(smoke):
    _, _, output = smoke
    proc = run("--compare", str(output), str(output))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [row.split()[-1] for row in proc.stdout.splitlines()[1:]]
    assert verdicts and set(verdicts) == {"same"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "solve-gn", "--seconds", "1", "--trace", "0",
               cwd=tmp_path,
               script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
