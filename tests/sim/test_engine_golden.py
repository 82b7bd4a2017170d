"""Golden parity for the cycle simulator.

Each case simulates one seed-0 application frame and compares a SHA-256
of an order-preserving JSON dump (``json.dumps`` without ``sort_keys``)
of everything the run reports:

- ``SimulationResult.to_dict(include_schedule=True)``;
- the cycle accounting and the critical path, with no chain or path
  limit, and the per-instruction waits;
- the key order of ``unit_busy_cycles`` (it fixes the summation order
  of gated static energy);
- the ``repr`` of the three energy components.

The digests in ``golden/engine_digests.json`` were produced by the
engine whose out-of-order issue loop re-examined one global ready heap
every round; the per-unit-class ready queues that replaced it must
reproduce them bit for bit.  A mismatch means a schedule, a wait label,
a stall counter or an energy figure moved.

After an intentional model change, regenerate the file with::

    PYTHONPATH=src python tests/sim/test_engine_golden.py --regenerate

and say in the change why every digest moved.
"""

import functools
import hashlib
import json
import os
import sys

import pytest

from repro.apps import all_applications
from repro.eval.experiments import ORIANNA_CONFIG
from repro.hw.accelerator import minimal_config
from repro.resilience import CampaignSpec, plan_faults
from repro.sim import Simulator

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "engine_digests.json")
SEED = 0
CONFIGS = {"orianna": ORIANNA_CONFIG, "minimal": minimal_config()}
FAULT_SPECS = {
    "stall": CampaignSpec(fault_model="stall", rate=0.05, seed=11,
                          stall_cycles=40),
    "drop": CampaignSpec(fault_model="drop", rate=0.05, seed=11),
}


def _case(app, policy, width, config, fault=""):
    return {"app": app, "policy": policy, "width": width,
            "config": config, "fault": fault}


def case_id(case):
    width = "inf" if case["width"] is None else case["width"]
    parts = [case["app"], case["policy"], f"w{width}", case["config"]]
    if case["fault"]:
        parts.append(case["fault"])
    return "/".join(parts)


def golden_cases():
    cases = [_case(app.name, policy, width, config)
             for app in all_applications()
             for policy in ("ooo", "inorder", "sequential")
             for width in (None, 2)
             for config in CONFIGS]
    cases += [_case("Manipulator", "ooo", width, "orianna")
              for width in (1, 3)]
    cases += [_case("Manipulator", "ooo", None, "orianna", fault)
              for fault in FAULT_SPECS]
    return cases


@functools.lru_cache(maxsize=None)
def frame_program(app_name):
    app = next(a for a in all_applications() if a.name == app_name)
    return app.compile_frame(SEED)


def digest(case):
    program = frame_program(case["app"])
    fault_plan = None
    if case["fault"]:
        fault_plan = plan_faults(program, FAULT_SPECS[case["fault"]])
    result = Simulator(CONFIGS[case["config"]],
                       issue_width=case["width"]).run(
        program, case["policy"], record_schedule=True,
        fault_plan=fault_plan)
    accounting = result.cycle_accounting
    critical_path = result.critical_path
    doc = {
        "result": result.to_dict(include_schedule=True),
        "accounting": accounting.to_dict(
            chain_limit=len(accounting.critical_chain)),
        "critical_path": critical_path.to_dict(
            path_limit=len(critical_path.path)),
        "waits": accounting.waits_to_dict(),
        "busy_order": list(result.unit_busy_cycles),
        "energy": [repr(result.energy.dynamic_mj),
                   repr(result.energy.static_mj),
                   repr(result.energy.memory_mj)],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", golden_cases(), ids=case_id)
def test_engine_matches_golden_digest(case):
    golden = load_golden()
    key = case_id(case)
    assert key in golden, f"no golden digest for {key}"
    assert digest(case) == golden[key], (
        f"{key}: the simulator's output moved; see the module docstring "
        f"before regenerating")


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(case_id(c)
                                           for c in golden_cases())


def regenerate():
    digests = {case_id(case): digest(case) for case in golden_cases()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_engine_golden.py --regenerate")
    regenerate()
