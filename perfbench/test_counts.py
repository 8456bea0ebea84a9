"""Checks of the benchmark itself: the op gate, the tracer and its counts.

Run from the root of a checkout:  python3 -m pytest perfbench -q
The count test runs each workload traced twice (about two minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in run.COUNT_METRICS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_match_the_recorded_seed(workload):
    first = traced_counts(workload)
    second = traced_counts(workload)
    assert first == second
    recorded = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert first == recorded["workloads"][workload]["counts"]


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_gate_accepts_the_certified_fail_and_rejects_usage_errors(tmp_path):
    ops = workloads.build_ops("witness-io", 0, tmp_path)
    check = ops[1]
    want = {"exit": 1, "verdicts": "PPPP", "stdout_sha256": "", "witness_sha256": None}
    stdout = "SCALE 3/4:1\nPASS a\nPASS b\nPASS c\nFAIL d\n"
    assert run.op_problem(check, run.OpResult(1, stdout, ""), want, full=False) is not None
    want["verdicts"] = "PPPF"
    assert run.op_problem(check, run.OpResult(1, stdout, ""), want, full=False) is None
    assert run.op_problem(check, run.OpResult(2, "", "usage"), want, full=False) is not None
    assert run.op_problem(check, run.OpResult(None, "", "Traceback"), want, full=False)


def test_seed_nudges_window_tops_but_not_the_op_list(tmp_path):
    def shape(ops):
        return [[a for a in argv if ".." not in a] for argv in ops]

    for name in workloads.WORKLOADS:
        base = workloads.build_ops(name, 0, tmp_path)
        for seed in (1, 2, 3):
            assert shape(workloads.build_ops(name, seed, tmp_path)) == shape(base)
        assert workloads.build_ops(name, 7, tmp_path) == workloads.build_ops(name, 7, tmp_path)


def test_tracer_rebinds_functions_imported_by_name():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import fuzzycoarse.cli, tracing\n"
        "from fuzzycoarse import asdim, coarse, covers, cli\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert asdim.scale_multiplicity is covers.scale_multiplicity\n"
        "assert asdim.scale_multiplicity.__wrapped__ is not None\n"
        "assert coarse.verify_witness is asdim.verify_witness\n"
        "assert hasattr(coarse.verify_witness, '__wrapped__')\n"
        "assert hasattr(cli.witness_to_json, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                   check=True, timeout=60)
