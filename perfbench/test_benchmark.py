"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_benchmark.py

They execute every workload once untraced and once traced (about a minute
on two cores).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

import checks
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _outputs(workload: str, out_dir: str) -> dict[str, bytes]:
    """Every file an execution writes, except the trace and the config."""
    names = ["stdout.txt"]
    if workload in workloads.CLI_CONFIGS:
        names += [os.path.join("reports", n)
                  for n in sorted(os.listdir(os.path.join(out_dir, "reports")))]
    else:
        names.append("results.json")
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_execution_writes_identical_outputs(workload):
    bench = run.Bench(ROOT)
    runs = os.path.join(bench.work, "runs", workload)
    plain = bench.execution(workload, 1000, trace=False)
    plain_out = _outputs(workload, os.path.join(runs, "plain"))
    traced_run = bench.execution(workload, 1000, trace=True)
    traced_out = _outputs(workload, os.path.join(runs, "traced"))
    assert plain["exit_code"] == traced_run["exit_code"]
    assert plain["result"] == traced_run["result"]
    assert plain_out == traced_out
    assert traced_run["trace"]["absent"] == []


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "extension-2d", "--seed", "1000", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_tracer_rebinds_every_fracharm_namespace():
    code = (
        "import traced\n"
        "t = traced.Tracer(); t.install()\n"
        "import fracharm, fracharm.commutators as c, fracharm.cli as cli\n"
        "import fracharm.norms as n, fracharm.extension as e\n"
        "for f in (fracharm.extend_field, c.extend_field, n.extend_field,\n"
        "          cli.extend_field, e.extend_field, fracharm.bmo_seminorm,\n"
        "          c.bmo_seminorm, cli.main, fracharm.verify_estimate):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        "assert t.absent == [], t.absent\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_check_accepts_small_and_rejects_wrong_numbers(workload):
    ref = checks.load_reference(workload, 1000)
    assert ref is not None
    result = {**copy.deepcopy(ref), "limits": {"oracle_tolerance": 0.1},
              "missing": []}
    assert all(ok for _, ok in checks.check(workload, result, "", ref))

    def scaled(factor):
        r = copy.deepcopy(result)
        for name, value in r["numbers"].items():
            r["numbers"][name] = ([v * factor for v in value]
                                  if isinstance(value, list) else value * factor)
        return r

    # a rewrite that is exact up to rounding passes
    assert all(ok for _, ok in checks.check(workload, scaled(1 + 1e-13), "", ref))
    # a 1e-3 change, the size a 0.1% error in an operator order gives, fails
    assert not all(ok for _, ok in checks.check(workload, scaled(1 + 1e-3), "", ref))
    # so does a changed exit code
    flipped = copy.deepcopy(result)
    flipped["exit_code"] = 1 - ref["exit_code"]
    assert not all(ok for _, ok in checks.check(workload, flipped, "", ref))
