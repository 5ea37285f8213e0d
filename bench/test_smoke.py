"""Smoke self-test of the benchmark at tiny sizes, so it cannot silently rot.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload through ``run.py`` on tiny inputs, untraced and traced,
and checks the result line against ``BENCHMARK.json``; checks that failing
units are counted; and checks that the benchmark refuses to run without the
library sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_has_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert trace or got["value"] > 0
    if trace:
        shares = [result["metrics"][f"{mod}.self_share"]["value"] for mod in (
            "spaceform", "charts", "immersion", "curvature", "comparison", "operators", "harness")]
        unattributed = result["metrics"]["trace.unattributed_share"]["value"]
        # one traced pass: module self times and the benchmark's own time tile it
        assert sum(shares) + unattributed == pytest.approx(1.0, abs=1e-6)


def test_failing_units_are_counted():
    out = workloads.PassResult()
    out.check("raises", lambda: 1 / 0)
    out.check("contradicts", lambda: False)
    out.check("holds", lambda: True)
    assert (out.attempted, out.failed, len(out.failures)) == (3, 2, 2)


def test_wrong_ratio_fails_every_point():
    workload = workloads.HighdimEquality(0, tiny=True)
    lib = workloads.library()
    exact = lib.operator_data

    def skewed(frame, signature):
        data = exact(frame, signature)
        data.H = data.H.copy()
        data.H[1:] *= 1.01  # H_1/H_0 off by 1%
        return data

    lib.operator_data = skewed
    result = workload.run_pass(lib)
    assert result.attempted > 0 and result.failed == result.attempted


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "point-probes", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
