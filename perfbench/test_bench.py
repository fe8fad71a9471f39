"""Self-test of the benchmark: every workload at n = 300, in about half a minute.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cluster_n30k", "bp_n30k", "eps_sweep_n3k")


def bench(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--n", "300"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    inputs = [line.split()[-1] for line in lines if line.strip().startswith("inputs:")]
    return json.loads(lines[-1]), inputs[0]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload, spec):
    plain, inputs = bench(workload, 1, 0)
    traced, traced_inputs = bench(workload, 1, 1)
    _, other_inputs = bench(workload, 2, 0)

    for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert record["correct"] and record["attempted"] >= 1 and record["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    with open(os.path.join(HERE, "out", f"spans-{workload}-seed1.json"), encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    own = self_times(spans)
    for it in (it for it in trace["iterations"] if it["traced"]):
        under = [own[s["id"]] for s in spans if s["root"] == it["root"] and s["id"] != it["root"]]
        assert under and all(t >= 0 for t in under)
        assert sum(under) <= it["wall"]

    assert inputs == traced_inputs
    assert inputs != other_inputs
