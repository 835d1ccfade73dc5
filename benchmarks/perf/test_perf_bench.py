"""Self-test of the benchmark: ``pytest benchmarks/perf``.

Runs the command at smoke size and checks that it reports every metric
BENCHMARK.json names, that the DES workloads are deterministic per seed,
and that a broken topology fails the run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("des_fanout", "des_reliable_overload", "rt_fanout", "rt_wordcount")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(out_dir, *args):
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out_dir), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def assert_reported(lines, result, workload, metrics):
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        pattern = re.compile(
            rf"^{workload} {re.escape(name)} \S+ {re.escape(unit)}( n=\d+)?$"
        )
        assert any(pattern.match(line) for line in lines), (workload, name)
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_smoke_prints_every_end_to_end_metric(tmp_path):
    code, lines, result = bench(tmp_path)
    assert code == 0, lines[-20:]
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        per_workload = {
            "metrics": {
                name.split(".", 1)[1]: value
                for name, value in result["metrics"].items()
                if name.startswith(workload + ".")
            }
        }
        assert_reported(lines, per_workload, workload, SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in per_workload["metrics"].values())


def test_trace_prints_every_per_layer_metric(tmp_path):
    code, lines, result = bench(tmp_path, "--workload", "rt_wordcount", "--trace", "1")
    assert code == 0, lines[-20:]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert_reported(lines, result, "rt_wordcount", SPEC["per_layer"])
    shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(100.0)
    assert os.path.exists(tmp_path / "per_layer.json")
    assert os.path.exists(tmp_path / "per_layer.txt")


@pytest.mark.parametrize("workload", ["des_fanout", "des_reliable_overload"])
def test_des_smoke_counts_repeat_per_seed(tmp_path, workload):
    counts = []
    for attempt in range(2):
        out = tmp_path / str(attempt)
        code, lines, _ = bench(out, "--workload", workload, "--seed", "5")
        assert code == 0, lines[-20:]
        with open(out / "end_to_end.json", encoding="utf-8") as fh:
            counts.append(json.load(fh)["results"][workload]["counts"])
    assert counts[0] == counts[1]
    assert counts[0]["dsps.executions"] > 0


def test_injected_fault_fails_the_run(tmp_path):
    code, lines, result = bench(tmp_path, "--workload", "rt_fanout", "--inject-fault")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    failed_share = [line for line in lines if "failed_share" in line]
    assert failed_share and float(failed_share[0].split()[3]) > 0
