"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def assert_metrics(result, group):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in DEFINITION[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_untraced_run_prints_every_end_to_end_metric():
    record, result = result_of(
        bench("--workload", "sweep-32", "--seed", "3", "--seconds", "0.2",
              "--trace", "0", "--ops", "3")
    )
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["operations"] >= 3 and record["stdout_sha256"]["sha256"]
    assert record["machine"]["nproc"] >= 1
    assert record["speed"]["reference_samples"] >= 1 and record["speed"]["scale"] > 0
    assert set(record["unscaled"]) < set(result["metrics"])


def test_stratified_blocks_hold_one_input_per_cell():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import stratified

    groups = {"a": [(n, ("a", n)) for n in range(40)],
              "b": [(n, ("b", n)) for n in range(36)]}
    order = stratified(groups, 4, 5)
    assert order == stratified(groups, 4, 5) != stratified(groups, 4, 6)
    assert len(order) == 8 * 9
    per_cell = {"a": 10, "b": 9}
    for start in range(0, len(order), 8):
        cells = {(name, n // per_cell[name]) for name, n in order[start:start + 8]}
        assert len(cells) == 8


def traced(workload, ops):
    record, result = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", "1", "--ops", str(ops))
    )
    spans = [json.loads(line) for line in (ROOT / record["spans_file"]).read_text().splitlines()]
    return record, result, spans


@pytest.mark.parametrize("workload,ops", [("sweep-32", 3), ("pair-files", 2)])
def test_traced_runs_repeat_and_nest(workload, ops):
    record, result, spans = traced(workload, ops)
    assert_metrics(result, "per_layer")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name.endswith(".busy_s"):
            own = metrics[name[: -len("busy_s")] + "self_s"]["value"]
            assert own <= m["value"] + 1e-9, name
    assert spans and len(spans) == record["spans"]
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    sha = record["stdout_sha256"]
    assert sha["sha256"] == sha["untraced_sha256"]

    again, result2, _ = traced(workload, ops)
    counts = {n: m["value"] for n, m in metrics.items() if m["unit"] in ("count", "bytes")}
    counts2 = {n: m["value"] for n, m in result2["metrics"].items() if m["unit"] in ("count", "bytes")}
    assert counts == counts2
    assert any(counts.values())
    assert again["stdout_sha256"] == sha


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-32", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
