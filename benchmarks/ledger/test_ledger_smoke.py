"""Smoke test of the ledger benchmark (``python -m pytest benchmarks/ledger -q``).

Not collected by tier-1 (its ``testpaths`` is ``tests``).  Runs the
real command at ``--quick`` size (about 1/20 of every workload) and
checks the contract the pipeline relies on: every metric named in
``BENCHMARK.json`` is emitted once per workload with its unit and a
finite, where required positive, value; nothing failed; the traced
ledger's rows add up to the operation's wall time.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run(*args):
    done = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(emitted, declared, *, positive):
    assert set(emitted) == {m["name"] for m in declared}
    for metric in declared:
        entry = emitted[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(entry["value"]), metric["name"]
        if positive:
            assert entry["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced_emits_every_end_to_end_metric(workload):
    _, result = run("--quick", "--seed", "3", "--workload", workload, "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result["metrics"], CONTRACT["end_to_end"], positive=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_emits_every_per_layer_metric_and_a_closed_ledger(workload):
    text, result = run("--quick", "--seed", "3", "--workload", workload, "--trace", "1")
    # ``correct`` covers failed operations, the Σ self = wall identity
    # (within 1%) and the cap on unattributed time.
    assert result["correct"] is True and result["failed"] == 0
    assert_metrics(result["metrics"], CONTRACT["per_layer"], positive=False)
    assert "ledger [op]" in text and "sum of rows" in text
    assert os.path.exists(os.path.join(HERE, "out", f"trace-{workload}.json"))


def test_count_metrics_repeat_exactly():
    """Same seed, fixed sizes: every count and ratio repeats bit for bit."""
    counts = [
        m["name"]
        for m in CONTRACT["per_layer"]
        if m["unit"] in ("count", "ratio") and not m["name"].startswith("ledger.")
    ]
    runs = [
        run("--quick", "--seed", "5", "--workload", "churn-gated", "--trace", "1")[1]
        for _ in range(2)
    ]
    for name in counts:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_repeat_prints_spread_against_bounds():
    text, _ = run("--quick", "--seed", "3", "--workload", "federation-80", "--repeat", "2")
    assert "spread across repeated sets" in text
    for metric in CONTRACT["end_to_end"]:
        assert metric["name"] in text.split("spread across repeated sets")[1]


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "steady-dup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
