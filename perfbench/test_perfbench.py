"""Tests of the benchmark itself (not collected by the library's tier-1 run).

Run from the repository root with:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + argv,
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _answer(workload, specs):
    answers = []
    for spec in specs:
        call = workload.prepare(spec)
        try:
            answers.append(call())
        except Exception as exc:
            answers.append(workloads.Raised(exc))
    return answers


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(trace):
    proc = _run(["--workload", "typea-orders", "--seed", "0", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 872
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(["--workload", "typea-orders", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_catches_a_corrupted_sweep_report():
    wl = workloads.WORKLOADS["conjecture-sweep"]
    specs = [s for s in wl.plan(3) if s["system"] == "A4"]
    answers = _answer(wl, specs)
    assert all(wl.gate(specs, answers))
    answers[0] = dict(answers[0], pairs_checked=answers[0]["pairs_checked"] + 1)
    assert not any(wl.gate(specs, answers))  # the frozen total no longer matches
    answers = _answer(wl, specs)
    answers[1] = dict(answers[1], failures=[{"x": [], "y": []}])
    assert wl.gate(specs, answers).count(False) == 1


def test_gate_catches_corrupted_pair_answers():
    wl = workloads.WORKLOADS["pair-queries"]
    plan = wl.plan(3)
    specs = [max((s for s in plan if s["system"] == "B4" and s["kind"] == kind),
                 key=lambda s: len(s["y"]))  # the largest B4 query of each kind
             for kind in wl.KINDS]
    answers = _answer(wl, specs)
    assert all(wl.gate(specs, answers))
    for i, answer in enumerate(answers):
        corrupted = list(answers)
        corrupted[i] = tuple(answer)[1:]  # drop one atom or one word
        assert wl.gate(specs, corrupted)[i] is False, specs[i]["kind"]


def test_gate_catches_corrupted_type_a_answers():
    wl = workloads.WORKLOADS["typea-orders"]
    plan = wl.plan(3)
    specs = [s for s in plan if s["kind"] == "inv"][:40]
    specs += [s for s in plan if s["kind"] == "fpf"][:10]
    specs += [s for s in plan if s["kind"] == "verify_chinese"]
    answers = _answer(wl, specs)
    assert all(wl.gate(specs, answers))
    first_inv = next(i for i, s in enumerate(specs)
                     if s["kind"] == "inv" and len(answers[i][0]) > 1)
    atoms, poset = answers[first_inv]
    answers[first_inv] = (atoms[1:], poset)
    report = answers[-1]
    answers[-1] = dict(report, classes=report["classes"] - 1)
    ok = wl.gate(specs, answers)
    assert ok.count(False) == 2 and not ok[first_inv] and not ok[-1]


def test_raising_ops_fail_the_gate():
    wl = workloads.WORKLOADS["typea-orders"]
    specs = wl.plan(3)[:5]
    answers = [workloads.Raised(ValueError("boom"))] * len(specs)
    assert not any(wl.gate(specs, answers))


@pytest.mark.parametrize("name", ["conjecture-sweep", "typea-orders", "pair-queries"])
def test_two_seeds_give_the_same_operation_counts(name):
    wl = workloads.WORKLOADS[name]
    one, two = wl.plan(1), wl.plan(2)
    assert len(one) == len(two)
    assert one == wl.plan(1)  # the same seed gives the same inputs
    if name == "pair-queries":  # the seed picks x and the order
        assert one != two


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                    ["b", 5.0, 6.0, 0]]
    self_s, calls = tracer.summary()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}
