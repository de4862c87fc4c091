"""Smoke check of the benchmark on the tiny corpus: output schema and the
correctness gate, not timings. Takes a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the source tree on sys.path first
import corpus
import runners
from spans import Tracer
from xcspkit.io import write_instance

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def _check_schema(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _last_json(["--workload", "csp-search", "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny"])
    _check_schema(result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_run_on_each_workload(workload):
    # A traced run alternates untraced and traced passes, so it computes
    # every metric; its result file holds the end-to-end ones too.
    result = _last_json(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"])
    _check_schema(result, SPEC["per_layer"])
    saved = json.loads((run.ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace1.json").read_text())
    assert all(saved["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])
    assert saved["env"]["seed"] == 3 and saved["env"]["passes"] >= 2
    assert {"python", "nproc", "commit"} <= set(saved["env"])
    assert saved["spans"] and all(
        {"name", "instance", "parent", "start", "end"} <= set(span) for span in saved["spans"])


def test_gate_rejects_a_wrong_reference():
    members = corpus.members("cop-bnb", 3, tiny=True)
    texts = {m.id: write_instance(m.build()) for m in members}
    references = {m.id: m.reference() for m in members}
    wrong = members[0].id
    references[wrong] += 1
    result = runners.SearchRunner(members, texts, references, None).run_pass(Tracer(False))
    failed = [r["id"] for r in result.records if not r["ok"]]
    assert failed == [wrong]


def test_seed_fixes_the_inputs():
    def snapshot(seed):
        return [(m.id, write_instance(m.build())) for m in corpus.members("cop-bnb", seed, tiny=True)]

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)


def test_references_are_independent_of_the_engine():
    # tiny cases small enough to check by hand
    assert corpus.tsp_optimum([[0, 1, 9], [1, 0, 2], [9, 2, 0]]) == 12
    knapsack = {"capacity": 4, "items": [{"weight": 3, "value": 5}, {"weight": 2, "value": 3},
                                         {"weight": 2, "value": 3}]}
    assert corpus.knapsack_optimum(knapsack) == 6
    assert corpus.qap_optimum({"weights": [[0, 2], [2, 0]], "distances": [[0, 3], [3, 0]]}) == 6


def test_fails_without_the_source_tree():
    scratch = run.ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(run.BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "load", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
