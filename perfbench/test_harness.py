"""Tests of the benchmark itself: its input generator, its checks and its output."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from heawood import count_tait_colorings_heawood, count_tait_oracle, validate

from perfbench import harness
from perfbench.graphgen import fresh_relabelling, random_planar_cubic
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", range(5))
def test_generated_graphs_validate_and_match_the_oracle(seed):
    rng = random.Random(seed)
    for n_vertices in range(4, 21, 2):
        g = random_planar_cubic(n_vertices, rng)
        assert g.n_vertices == n_vertices
        assert validate(g).ok
        expected = count_tait_oracle(g)
        assert count_tait_colorings_heawood(g) == expected
        relabelled, _ = fresh_relabelling(g, rng)
        assert validate(relabelled).ok
        assert count_tait_colorings_heawood(relabelled) == expected


def test_generator_is_deterministic_in_its_seed():
    assert random_planar_cubic(30, random.Random(7)) == random_planar_cubic(30, random.Random(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_errors(name, tmp_path):
    """One round untraced and one traced: every check passes."""
    pauses = []
    result = harness.measure(harness.prepare(name, 3), 1e-3, tmp_path,
                             pause=lambda: pauses.append(1), pauses=2)
    assert len(pauses) == 2
    assert result["tally"].attempted > 0
    assert result["tally"].failed == 0, result["tally"].first_problems
    assert result["details"]["repeated_input_share"] == 0
    assert set(result["metrics"]) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}

    traced = harness.measure_traced(harness.prepare(name, 3), 1e-3, tmp_path)
    assert traced["tally"].failed == 0, traced["tally"].first_problems
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_check_catches_a_wrong_answer(tmp_path):
    prepared = harness.prepare("count", 3)
    prepared.bases[0].ref["count"] += 3
    result = harness.measure(prepared, 1e-3, tmp_path)
    assert result["tally"].failed >= 1


def test_tail_is_the_eleventh_largest_sample():
    percentile, value = harness.tail([float(i) for i in range(100)])
    assert value == 89.0
    assert percentile == 90.0


def test_command_prints_the_result_line():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
           "--seconds", "0.001", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
