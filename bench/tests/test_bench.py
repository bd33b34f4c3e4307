"""Tests of the benchmark itself, at smoke sizes:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): parse(bench(w, trace=t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _, result = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    _, result = runs[(workload, 0)]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_facts_are_recorded(runs, workload):
    facts, _ = runs[(workload, 0)]
    info = facts["facts"]
    assert info["seed"] == 1 and info["workload"] == workload
    assert info["cores"] >= 1 and info["python"] and info["platform"] and info["git_revision"]
    assert info["timing"].startswith("unpinned")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_runs_give_identical_counts(runs, workload):
    untraced, _ = runs[(workload, 0)]
    traced, _ = runs[(workload, 1)]
    assert untraced["counts_digest"] == traced["counts_digest"]


def test_certify_counts_not_drawn_from_the_seed_repeat_across_seeds(runs):
    seed1, _ = runs[("certify", 0)]
    seed2, _ = parse(bench("certify", seed=2))
    assert seed1["fixed_counts_digest"] == seed2["fixed_counts_digest"]
    assert seed1["counts_digest"] != seed2["counts_digest"]


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import passrun
    import reference

    return passrun, reference.REFERENCE


@pytest.mark.parametrize(
    "workload, table, key, value, failure",
    [
        ("cnf_roundtrip", "cnf", (14, 3, 2, 3), (1457, "9771484971b1"), "cnf 14-3-2-3"),
        ("search_panel", "ramsey", (3, 3, 2), 7, "ramsey 3-3-2"),
        ("cnf_roundtrip", "forbidden_graphs", (6, 1), 1295, "forbidden 6-1"),
    ],
)
def test_corrupted_reference_counts_as_failed_operation(
    in_process, monkeypatch, workload, table, key, value, failure
):
    passrun, refs = in_process
    assert not passrun.run_pass(workload, 1, False, True, 0)["failures"]
    monkeypatch.setitem(refs[table], key, value)
    failures = passrun.run_pass(workload, 1, False, True, 0)["failures"]
    assert len(failures) == 1 and failures[0].startswith(failure)


def test_fails_without_result_in_a_bare_directory(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("certify", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
