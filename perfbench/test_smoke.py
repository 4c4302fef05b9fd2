"""Smoke test of the benchmark driver on tiny configs.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import record_reference
import run

BENCHMARK = json.loads(run.BENCHMARK_PATH.read_text())
WORKLOADS = run.load_workloads()

TINY = [
    {"name": "tiny_fig1", "figure": "fig1", "flags": {}, "run_s": 1.0,
     "config": {"tune_budget": 3, "tune_iters": 20},
     "reference_tolerances": {"alpha_pd": ["exact", 0]}},
    {"name": "tiny_fig4", "figure": "fig4", "flags": {"n": 20}, "run_s": 1.0,
     "reference_tolerances": {"plateaus": ["rel", 1e-6]}},
]


@pytest.fixture(scope="module")
def tiny_reference():
    """Reference entries of instance 7 of the tiny workloads, recorded here."""
    return {"workloads": {w["name"]: {"7": record_reference.record_one(w, 7)}
                          for w in TINY}}


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", TINY, ids=[w["name"] for w in TINY])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section, tiny_reference):
    summary, line = run.measure(workload, 7, 0, bool(trace), tiny_reference)
    assert line["correct"] and line["failed"] == 0, summary["runs"]
    assert line["attempted"] == (2 if trace else 1)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units(section)
    for value in line["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_scenario_assertion_failure_counts_as_failed():
    # fig5 on network draw 3 fails its fixed_point_convergence assertion at
    # the reference commit: the run is timed and reported, and counted failed,
    # while its outputs still equal the reference
    summary, line = run.measure(WORKLOADS["fig5_fixed_point_sweep"], 3, 0, False,
                                run.load_reference())
    assert line["attempted"] == 1 and line["failed"] == 1 and line["correct"]
    assert "fixed_point_convergence" in str(summary["runs"][0]["problems"])
    assert line["metrics"]["wall_s"]["value"] > 0


def test_output_off_its_reference_is_incorrect():
    workload = TINY[1]
    reference = {"workloads": {workload["name"]: {"7": {
        "values": {"plateaus": [1.0, 2.0, 3.0]}, "digests": {}}}}}
    summary, line = run.measure(workload, 7, 0, False, reference)
    assert not line["correct"] and line["failed"] == 1
    assert "plateaus" in str(summary["runs"][0]["problems"])


def test_run_without_a_reference_is_incorrect():
    summary, line = run.measure(TINY[1], 7, 0, False, {})
    assert not line["correct"] and line["failed"] == 1
    assert "no reference" in str(summary["runs"][0]["problems"])


def test_instances_wrap_round_the_recorded_ones():
    reference = run.load_reference()["workloads"]
    for name, workload in WORKLOADS.items():
        assert set(reference[name]) == {str(i) for i in range(run.INSTANCES)}
        planned = run.instances(workload, 10 * run.INSTANCES - 1, 60, False)
        assert [i for i, _ in planned][:2] == [run.INSTANCES - 1, 0]


def test_run_cut_by_the_time_limit_counts_as_failed(monkeypatch, tiny_reference):
    monkeypatch.setattr(run, "CHILD_LIMIT_S", 0.0)
    summary, line = run.measure(TINY[1], 7, 3, False, tiny_reference)
    assert line["attempted"] == 3 and line["failed"] == 2 and line["correct"]
    assert all("not run" in str(r["problems"]) for r in summary["runs"][1:])


def test_refuses_to_run_without_the_library():
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig1_tuned_hybrid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
