"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import argparse
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tr
from workloads import ROOT, WORKLOADS, Mismatch, Table1


def traced_args(seconds: float = 0.2) -> argparse.Namespace:
    return argparse.Namespace(seed=run.DEFAULT_SEED, seconds=seconds, trace=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_agrees_with_package(name, tmp_path):
    wl = WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    for i in range(wl.traced_inputs):
        wl.check(i, wl.run(wl.prepare(i)))


def test_oracle_rejects_a_perturbed_table1_value(tmp_path):
    wl = Table1(run.DEFAULT_SEED, tmp_path)
    out = wl.run(0)
    row4 = out[3]
    out[3] = type(row4)(row4.soft, row4.real * (1 + 1e-7))
    with pytest.raises(Mismatch, match="row 4 real"):
        wl.check(0, out)


def _originals():
    found = {}
    for target, _, _ in tr.LIBRARY_PATCHES + tr.CLI_PATCHES:
        owner, attr = tr._resolve(target)
        found[target] = vars(owner)[attr]
    return found


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    wl = Table1(run.DEFAULT_SEED, tmp_path)
    import softprob.cli  # noqa: F401  (so the CLI names resolve too)
    before = _originals()
    tracer = tr.Tracer()
    with tracer:
        tracer.install(tr.LIBRARY_PATCHES)
        tracer.install(tr.CLI_PATCHES)
        assert not tracer.missing
        assert all(_originals()[t] is not before[t] for t in before)
        wl.run(0)
    assert all(_originals()[t] is before[t] for t in before)
    run.per_layer(wl, traced_args())
    assert all(_originals()[t] is before[t] for t in before)


@pytest.mark.parametrize("name", ["table1", "tree_mixed", "cli"])
def test_traced_and_untraced_runs_agree(name, tmp_path):
    """per_layer fails an operation whose traced output differs from the
    untraced one, and reports counts that differ between passes or runs."""
    wl = WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    for _ in range(2):
        values, phases, notes, errors = run.per_layer(wl, traced_args())
        assert errors == []
        assert [f for p in phases for f in p.failures] == []
    if name == "table1":
        assert values["quadrature.evals_2d"] == 4 * 1280 + 75008
        assert values["information.point_pairs"] == 5


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: wl.why for name, wl in WORKLOADS.items()}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 61)]) == (83, 50.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (50, 2.5)


def test_prints_one_result_line_with_every_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                           "--seconds", "0.5"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
