"""Tests of the benchmark itself, on the cut-down (smoke) workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_hexcube()

import hexcube  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def smoke_args(name: str, trace: int, seed: int = 1):
    return run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace), "--smoke"])


@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_workload_meets_known_answers(name):
    wl = workloads.SMOKE[name]
    result = wl.run(wl.prepare(wl.build(7)))
    checks = wl.checks(result)
    assert checks and all(checks.values()), checks
    assert wl.items(result) > 0


def test_wrong_expected_answer_counts_as_failure(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.FULLERENE_COUNTS, 22, 1)  # there is no C22
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    record = run.run_workload(smoke_args("fullerene-q5-n32", trace=1))
    final = run.report(record)
    assert record["failed_checks"] == ["C22_count", "C22_count"]  # untraced and traced pass
    assert final["correct"] is False
    assert final["failed"] == 2 and final["attempted"] > final["failed"]


def test_check_gc_answers_do_not_depend_on_seed():
    wl = workloads.SMOKE["check-gc"]
    a, b = wl.build(1), wl.build(2)
    assert a != b  # the relabelling differs
    reps_a, reps_b = (wl.run(wl.prepare(x)) for x in (a, b))
    assert reps_a == reps_b
    assert all(wl.checks(reps_a).values())


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda: [inner(20000) for _ in range(3)])
    tracer.span("root", outer)
    cols = tracer.columns()
    names = [tracer.names[i] for i in cols["name"]]
    assert names == ["root", "outer", "inner", "inner", "inner"]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 1]
    assert cols["self"][1] == pytest.approx(cols["dur"][1] - cols["dur"][2:].sum())
    assert cols["self"][2:].tolist() == cols["dur"][2:].tolist()


def test_install_patches_every_alias_and_uninstall_restores():
    original = hexcube.canonical.canonical_code
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in (hexcube, hexcube.canonical, hexcube.generator, hexcube.reports):
            assert mod.canonical_code.__wrapped__ is original
        assert hasattr(hexcube.generator._Growth.children, "__wrapped__")
    finally:
        tracer.uninstall()
    assert hexcube.reports.canonical_code is original
    assert not hasattr(hexcube.generator._Growth.children, "__wrapped__")


def test_five_subset_rank_is_lexicographic():
    n = 8
    for rank, subset in enumerate(itertools.combinations(range(n), 5)):
        assert spans.five_subset_rank(list(subset), n) == rank
    assert rank == math.comb(n, 5) - 1


def test_five_gonal_subsets_counts_up_to_the_first_witness():
    tracer = spans.Tracer()
    dist = np.zeros((8, 8), dtype=np.int32)
    first = hexcube.FiveGonalWitness(a=3, b=0, x=1, y=2, z=5, deficit=-1, diameter=2)
    tracer._on_five_gonal((dist,), {"stop_at_first": True}, [first])  # rank 1: 2 scanned
    tracer._on_five_gonal((dist, True), {}, [])  # clean: all scanned
    tracer._on_five_gonal((dist,), {}, [first])  # full scan
    assert tracer.subsets == 2 + 2 * math.comb(8, 5)


def test_traced_runs_show_the_layers_each_workload_exercises(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    gc = run.run_workload(smoke_args("check-gc", trace=1))
    survey = run.run_workload(smoke_args("survey-q4-n40", trace=1))
    assert gc["failed"] == survey["failed"] == 0
    assert not any(k.startswith("generator.") for k in gc["self_s_by_span"])
    assert gc["metrics"]["embedding.five_gonal_scan.subsets"] > 0
    assert gc["metrics"]["reports.check_graph.max_s"] > 0
    assert survey["metrics"]["generator.children.calls"] > 0
    assert 0 < survey["metrics"]["canonical.new_class_ratio"] <= 1
    saved = np.load(tmp_path / "spans-survey-q4-n40.npz")
    assert len(saved["start"]) == len(saved["end"]) == len(saved["parent"]) > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-gc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    declared = run.declared_metrics(0)
    assert set(final["metrics"]) == {f"{w}/{m}" for w in run.NAMES for m in declared}
    assert proc.stdout.count("fail_ratio = 0 ratio") == len(run.NAMES)
