"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

jobs.load_sparsekit()


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload", list(jobs.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_is_correct_and_reports_every_metric(workload, trace):
    res = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, scale="toy")
    assert (res.correct, res.failed) == (True, 0)
    # Every input set runs once, and once more traced in a traced run.
    jobs_per_pass = sum(len(jl) for jl in jobs.input_sets(workload, run.DEFAULT_SEED, "toy"))
    assert res.attempted == (2 if trace else 1) * jobs_per_pass
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: u for k, (_, u) in res.metrics.items()} == expected
    assert all(isinstance(v, (int, float)) for v, _ in res.metrics.values())
    line = json.loads(res.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_every_run_input_is_pinned_on_the_default_seed():
    pins = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    for scale in ("toy", "full"):
        for workload in jobs.WORKLOADS:
            names = [
                f"{workload}/{k}/{job.name}"
                for k, jl in enumerate(jobs.input_sets(workload, run.DEFAULT_SEED, scale))
                for job in jl
                if not job.name.startswith("table-")
            ]
            assert all(name in pins for name in names)


def _drop_one_edge(fn):
    def corrupted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return type(out)(out.graph, sorted(out.ids)[1:])

    return corrupted


def test_dropped_spanner_edge_raises_failed_frac_without_crashing(monkeypatch):
    from sparsekit import derand

    monkeypatch.setattr(derand, "deterministic_spanner", _drop_one_edge(derand.deterministic_spanner))
    res = run.run_workload("derand-spanners", run.DEFAULT_SEED, 0, False, scale="toy")
    # Both bs-det jobs of every input set fail; the linear-size job does not use it.
    assert res.failed == 2 * jobs.INPUT_SETS
    assert not res.correct and res.info["failed_frac"] > 0
    assert set(res.metrics) == set(_units("end_to_end"))


def test_a_job_that_raises_is_counted_and_the_run_goes_on(monkeypatch):
    from sparsekit import ldc

    def broken(graph, t):
        raise RuntimeError("injected")

    monkeypatch.setattr(ldc, "ldc_sparse_spanner", broken)
    res = run.run_workload("ldc-carving", 5, 0, True, scale="toy")
    assert res.failed == res.attempted > 0
    assert set(res.metrics) == set(_units("per_layer"))


def test_tracer_rebinds_names_where_callers_look_them_up_and_restores_them():
    from sparsekit import baswana_sen, certificates, clustering, cli, derand, stretch_friendly, ultra_sparse
    from sparsekit.graph import Graph

    imported = {
        (derand, "build_adjacency"): baswana_sen.build_adjacency,
        (ultra_sparse, "partition"): stretch_friendly.partition,
        (ultra_sparse, "contract"): clustering.contract,
        (ultra_sparse, "run_g_iterations"): baswana_sen.run_g_iterations,
        (certificates, "ultra_sparse_spanner"): ultra_sparse.ultra_sparse_spanner,
        (cli, "measure_stretch"): cli.measure_stretch,
        (cli, "deterministic_spanner"): derand.deterministic_spanner,
    }
    init = Graph.__init__
    tracer = Tracer()
    with tracer.installed():
        for (mod, name), orig in imported.items():
            assert getattr(mod, name) is not orig and getattr(mod, name).__wrapped__ is orig
        Graph(3, [(0, 1), (1, 2)], weighted=False)
    assert tracer.timer.calls["graph.init"] == 1
    assert Graph.__init__ is init
    for (mod, name), orig in imported.items():
        assert getattr(mod, name) is orig


def test_tracing_leaves_no_wrapper_in_a_module_it_imports():
    code = (
        "import jobs; from layers import Tracer; jobs.load_sparsekit()\n"
        "with Tracer().installed(): pass\n"
        "from sparsekit import cli, verify\n"
        "assert cli.measure_stretch is verify.measure_stretch\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ldc-carving", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
