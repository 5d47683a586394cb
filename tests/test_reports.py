"""The report contract: every construction returns one type, whatever its
arguments, and says how it ran on the result's output-only `report`."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

import sparsekit
from sparsekit.certificates import certificate_large_k, certificate_small_k
from sparsekit.clustering import Clustering
from sparsekit.generate import k_connected_random
from sparsekit.graph import EdgeSet
from sparsekit.ldc import GrowCutStep, InterEdgeLedger, grow_and_cut, strong_primitive, weak_diameter_spanner
from sparsekit.stretch_friendly import PartitionReport, partition
from sparsekit.ultra_sparse import LinearSizeReport, UltraSparseReport, linear_size_spanner, ultra_sparse_spanner

from conftest import connected_gnp, gnp_graph

GRAPHS = {
    "gnp-weighted": connected_gnp(40, 0.15, seed=3, weighted=True, max_weight=20),
    "gnp-disconnected": gnp_graph(30, 0.05, seed=4),
}

# construction name -> [(call, type of its report)], one entry per way to call it
EDGE_SET_CASES = {
    "linear_size_spanner": [
        (lambda g: linear_size_spanner(g), LinearSizeReport),
        (lambda g: linear_size_spanner(g, mode="randomized", seed=2, alpha0=4), LinearSizeReport),
    ],
    "ultra_sparse_spanner": [
        (lambda g: ultra_sparse_spanner(g, 4), UltraSparseReport),
        (lambda g: ultra_sparse_spanner(g, 4, verify=True), UltraSparseReport),
    ],
    "weak_diameter_spanner": [
        (lambda g: weak_diameter_spanner(g), dict),
        (lambda g: weak_diameter_spanner(g, strong_primitive(5)), dict),
    ],
    "certificate_small_k": [
        (lambda g: certificate_small_k(g, 2), list),
    ],
    "certificate_large_k": [
        (lambda g: certificate_large_k(g, 2, seed=1), dict),  # one part (q = 1)
        (lambda g: certificate_large_k(g, 4, seed=7, c_k=0.001), dict),  # q >= 2
    ],
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("name", sorted(EDGE_SET_CASES))
def test_edge_set_constructions_carry_their_report(name, graph):
    g = GRAPHS[graph]
    for build, report_type in EDGE_SET_CASES[name]:
        out = build(g)
        assert type(out) is EdgeSet and out.graph is g
        assert isinstance(out.report, report_type)
        plain = EdgeSet(g, out.ids)
        assert plain.report is None
        assert plain == out and hash(plain) == hash(out)
        assert repr(plain) == repr(out)


def test_documented_report_contents():
    g = k_connected_random(14, 4, seed=2)
    assert set(certificate_large_k(g, 3, seed=4).report) == {"q", "k_part", "parts"}
    split = certificate_large_k(g, 4, eps=Fraction(2, 5), seed=7, c_k=0.001).report
    assert split["q"] >= 2 and sorted(e for part in split["parts"] for e in part) == list(range(g.m))
    layers = certificate_small_k(g, 3).report
    assert all(isinstance(layer, frozenset) for layer in layers)
    assert set(weak_diameter_spanner(g).report) == {"rounds", "size_budget", "max_tree_diameter"}
    assert ultra_sparse_spanner(g, 2).report.stretch is None
    assert ultra_sparse_spanner(g, 2, verify=True).report.stretch is not None


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_partition_carries_its_report(graph):
    g = GRAPHS[graph]
    for cl in (partition(g, 4), partition(g, 2), partition(g, 1)):
        assert type(cl) is Clustering and isinstance(cl.report, PartitionReport)
        assert cl.report.cluster_sizes == tuple(len(c.members) for c in cl.clusters)
        plain = Clustering(cl.graph, cl.parent)
        assert plain == cl and repr(plain) == repr(cl)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_grow_and_cut_returns_a_pair_with_steps_on_the_clustering(graph):
    g = GRAPHS[graph]
    for t in (1, 2, 4):
        out = grow_and_cut(g, t)
        assert type(out) is tuple and len(out) == 2
        cl, ledger = out
        assert type(cl) is Clustering and type(ledger) is InterEdgeLedger
        assert type(cl.report) is tuple and cl.report
        assert all(type(step) is GrowCutStep for step in cl.report)


def _public_callables():
    for name in dir(sparsekit):
        obj = getattr(sparsekit, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def test_no_exported_callable_takes_a_return_shape_toggle():
    checked = 0
    for name, obj in _public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to inspect
            continue
        checked += 1
        toggles = [p for p in params if p.startswith("with_")]
        assert not toggles, f"{name} takes {toggles}"
    assert checked > 40
