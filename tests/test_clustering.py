from __future__ import annotations

import random

import pytest

from sparsekit.clustering import Cluster, Clustering, build_cluster, compose_spanner, contract, tree_height
from sparsekit.errors import InvalidClusteringError
from sparsekit.graph import EdgeSet, Graph
from sparsekit.verify import verify_stretch

from conftest import cycle_graph, gnp_graph, path_graph


def two_node_clusters(graph, pairs):
    """Clustering of consecutive pairs: (a, b) rooted at a via their edge."""
    parts = []
    for a, b in pairs:
        parts.append((a, {a: a, b: a}))
    return Clustering.from_parent_maps(graph, parts)


def test_contract_triangle():
    g = Graph(3, [(0, 1, 4), (0, 2, 7), (1, 2, 5)])
    cl = Clustering.from_parent_maps(g, [(0, {0: 0, 1: 0}), (2, {2: 2})])
    cg = contract(g, cl)
    assert cg.graph.n == 2 and cg.graph.m == 1
    # weight = min(w(0,2), w(1,2)) = 5, witnessed by edge 2
    assert cg.graph.edge(0).w == 5
    assert cg.witness == (2,)


def test_contract_identity():
    g = gnp_graph(12, 0.4, seed=3, weighted=True)
    cg = contract(g, Clustering.trivial(g))
    assert cg.graph.n == g.n and cg.graph.m == g.m
    # identity witnesses: contracted edge i corresponds to original edge i
    assert sorted(cg.witness) == list(range(g.m))
    for eid in range(cg.graph.m):
        e = cg.graph.edge(eid)
        orig = g.edge(cg.witness[eid])
        assert {e.u, e.v} == {orig.u, orig.v} and e.w == orig.w


def test_contract_eight_cycle_to_four_cycle():
    g = cycle_graph(8)
    cl = two_node_clusters(g, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cg = contract(g, cl)
    assert cg.graph.n == 4 and cg.graph.m == 4
    degs = sorted(len(cg.graph.incident(v)) for v in range(4))
    assert degs == [2, 2, 2, 2]  # a 4-cycle
    # inv round trip: every contracted node maps back to one cluster
    for v in range(4):
        assert cg.inv(v) == cl.clusters[v].members


def test_contract_tie_break_smallest_edge_id():
    # both edges between clusters {0,1} and {2,3} weigh 3; witness = smaller id
    g = Graph(4, [(0, 1, 1), (2, 3, 1), (0, 2, 3), (1, 3, 3)])
    cl = two_node_clusters(g, [(0, 1), (2, 3)])
    cg = contract(g, cl)
    assert cg.witness == (2,)


def test_contract_rejects_overlap():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    c0 = build_cluster(g, 0, 0, {0: 0, 1: 0})
    c1 = Cluster(1, 1, frozenset([1, 2]), {1: 1, 2: 1}, frozenset([1]), 1)
    with pytest.raises(InvalidClusteringError):
        contract(g, Clustering((c0, c1), {0: 0, 1: 0, 2: 1}))


def test_cluster_tree_validation():
    g = Graph(4, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(InvalidClusteringError):
        build_cluster(g, 0, 0, {0: 0, 1: 0, 3: 1})  # parent outside members? 1 is inside; no edge 3-1
    with pytest.raises(InvalidClusteringError):
        build_cluster(g, 0, 0, {0: 0, 2: 0})  # no edge 0-2
    with pytest.raises(InvalidClusteringError, match="do not reach all members"):
        build_cluster(g, 0, 0, {0: 0, 1: 2, 2: 1})  # 1 and 2 point at each other
    c = build_cluster(g, 0, 0, {0: 0, 1: 0, 2: 1})
    assert c.radius == 2 and c.tree_edges == frozenset([0, 1])


def test_tree_height():
    assert tree_height(0, {0: 0}) == (1, 0)
    assert tree_height(0, {0: 0, 1: 0, 2: 1, 3: 0, 4: 2}) == (5, 3)
    assert tree_height(0, {0: 0, 1: 0, 2: 3, 3: 2}) == (2, 1)  # the 2-3 cycle is never reached


def test_compose_spanner_trivial_partition():
    g = gnp_graph(10, 0.5, seed=2, weighted=True)
    cl = Clustering.trivial(g)
    cg = contract(g, cl)
    all_edges = EdgeSet(cg.graph, frozenset(range(cg.graph.m)))
    out = compose_spanner(cg, all_edges)
    assert out.ids == frozenset(range(g.m))


def test_compose_spanner_single_cluster_is_tree_only():
    g = cycle_graph(6)
    parent = {0: 0}
    for v in range(1, 6):
        parent[v] = v - 1
    cl = Clustering.from_parent_maps(g, [(0, parent)])
    cg = contract(g, cl)
    out = compose_spanner(cg, EdgeSet(cg.graph, frozenset()))
    assert len(out) == 5  # the spanning path only


def test_compose_spanner_rejects_spanner_of_another_graph():
    # Same n and m as the contraction of the path 0-1-2-3, other edges.
    g = path_graph(4)
    cl = Clustering.trivial(g)
    cg = contract(g, cl)
    with pytest.raises(InvalidClusteringError, match="does not match the contraction"):
        compose_spanner(cg, EdgeSet(Graph(4, [(0, 2), (2, 1), (1, 3)]), frozenset([0])))
    equal = contract(g, cl).graph  # built separately, equal edges
    assert compose_spanner(cg, EdgeSet(equal, frozenset([0]))).ids == frozenset([0])


def test_compose_spanner_requires_partition():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    cl = Clustering.from_parent_maps(g, [(0, {0: 0, 1: 0})])  # node 2 unclustered
    cg = contract(g, cl)
    with pytest.raises(InvalidClusteringError):
        compose_spanner(cg, EdgeSet(cg.graph, frozenset()))


def test_compose_eight_cycle_three_of_four_cluster_edges():
    g = cycle_graph(8)
    cl = two_node_clusters(g, [(0, 1), (2, 3), (4, 5), (6, 7)])
    cg = contract(g, cl)
    drop = max(range(cg.graph.m))
    sub = EdgeSet(cg.graph, frozenset(range(cg.graph.m)) - {drop})
    out = compose_spanner(cg, sub)
    assert len(out) == 7
    # r = 1 partition, alpha = 3 spanner of the 4-cycle: stretch <= (2+1)(3+1)-1 = 11
    assert verify_stretch(g, out, 11).ok


def test_compose_stretch_bound_random(rng):
    # (2r+1)(alpha+1)-1 composition bound on random weighted graphs
    for trial in range(8):
        g = gnp_graph(14, 0.45, seed=100 + trial, weighted=True, max_weight=9)
        if not g.is_connected():
            continue
        pairs = []
        used = set()
        for e in sorted(g.edges, key=lambda e: (e.w, e.id)):
            if e.u not in used and e.v not in used:
                pairs.append((e.u, e.v))
                used.update((e.u, e.v))
        singles = [(v, {v: v}) for v in range(g.n) if v not in used]
        cl = Clustering.from_parent_maps(
            g, [(a, {a: a, b: a}) for a, b in pairs] + singles
        )
        from sparsekit.verify import verify_stretch_friendly

        if not verify_stretch_friendly(g, cl).ok:
            continue  # matching along light edges is usually friendly; skip if not
        cg = contract(g, cl)
        keep = frozenset(
            eid for eid in range(cg.graph.m) if rng.random() < 0.7
        )
        from sparsekit.verify import measure_stretch

        alpha, _ = measure_stretch(cg.graph, keep)
        if alpha == float("inf"):
            continue
        out = compose_spanner(cg, EdgeSet(cg.graph, keep))
        r = cl.max_radius()
        bound = (2 * r + 1) * (alpha + 1) - 1
        assert verify_stretch(g, out, bound).ok
