from __future__ import annotations

import random

import pytest

from sparsekit.clustering import Cluster, Clustering, compose_spanner, contract
from sparsekit.errors import InvalidClusteringError
from sparsekit.graph import EdgeSet, Graph
from sparsekit.stretch_friendly import orient
from sparsekit.verify import verify_stretch

from conftest import cycle_graph, gnp_graph, path_graph


def two_node_clusters(graph, pairs):
    """Clustering of consecutive pairs: (a, b) rooted at a via their edge."""
    parent = [-1] * graph.n
    for a, b in pairs:
        parent[a] = parent[b] = a
    return Clustering(graph, parent)


def test_contract_triangle():
    g = Graph(3, [(0, 1, 4), (0, 2, 7), (1, 2, 5)])
    cl = Clustering(g, [0, 0, 2])
    cg = contract(g, cl)
    assert cg.graph.n == 2 and cg.graph.m == 1
    # weight = min(w(0,2), w(1,2)) = 5, witnessed by edge 2
    assert cg.graph.edge(0).w == 5
    assert cg.witness == (2,)


def test_contract_identity():
    g = gnp_graph(12, 0.4, seed=3, weighted=True)
    cg = contract(g, Clustering.singletons(g))
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


def random_partition(g: Graph, seed: int) -> Clustering:
    """Singletons, with random nodes hung as leaves below a neighbor."""
    rng = random.Random(seed)
    parent, inner = list(range(g.n)), set()
    for v in rng.sample(range(g.n), g.n):
        if v not in inner and parent[v] == v and g.adj[v] and rng.random() < 0.6:
            parent[v] = g.edges[rng.choice(g.incident(v))].other(v)
            inner.add(parent[v])
    return Clustering(g, parent)


def huge_weight_graph() -> Graph:
    # 10**30 + d for d in 0..3: beyond int64, and equal as float64 values;
    # node 16 is isolated, so its cluster has no boundary edge
    rng = random.Random(4)
    return Graph(17, [(e.u, e.v, 10**30 + rng.randint(0, 3)) for e in gnp_graph(16, 0.5, seed=4).edges],
                 weight_cap=10**40)


@pytest.mark.parametrize("g", [gnp_graph(16, 0.5, seed=4, weighted=True, max_weight=3), huge_weight_graph()],
                         ids=["small-weights", "huge-weights"])
def test_contract_and_orient_take_the_minimum_weight_then_id(g):
    # Brute force: the minimum (w, id) edge per cluster pair is the
    # contraction's witness, and per cluster the oriented boundary edge.
    lightest = lambda edges: min(edges, key=lambda e: (e.w, e.id))  # noqa: E731
    for seed in range(4):
        cl = random_partition(g, seed)
        label = cl.label
        between: dict[frozenset[int], list] = {}
        for e in g.edges:
            if label[e.u] != label[e.v]:
                between.setdefault(frozenset((label[e.u], label[e.v])), []).append(e)
        cg = contract(g, cl)
        assert {frozenset((e.u, e.v)): cg.witness[e.id] for e in cg.graph.edges} == {
            pair: lightest(es).id for pair, es in between.items()
        }
        expected = []
        for c in range(len(cl)):
            boundary = [e for es in between.values() for e in es if c in (label[e.u], label[e.v])]
            f = lightest(boundary) if boundary else None
            expected.append(f and (f.id, label[f.v] if label[f.u] == c else label[f.u]))
        assert orient(g, label, len(cl)) == expected
        if g.weight_cap > 2**63:  # the input tells (w, id) from id order among float-equal weights
            assert any(lightest(es).id != es[0].id for es in between.values())


PATH3 = Graph(4, [(0, 1, 1), (1, 2, 1)])  # the path 0-1-2 plus the isolated node 3


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Clustering(PATH3, [0, 0, 1]), "3 entries for 4 nodes"),
        (lambda: Clustering(PATH3, [0, 0, 1, 3, 3]), "5 entries for 4 nodes"),
        (lambda: Clustering(PATH3, [0, 0, 1, -2]), "parent -2 of node 3 is not a node"),
        (lambda: Clustering(PATH3, [0, 0, 4, 3]), "parent 4 of node 2 is not a node"),
        (lambda: Clustering(PATH3, [0, 0, 0, 3]), "no edge between node 2 and its parent 0"),
        (lambda: Clustering(PATH3, [0, 0, 1, 1]), "no edge between node 3 and its parent 1"),
        (lambda: Clustering(PATH3, [0, 2, 1, 3]), "do not reach all members"),  # 1 and 2 point at each other
        (lambda: Clustering(PATH3, [0, -1, 1, 3]), "node 2 hangs below unclustered node 1"),
        # same n, other edges: the clustering was validated on PATH3 only
        (lambda: contract(Graph(4, [(0, 2, 1), (1, 2, 1)]), Clustering(PATH3, [0, 0, 1, 3])), "another graph"),
    ],
    ids=["short", "long", "below-minus-one", "beyond-n", "non-edge", "non-edge-to-isolated",
         "cycle", "below-unclustered", "contract-other-graph"],
)
def test_invalid_clustering_rejected(build, match):
    with pytest.raises(InvalidClusteringError, match=match):
        build()


def test_clustering_derived_from_the_parent_list():
    cl = Clustering(PATH3, [1, 1, 1, -1])
    assert (cl.label, cl.depth) == ((0, 0, 0, -1), (1, 0, 1, -1))
    assert cl.clusters == (Cluster(1, frozenset([0, 1, 2]), 1, frozenset([0, 1])),)
    assert cl.covered() == 3 and not cl.is_partition(PATH3)
    # an equal graph built separately is accepted
    assert contract(Graph(4, [(0, 1, 1), (1, 2, 1)]), cl).graph.n == 1


def test_compose_spanner_trivial_partition():
    g = gnp_graph(10, 0.5, seed=2, weighted=True)
    cl = Clustering.singletons(g)
    cg = contract(g, cl)
    all_edges = EdgeSet(cg.graph, frozenset(range(cg.graph.m)))
    out = compose_spanner(cg, all_edges)
    assert out.ids == frozenset(range(g.m))


def test_compose_spanner_single_cluster_is_tree_only():
    g = cycle_graph(6)
    cl = Clustering(g, [0, 0, 1, 2, 3, 4])
    cg = contract(g, cl)
    out = compose_spanner(cg, EdgeSet(cg.graph, frozenset()))
    assert len(out) == 5  # the spanning path only


def test_compose_spanner_rejects_spanner_of_another_graph():
    # Same n and m as the contraction of the path 0-1-2-3, other edges.
    g = path_graph(4)
    cl = Clustering.singletons(g)
    cg = contract(g, cl)
    with pytest.raises(InvalidClusteringError, match="does not match the contraction"):
        compose_spanner(cg, EdgeSet(Graph(4, [(0, 2), (2, 1), (1, 3)]), frozenset([0])))
    equal = contract(g, cl).graph  # built separately, equal edges
    assert compose_spanner(cg, EdgeSet(equal, frozenset([0]))).ids == frozenset([0])


def test_compose_spanner_requires_partition():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    cl = Clustering(g, [0, 0, -1])  # node 2 unclustered
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
        parent = list(range(g.n))
        for a, b in pairs:
            parent[b] = a
        cl = Clustering(g, parent)
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
