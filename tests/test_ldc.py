from __future__ import annotations

import hashlib
import math

import networkx as nx
import pytest

from sparsekit import ldc
from sparsekit.clustering import Clustering
from sparsekit.errors import InvalidClusteringError, InvariantViolation, ParameterError
from sparsekit.graph import Graph
from sparsekit.ldc import (
    WeakCluster,
    carve_clustering,
    diameter_cap,
    grow_and_cut,
    ldc_sparse_spanner,
    stretch_bound_ldc,
    strong_primitive,
    weak_diameter_spanner,
)
from sparsekit.verify import measure_stretch

from conftest import complete_graph, connected_gnp, cycle_graph, gnp_graph, grid_graph, path_graph, to_networkx


# -- carve_clustering ---------------------------------------------------------


def test_carve_clique_single_cluster():
    g = complete_graph(8)
    sc = carve_clustering(g, 2)
    assert len(sc.clustering.clusters) == 1
    assert sc.clustering.clusters[0].members == frozenset(range(8))


def test_carve_empty_graph_singletons():
    g = Graph(5, [], weighted=False)
    sc = carve_clustering(g, 3)
    assert len(sc.clustering.clusters) == 5
    assert all(len(c.members) == 1 for c in sc.clustering.clusters)


def test_carve_path_intervals_with_gaps():
    g = path_graph(24)
    t = 2
    sc = carve_clustering(g, t)
    covered = sum(len(c.members) for c in sc.clustering.clusters)
    assert 2 * covered >= g.n
    # clusters are intervals on a path and pairwise more than t apart
    for c in sc.clustering.clusters:
        ms = sorted(c.members)
        assert ms == list(range(ms[0], ms[-1] + 1))
    roots = sorted(sc.clustering.clusters, key=lambda c: min(c.members))
    for a, b in zip(roots, roots[1:]):
        assert min(b.members) - max(a.members) > t
    sc.validate(g)


def test_carve_separation_guard_on_annulus_shortcut():
    # Deleted annulus nodes can hide full-metric shortcuts between later
    # candidates; the guard demotes one of them instead of emitting a
    # separation violation.  Node 7 and node 8 sit two hops apart through
    # the sacrificed node 6.
    edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1), (6, 8, 1)]
    g = Graph(9, edges, weighted=False)
    sc = carve_clustering(g, 3)
    sc.validate(g)
    assert sc.demoted >= 1
    covered = sum(len(c.members) for c in sc.clustering.clusters)
    assert 2 * covered >= g.n


def test_carve_checks_coverage_once(monkeypatch):
    # the half-coverage invariant is read once, by SeparatedClustering.validate
    calls, real = [], Clustering.covered
    monkeypatch.setattr(Clustering, "covered", lambda self: calls.append(1) or real(self))
    carve_clustering(path_graph(20), 2)
    assert len(calls) == 1
    monkeypatch.setattr(Clustering, "covered", lambda self: 0)
    with pytest.raises(InvariantViolation, match="fewer than half"):
        carve_clustering(path_graph(20), 2)


def test_carve_rejects_bad_t():
    with pytest.raises(ParameterError):
        carve_clustering(path_graph(4), 0)


def test_carve_random_graphs_validate(rng):
    for trial in range(15):
        n = rng.randint(8, 70)
        g = gnp_graph(n, rng.choice([0.05, 0.12, 0.3]), seed=500 + trial)
        for t in (1, 2, 4):
            sc = carve_clustering(g, t)
            sc.validate(g)
            cap = diameter_cap(n, t)
            assert all(d <= cap for d in sc.diameters)


# -- grow_and_cut -------------------------------------------------------------


def test_grow_and_cut_small_diameter_graph_single_cluster():
    # one carve cluster swallows everything: a single step, empty ledger
    g = complete_graph(9)
    cl, ledger = grow_and_cut(g, 2)
    assert len(cl.clusters) == 1 and not ledger.edges


def test_grow_and_cut_distant_cliques_bridged():
    edges = []
    k = 6
    for u in range(k):
        for v in range(u + 1, k):
            edges.append((u, v, 1))
    for u in range(k, 2 * k):
        for v in range(u + 1, 2 * k):
            edges.append((u, v, 1))
    chain = [0] + list(range(2 * k, 2 * k + 30)) + [k]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b, 1))
    g = Graph(2 * k + 30, edges, weighted=False)
    cl, ledger = grow_and_cut(g, 2)
    assert cl.is_partition(g)
    assert len(cl.clusters) >= 2
    member = cl.label
    bridged = set()
    for eid in ledger.edges:
        e = g.edges[eid]
        bridged.add(frozenset((member[e.u], member[e.v])))
    for e in g.edges:
        cu, cv = member[e.u], member[e.v]
        if cu != cv:
            assert frozenset((cu, cv)) in bridged
    assert len(ledger.edges) * 2 <= g.n


def test_grow_and_cut_invariants_on_random_graphs(rng):
    # the five step invariants and the 1/5 bad-mass bound are runtime
    # assertions inside grow_and_cut; a clean return is the proof they held
    for trial in range(8):
        n = rng.randint(30, 140)
        g = gnp_graph(n, rng.choice([0.03, 0.08, 0.2]), seed=700 + trial)
        for t in (2, 4):
            cl, ledger = grow_and_cut(g, t)
            steps = cl.report
            assert cl.is_partition(g)
            assert len(ledger.edges) * t <= n
            assert all(s.bad_mass * 5 <= s.unclustered_before for s in steps)


def test_grow_and_cut_200_node_random():
    g = gnp_graph(200, 0.03, seed=41)
    cl, ledger = grow_and_cut(g, 4)
    steps = cl.report
    assert cl.is_partition(g)
    assert len(steps) >= 1


# -- diameter checks ----------------------------------------------------------


def test_carve_diameters_are_exact(rng):
    for trial in range(12):
        n = rng.randint(8, 90)
        g = gnp_graph(n, rng.choice([0.05, 0.12, 0.3]), seed=1500 + trial)
        nxg = to_networkx(g)
        for t in (1, 2, 4):
            sc = carve_clustering(g, t)
            for c, d in zip(sc.clustering.clusters, sc.diameters):
                assert d == nx.diameter(nxg.subgraph(c.members))


def middle_ended_path(n: int) -> Graph:
    """Path on n nodes whose two ends are nodes n//2 and n//2 + 1."""
    mid = n // 2
    order = [mid] + [v for v in range(n) if v not in (mid, mid + 1)] + [mid + 1]
    return Graph(n, list(zip(order, order[1:])), weighted=False)


@pytest.mark.parametrize(
    "g", [middle_ended_path(600), grid_graph(20, 20)], ids=["path600", "grid20"]
)
def test_induced_diameter_across_source_chunks(g):
    # More than 256 members.  Only the ends of the path (both in the middle
    # chunk of sources) reach the diameter, so every chunk must count.
    assert ldc._induced_diameter(g, frozenset(range(g.n))) == nx.diameter(to_networkx(g))


def test_induced_diameter_single_node_and_disconnected():
    g = path_graph(5)
    assert ldc._induced_diameter(g, frozenset([3])) == 0
    with pytest.raises(InvariantViolation, match="not connected in its induced subgraph"):
        ldc._induced_diameter(g, frozenset([0, 1, 3, 4]))  # connected only through node 2
    with pytest.raises(InvariantViolation, match="not connected in its induced subgraph"):
        ldc._induced_diameter(Graph(2, [], weighted=False), frozenset([0, 1]))


@pytest.fixture
def exact_calls(monkeypatch):
    """Sizes of the member sets the exact `_induced_diameter` runs on."""
    calls = []
    induced_diameter = ldc._induced_diameter

    def counting_diameter(graph, members):
        calls.append(len(members))
        return induced_diameter(graph, members)

    monkeypatch.setattr(ldc, "_induced_diameter", counting_diameter)
    return calls


def test_root_eccentricity_certificate_holds(rng, monkeypatch, exact_calls):
    # 2 ecc(root) is within the diameter bound for every carved and every
    # grown cluster, so the exact diameter never runs: not as the carve's
    # fallback, not as invariant 1's, and `diameters` is computed lazily.
    carved = []
    carve = ldc.carve_clustering

    def recording_carve(graph, t_sep, nodes=None):
        sc = carve(graph, t_sep, nodes)
        carved.append(sc)
        return sc

    monkeypatch.setattr(ldc, "carve_clustering", recording_carve)
    for trial in range(8):
        n = rng.randint(30, 140)
        g = gnp_graph(n, rng.choice([0.03, 0.08, 0.2]), seed=1700 + trial)
        nxg = to_networkx(g)
        for t in (1, 2, 4):
            exact_calls.clear()
            carved.clear()
            cl, _ = grow_and_cut(g, t)
            for c in cl.clusters:
                ecc = nx.eccentricity(nxg.subgraph(c.members), v=c.root)
                assert 2 * ecc <= diameter_cap(n, 10 * t) + 10 * t
            for sc in carved:
                cap = diameter_cap(len(sc.universe), sc.t_sep)
                for c in sc.clustering.clusters:
                    assert 2 * nx.eccentricity(nxg.subgraph(c.members), v=c.root) <= cap
            assert exact_calls == []


def test_zero_diameter_cap_still_raises(monkeypatch):
    # The carve's exact diameter check rejects the first cluster with an
    # edge; grow_and_cut never returns with the bound gone.
    monkeypatch.setattr(ldc, "diameter_cap", lambda n, t_sep: 0)
    with pytest.raises(InvariantViolation, match="diameter"):
        grow_and_cut(gnp_graph(60, 0.08, seed=3), 2)


def test_invariant_one_falls_back_to_exact_diameter(exact_calls):
    # On the path 0-1-2-3-4 (diameter 4), a cluster rooted at the end has
    # 2 ecc(root) = 8: the certificate fails and the exact diameter decides.
    g = path_graph(5)
    everything = frozenset(range(5))

    def check(root, members, diam_bound):
        new = [(root, members, g.bfs((root,), nodes=members))]
        ldc._check_step_invariants(g, 1, Clustering(g, [-1] * 5), new, {}, set(), diam_bound)

    check(2, everything, 4)  # 2 ecc(center) = 4: certified, no exact run
    assert exact_calls == []
    check(0, everything, 4)  # exact diameter 4 is within the bound
    assert exact_calls == [5]
    with pytest.raises(InvariantViolation, match="invariant 1: cluster of root 2 diameter exceeds 3"):
        check(2, everything, 3)
    with pytest.raises(InvariantViolation, match="not connected in its induced subgraph"):
        check(0, frozenset([0, 1, 3, 4]), 100)


# -- spanners -----------------------------------------------------------------


def test_ldc_spanner_tree_is_tree():
    from sparsekit.generate import random_tree

    g = random_tree(30, seed=4)
    es = ldc_sparse_spanner(g, 4)
    assert es.ids == frozenset(range(g.m))


def test_ldc_spanner_cycle64():
    g = cycle_graph(64)
    es = ldc_sparse_spanner(g, 4)
    assert len(es) <= 64 + 16
    ratio, _ = measure_stretch(g, es.ids)
    assert ratio <= stretch_bound_ldc(64, 4)


def test_ldc_spanner_grid16():
    g = grid_graph(16, 16)
    es = ldc_sparse_spanner(g, 4)
    assert len(es) <= 256 + 64
    ratio, _ = measure_stretch(g, es.ids)
    assert ratio <= stretch_bound_ldc(256, 4)


def test_ldc_spanner_exact_bound_sweep(rng):
    for t in (2, 4, 8, 16):
        g = connected_gnp(80, 0.07, seed=900 + t)
        es = ldc_sparse_spanner(g, t)
        assert len(es) <= g.n + math.ceil(g.n / t)
        ratio, _ = measure_stretch(g, es.ids)
        assert ratio <= stretch_bound_ldc(g.n, t)


def test_ldc_spanner_disconnected_per_component():
    g = Graph(10, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (6, 7, 1)], weighted=False)
    es = ldc_sparse_spanner(g, 2)
    assert es.ids == frozenset(range(g.m))  # trees of each component


def test_ldc_spanner_rejects_weighted():
    g = Graph(3, [(0, 1, 2), (1, 2, 5)])
    with pytest.raises(ParameterError):
        ldc_sparse_spanner(g, 2)


# -- weak-diameter ------------------------------------------------------------


def test_weak_spanner_default_primitive_matches_strong_size_class():
    g = grid_graph(8, 8)
    weak = weak_diameter_spanner(g)
    rep = weak.report
    ratio, _ = measure_stretch(g, weak.ids)
    assert ratio <= rep["max_tree_diameter"] + 1
    assert len(weak) <= rep["size_budget"]


def test_weak_spanner_hand_built_steiner_overlap():
    # path 0-1-2-3-4: two weak clusters {0} and {3,4} whose trees share
    # the middle; overlap accounting: node 2 serves both trees.
    g = path_graph(5)

    calls = []

    def primitive(graph, alive):
        if len(alive) == 5:
            calls.append("first")
            return [
                WeakCluster(frozenset([0]), frozenset([0, 1, 2]), frozenset([0, 1])),
                WeakCluster(frozenset([4, 3]), frozenset([2, 3, 4]), frozenset([2, 3])),
            ]
        calls.append("rest")
        return strong_primitive(3)(graph, alive)

    es = weak_diameter_spanner(g, primitive)
    rep = es.report
    assert calls[0] == "first"
    ratio, _ = measure_stretch(g, es.ids)
    assert ratio <= rep["max_tree_diameter"] + 1
    # sum of xi over the first round: |{0,1,2}| + |{2,3,4}| = 6 (node 2 twice)
    assert rep["size_budget"] >= 6


def test_weak_spanner_disconnected_cluster_through_steiner():
    # a cluster whose member set {0,1,5,6} is held together only by the
    # Steiner nodes 2,3,4 of its tree
    g = path_graph(7)

    def primitive(graph, alive):
        if len(alive) == 7:
            return [
                WeakCluster(frozenset([0, 1, 5, 6]), frozenset(range(7)), frozenset(range(6)))
            ]
        return strong_primitive(3)(graph, alive)

    es = weak_diameter_spanner(g, primitive)
    rep = es.report
    ratio, _ = measure_stretch(g, es.ids)
    assert ratio <= rep["max_tree_diameter"] + 1


def test_weak_spanner_rejects_non_separated_primitive():
    g = path_graph(6)

    def primitive(graph, alive):
        # adjacent singleton clusters: separation 1 < 3
        return [
            WeakCluster(frozenset([0]), frozenset([0]), frozenset()),
            WeakCluster(frozenset([1]), frozenset([1]), frozenset()),
            WeakCluster(frozenset([2]), frozenset([2]), frozenset()),
            WeakCluster(frozenset([3]), frozenset([3]), frozenset()),
        ]

    with pytest.raises(InvalidClusteringError):
        weak_diameter_spanner(g, primitive)


def test_weak_spanner_rejects_disconnected_tree():
    # A triangle plus a separate edge: |edges| = |nodes| - 1, but no tree.
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)], weighted=False)
    wc = WeakCluster(frozenset(range(5)), frozenset(range(5)), frozenset(range(4)))
    with pytest.raises(InvalidClusteringError, match="T_C is not connected"):
        weak_diameter_spanner(g, lambda graph, alive: [wc])


def test_tree_diameter_double_sweep():
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6)], weighted=False)
    whole = WeakCluster(frozenset([0]), frozenset(range(7)), frozenset(range(6)))
    assert ldc._tree_diameter(spider, whole) == 5  # 2-1-0-3-4-5
    single = WeakCluster(frozenset([6]), frozenset([6]), frozenset())
    assert ldc._tree_diameter(spider, single) == 0


# -- pinned outputs -----------------------------------------------------------


def ldc_transcript() -> str:
    """Every output bit of the LDC constructions on a fixed set of inputs."""
    graphs = [
        ("gnp64", gnp_graph(64, 0.08, seed=3)),
        ("gnp200", gnp_graph(200, 0.03, seed=5)),
        ("grid12", grid_graph(12, 12)),
    ]
    lines = []
    for name, g in graphs:
        for t in (2, 4, 8):
            lines.append(f"{name} t={t}")
            lines.append(f"ldc {sorted(ldc_sparse_spanner(g, t).ids)}")
            lines.append(f"weak {sorted(weak_diameter_spanner(g, strong_primitive(t)).ids)}")
            cl, ledger = grow_and_cut(g, t)
            for c in cl.clusters:
                lines.append(f"cluster {c.root} {[(v, cl.parent[v]) for v in sorted(c.members)]}")
            lines.append(f"ledger {sorted(ledger.edges)} {sorted(ledger.witness.items())}")
    return "\n".join(lines)


LDC_DIGEST = "b0e9dd7edf782200d914fb68e2a30991b2580878b5634462879b1a361e4d1716"


def test_ldc_outputs_pinned():
    assert hashlib.sha256(ldc_transcript().encode()).hexdigest() == LDC_DIGEST
