"""Cross-cutting randomized properties (hypothesis-driven)."""

from __future__ import annotations

import hashlib
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.baswana_sen import run_distributed_spanner, spanner
from sparsekit.clustering import Clustering, contract
from sparsekit.graph import Graph
from sparsekit.verify import apsp, verify_stretch

from conftest import gnp_graph
from test_verify import brute_force_distances


@st.composite
def small_graphs(draw, max_n=8, weighted=True):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [
        (u, v, draw(st.integers(1, 9)) if weighted else 1) for u, v in chosen
    ]
    return Graph(n, edges, weighted=weighted)


@st.composite
def graph_with_clustering(draw):
    g = draw(small_graphs())
    # grow disjoint BFS clusters from random roots
    order = draw(st.permutations(list(range(g.n))))
    unused = set(range(g.n))
    parts = []
    for root in order:
        if root not in unused:
            continue
        cap = draw(st.integers(1, 3))
        members = {root: root}
        frontier = [root]
        while frontier and len(members) < cap:
            x = frontier.pop()
            for eid in g.adj[x]:
                y = g.edges[eid].other(x)
                if y in unused and y not in members and len(members) < cap:
                    members[y] = x
                    frontier.append(y)
        unused -= set(members)
        parts.append((root, members))
    return g, Clustering.from_parent_maps(g, parts)


@settings(deadline=None, max_examples=60)
@given(graph_with_clustering())
def test_contract_inv_round_trip(gc):
    g, cl = gc
    cg = contract(g, cl)
    for v in range(cg.graph.n):
        assert cg.inv(v) == cl.clusters[v].members
    # every contracted edge's witness runs between its two clusters and
    # realizes the minimum inter-cluster weight
    for eid in range(cg.graph.m):
        e = cg.graph.edge(eid)
        w = g.edges[cg.witness[eid]]
        cu = cl.membership[w.u]
        cv = cl.membership[w.v]
        assert {cu, cv} == {e.u, e.v}
        assert w.w == e.w
        mins = [
            x.w
            for x in g.edges
            if cl.membership.get(x.u) is not None
            and cl.membership.get(x.v) is not None
            and {cl.membership[x.u], cl.membership[x.v]} == {e.u, e.v}
        ]
        assert e.w == min(mins)


@settings(deadline=None, max_examples=40)
@given(small_graphs(max_n=8))
def test_apsp_agrees_with_path_enumeration(g):
    oracle = brute_force_distances(g)
    d = apsp(g)
    assert all(d[u][v] == oracle[u][v] for u in range(g.n) for v in range(g.n))


@settings(deadline=None, max_examples=25)
@given(small_graphs(max_n=10), st.integers(1, 4), st.integers(0, 10**6))
def test_spanner_stretch_and_distributed_agreement(g, k, seed):
    es = spanner(g, k, seed=seed)
    assert verify_stretch(g, es, 2 * k - 1).ok
    es_d, _ = run_distributed_spanner(g, k, seed=seed)
    assert es_d.ids == es.ids


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
def test_ultra_sparse_bound_property(seed, t):
    from sparsekit.ultra_sparse import ultra_sparse_spanner

    g = gnp_graph(40, 0.2, seed=seed, weighted=seed % 2 == 0, max_weight=20)
    out = ultra_sparse_spanner(g, t)
    assert len(out) <= g.n + math.ceil(g.n / t)


def test_hop_outputs_pinned():
    # sha256 over the outputs of every construction built on hop
    # traversals, on a weighted and an unweighted gnp (both disconnected)
    # and a grid, recorded before those traversals shared one BFS.
    from sparsekit.generate import gnp, grid
    from sparsekit.ldc import carve_clustering, grow_and_cut, ldc_sparse_spanner, weak_diameter_spanner
    from sparsekit.stretch_friendly import partition
    from sparsekit.ultra_sparse import ultra_sparse_spanner

    def trees(clustering):
        return [(c.root, sorted(c.parent.items())) for c in clustering.clusters]

    h = hashlib.sha256()
    graphs = (
        gnp(150, 0.03, seed=5),
        gnp(150, 0.03, seed=6, weighted=True, max_weight=20),
        grid(9, 13, seed=7),
    )
    for g in graphs:
        for t in (2, 4, 8):
            cl = partition(g, t)
            report = cl.report
            h.update(repr((trees(cl), report)).encode())
        for t_sep in (1, 3):
            sc = carve_clustering(g, t_sep)
            h.update(repr((trees(sc.clustering), sc.diameters, sc.demoted)).encode())
        for t in (1, 2):
            cl, ledger = grow_and_cut(g, t)
            steps = cl.report
            h.update(repr((trees(cl), sorted(ledger.witness.items()), steps)).encode())
        for t in (2, 8):
            h.update(repr(sorted(ultra_sparse_spanner(g, t).ids)).encode())
        out = weak_diameter_spanner(g)
        report = out.report
        h.update(repr((sorted(out.ids), sorted(report.items()))).encode())
        if not g.weighted:
            for t in (2, 4):
                h.update(repr(sorted(ldc_sparse_spanner(g, t).ids)).encode())
    assert h.hexdigest() == "4f6ede48837dc5635099d5b1dd323bca7787264ee377078f6cbc8bbfaad07692"
