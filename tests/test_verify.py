from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import generate, verify
from sparsekit.baswana_sen import spanner
from sparsekit.clustering import Clustering
from sparsekit.derand import deterministic_spanner
from sparsekit.errors import InvalidClusteringError, ParameterError
from sparsekit.graph import EdgeSet, Graph
from sparsekit.ldc import ldc_sparse_spanner
from sparsekit.ultra_sparse import ultra_sparse_spanner
from sparsekit.verify import (
    _exact_float_ok,
    apsp,
    measure_stretch,
    sssp,
    verify_stretch,
    verify_stretch_friendly,
)

from conftest import connected_gnp, cycle_graph, gnp_graph, path_graph


def brute_force_distances(g: Graph) -> list[list[float]]:
    """Exhaustive enumeration over all simple paths (oracle, n <= 10)."""
    assert g.n <= 10
    best = [[math.inf] * g.n for _ in range(g.n)]

    def dfs(start: int, node: int, weight: int, visited: set[int]):
        if weight < best[start][node]:
            best[start][node] = weight
        for eid in g.incident(node):
            e = g.edges[eid]
            nxt = e.other(node)
            if nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, weight + e.w, visited)
                visited.remove(nxt)

    for s in range(g.n):
        best[s][s] = 0
        dfs(s, s, 0, {s})
    return best


def test_apsp_path():
    g = path_graph(3, [1, 2])
    d = apsp(g)
    assert d[0][2] == 3 and d[2][0] == 3 and d[0][1] == 1


def test_apsp_single_node():
    g = Graph(1, [])
    assert apsp(g) == [[0]]


def test_apsp_matches_brute_force_random():
    for seed in range(12):
        g = gnp_graph(8, 0.4, seed=seed, weighted=True, max_weight=12)
        oracle = brute_force_distances(g)
        d = apsp(g)
        for u in range(g.n):
            for v in range(g.n):
                assert d[u][v] == oracle[u][v], (seed, u, v)


def test_apsp_ten_node_weighted_vs_oracle():
    g = gnp_graph(10, 0.45, seed=77, weighted=True, max_weight=20)
    assert apsp(g) == brute_force_distances(g)


def test_sssp_respects_edge_restrictions():
    g = cycle_graph(5)
    d = sssp(g, 0, edge_ids=[0, 1, 2, 3])  # cut the closing edge
    assert d[4] == 4


def test_sssp_rejects_a_source_outside_the_graph():
    for g, source in ((Graph(0, []), 0), (path_graph(3), 3), (path_graph(3), -1)):
        with pytest.raises(ParameterError, match=f"source {source} is not a node"):
            sssp(g, source)


def test_verify_stretch_full_graph_is_one():
    g = gnp_graph(15, 0.4, seed=9, weighted=True)
    rep = verify_stretch(g, EdgeSet(g, frozenset(range(g.m))), 1)
    assert rep.ok and rep.worst_ratio == 1


def test_verify_stretch_four_cycle_three_edges():
    g = cycle_graph(4)
    rep = verify_stretch(g, EdgeSet(g, frozenset([0, 1, 2])), 3)
    assert rep.ok and rep.worst_ratio == Fraction(3)
    assert not verify_stretch(g, EdgeSet(g, frozenset([0, 1, 2])), 2).ok


def test_verify_stretch_disconnection_reports_inf():
    g = path_graph(4)
    rep = verify_stretch(g, EdgeSet(g, frozenset([0, 2])), 100)
    assert not rep.ok and math.isinf(rep.worst_ratio) and rep.worst_edge == 1


def test_verify_stretch_rejects_spanner_of_another_graph():
    g = path_graph(4)
    # the second graph has as many edges as g
    for other, ids in ((cycle_graph(4), [3]), (Graph(4, [(0, 2), (2, 1), (1, 3)]), [0])):
        with pytest.raises(ParameterError, match="not over the given graph"):
            verify_stretch(g, EdgeSet(other, frozenset(ids)), 3)
    # an equal graph built separately is accepted
    assert verify_stretch(g, EdgeSet(path_graph(4), frozenset(range(3))), 1).ok


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_verify_stretch_identity_property(seed):
    g = gnp_graph(10, 0.35, seed=seed, weighted=bool(seed % 2), max_weight=30)
    assert verify_stretch(g, EdgeSet(g, frozenset(range(g.m))), 1).ok


def test_stretch_friendly_unweighted_any_clustering():
    g = gnp_graph(12, 0.4, seed=4)
    # grow arbitrary BFS clusters of size <= 3
    rng = random.Random(0)
    unused = set(range(g.n))
    parent = [-1] * g.n
    while unused:
        root = min(unused)
        parent[root], size, frontier = root, 1, [root]
        unused.discard(root)
        while frontier and size < 3:
            x = frontier.pop()
            for eid in g.incident(x):
                y = g.edges[eid].other(x)
                if y in unused and size < 3:
                    parent[y], size = x, size + 1
                    unused.discard(y)
                    frontier.append(y)
    cl = Clustering(g, parent)
    assert verify_stretch_friendly(g, cl).ok


def test_stretch_friendly_star_cluster_ok():
    # hub-rooted star with unit tree weights; a heavy boundary edge is fine
    g = Graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 5)])
    cl = Clustering(g, [0, 0, 0, 0, 4])
    assert verify_stretch_friendly(g, cl).ok


def test_stretch_friendly_violation_on_root_path():
    # path a-b-c with w(a,b)=3, w(b,c)=1, cluster rooted at c,
    # boundary edge at a of weight 2: a's root path holds the weight-3 edge.
    g = Graph(4, [(0, 1, 3), (1, 2, 1), (0, 3, 2)])
    cl = Clustering(g, [1, 2, 2, 3])
    rep = verify_stretch_friendly(g, cl)
    assert not rep.ok
    cluster_id, graph_edge, tree_edge = rep.violation
    assert graph_edge == 2 and tree_edge == 0


def test_stretch_friendly_inside_edge_check():
    # triangle cluster: tree edges 0-1 (w=5), 1-2 (w=1); inside edge 0-2 w=2
    # has tree path 0-1-2 holding the weight-5 edge -> violation
    g = Graph(3, [(0, 1, 5), (1, 2, 1), (0, 2, 2)])
    cl = Clustering(g, [1, 1, 1])
    rep = verify_stretch_friendly(g, cl)
    assert not rep.ok and rep.violation[1] == 2


def test_stretch_friendly_edge_subset_restriction():
    g = Graph(3, [(0, 1, 5), (1, 2, 1), (0, 2, 2)])
    cl = Clustering(g, [1, 1, 1])
    assert verify_stretch_friendly(g, cl, edge_ids=[0, 1]).ok


def test_stretch_friendly_rejects_a_clustering_of_another_graph():
    # clusters {0, 1} and {2} of the path 0-1-2; the first graph has no
    # edge under the tree link 1 -> 0, the second has fewer nodes
    cl = Clustering(path_graph(3), [0, 0, 2])
    for other in (Graph(3, [(0, 2, 1), (1, 2, 1)]), Graph(2, [(0, 1, 1)])):
        with pytest.raises(InvalidClusteringError, match="built on another graph"):
            verify_stretch_friendly(other, cl)
    assert verify_stretch_friendly(path_graph(3), cl).ok  # an equal graph built separately


def test_measure_stretch_zero_weight_edges():
    g = Graph(3, [(0, 1, 0), (1, 2, 4), (0, 2, 4)])
    ratio, _ = measure_stretch(g, frozenset([0, 1]))
    assert ratio == Fraction(1)  # edge (0,2): d_H = 0 + 4 = 4 = w


# -- measure_stretch against a reference --------------------------------------


def reference_stretch(g: Graph, ids) -> tuple:
    """The all-pairs oracle: every edge of G checked against apsp of H."""
    if g.m == 0:
        return Fraction(1), None
    d = apsp(g, ids)
    worst, worst_edge = Fraction(0), None
    for e in g.edges:
        dh = d[e.u][e.v]
        if math.isinf(dh) or (e.w == 0 and dh > 0):
            return math.inf, e.id
        if e.w and Fraction(dh, e.w) > worst:
            worst, worst_edge = Fraction(dh, e.w), e.id
    return worst, worst_edge


def scaled(g: Graph, factor: int) -> Graph:
    return Graph(g.n, [(e.u, e.v, e.w * factor) for e in g.edges], weight_cap=2**60)


@st.composite
def graph_and_subgraph(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.integers(0, 6), min_size=len(chosen), max_size=len(chosen)))
    g = Graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])
    kind = draw(st.sampled_from(["random", "empty", "full"]))
    if kind == "empty":
        return g, frozenset()
    if kind == "full":
        return g, frozenset(range(g.m))
    keep = draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    return g, frozenset(eid for eid, k in enumerate(keep) if k)


@settings(deadline=None, max_examples=300)
@given(graph_and_subgraph())
def test_measure_stretch_matches_reference(case):
    g, ids = case
    expected = reference_stretch(g, ids)
    assert measure_stretch(g, ids) == expected
    assert measure_stretch(scaled(g, 2**50), ids) == expected


def test_measure_stretch_ratio_one_witness_is_first_in_id_order():
    # Edge 0 is kept with ratio 1; omitted edge 2 has d_H = 2 = w, ratio 1.
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
    assert measure_stretch(g, frozenset([0, 1])) == (Fraction(1), 0)
    # The omitted ratio-1 edge comes first.
    g = Graph(3, [(0, 2, 2), (0, 1, 1), (1, 2, 1)])
    assert measure_stretch(g, frozenset([1, 2])) == (Fraction(1), 0)


def test_measure_stretch_degenerate_weights():
    assert measure_stretch(Graph(4, []), frozenset()) == (Fraction(1), None)
    zeros = Graph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    assert measure_stretch(zeros, frozenset([0, 1])) == (Fraction(0), None)
    # zero-weight omitted edge whose endpoints are 1 apart in H
    g = Graph(3, [(0, 1, 1), (1, 2, 0), (0, 2, 0)])
    assert measure_stretch(g, frozenset([0, 1])) == (math.inf, 2)


def test_measure_stretch_many_sources():
    g = connected_gnp(600, 0.02, seed=1)
    ids = ldc_sparse_spanner(g, 8).ids
    matched: set[int] = set()
    for e in g.edges:
        if e.id not in ids and e.u not in matched and e.v not in matched:
            matched |= {e.u, e.v}
    assert len(matched) // 2 > 256  # any vertex cover of G - H spans several source chunks
    assert measure_stretch(g, ids) == reference_stretch(g, ids)
    # the same edges with node labels reversed, so other source chunks hold the witness
    rev = Graph(g.n, [(g.n - 1 - e.u, g.n - 1 - e.v) for e in g.edges], weighted=False)
    assert measure_stretch(rev, ids) == reference_stretch(rev, ids)


def test_measure_stretch_exact_beyond_float_range():
    g = Graph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (3, 4, 5), (0, 4, 7), (1, 3, 3)])
    ids = frozenset([0, 1, 2, 3])
    big = scaled(g, 2**50)
    assert not _exact_float_ok(big)  # takes the pure-Python sssp path
    assert measure_stretch(big, ids) == measure_stretch(g, ids) == (Fraction(11, 7), 4)


# -- the peeled oracle: hanging trees and the 2-core --------------------------


def check_against_reference(g: Graph, ids) -> tuple:
    """measure_stretch equals the all-pairs oracle, also on the integer path."""
    expected = reference_stretch(g, ids)
    assert measure_stretch(g, ids) == expected
    assert measure_stretch(scaled(g, 2**50), ids) == expected
    return expected


def test_peel_spanning_tree_has_an_empty_core():
    g = Graph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4), (0, 4, 5), (1, 3, 2), (0, 2, 1)])
    assert check_against_reference(g, frozenset([0, 1, 2, 3])) == (Fraction(5, 1), 6)


def test_peel_single_cycle_is_all_core():
    g = Graph(6, [(i, (i + 1) % 6, i + 1) for i in range(6)] + [(0, 3, 2), (1, 4, 7), (2, 5, 3)])
    assert check_against_reference(g, frozenset(range(6))) == (Fraction(3, 1), 6)


def test_peel_omitted_edge_inside_one_hanging_tree():
    # core triangle 0-1-2; tree 0-3-4 with leaves 5 and 6 under 4, so the
    # omitted edge {5, 6} has its lowest common ancestor 4 below node 0.
    g = Graph(7, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 2), (3, 4, 1), (4, 5, 3), (4, 6, 2), (5, 6, 1)])
    assert check_against_reference(g, frozenset(range(7))) == (Fraction(5, 1), 7)


def test_peel_omitted_edge_between_hanging_trees_of_one_core():
    # core square 0-1-2-3; tree 0-4-5 and tree 2-6: d_H(5, 6) = 3 + 1 + 2.
    g = Graph(7, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 4, 1), (4, 5, 2), (2, 6, 1), (5, 6, 2)])
    assert check_against_reference(g, frozenset(range(7))) == (Fraction(3, 1), 7)


def test_peel_zero_weight_hanging_tree():
    # core triangle 0-1-2; tree 0-3-4 of zero-weight edges, leaf 5 under 3.
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 0), (3, 4, 0), (3, 5, 2)]
    g = Graph(6, edges + [(4, 0, 0), (4, 1, 1), (5, 4, 1)])
    assert check_against_reference(g, frozenset(range(6))) == (Fraction(2, 1), 8)
    # a zero-weight omitted edge across a positive tree edge is stretched
    g = Graph(6, edges + [(4, 0, 0), (5, 0, 0)])
    assert check_against_reference(g, frozenset(range(6))) == (math.inf, 7)


def test_peel_tree_component_beside_a_cyclic_one():
    # component {0, 1, 2} keeps its cycle, component {3, 4, 5} is a path;
    # G joins them twice, after a finite edge, and the first joining edge in
    # id order is the witness.
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (3, 5, 9), (5, 1, 1), (2, 3, 1)])
    assert check_against_reference(g, frozenset(range(5))) == (math.inf, 6)


def test_peel_no_omitted_edge():
    g = Graph(6, [(0, 1, 0), (1, 2, 3), (2, 0, 1), (2, 3, 2), (3, 4, 0), (4, 5, 1)])
    assert check_against_reference(g, frozenset(range(g.m))) == (Fraction(1), 2)
    zeros = Graph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    assert check_against_reference(zeros, frozenset(range(3))) == (Fraction(0), None)


# -- degree-2 chains: Dijkstra runs between branch nodes only -----------------

# Branch nodes 0 and 1 (core degree >= 3) joined by three parallel chains,
# 0-2-3-1 (length 3), 0-4-1 (length 4) and 0-5-6-7-1 (length 8); the omitted
# edges come after the kept ones.
THETA = [(0, 2, 1), (2, 3, 1), (3, 1, 1), (0, 4, 2), (4, 1, 2), (0, 5, 1), (5, 6, 5), (6, 7, 1), (7, 1, 1)]


def kept_first(n: int, kept: list, omitted: list) -> tuple:
    return Graph(n, kept + omitted), frozenset(range(len(kept)))


def test_chain_between_two_branch_nodes():
    # d_H(2, 6) = 2 + 2 through port 1 of both chains
    g, ids = kept_first(8, THETA, [(2, 6, 1), (3, 4, 2), (4, 7, 1)])
    assert check_against_reference(g, ids) == (Fraction(4, 1), 9)


def test_both_ends_of_an_omitted_edge_on_one_chain():
    # around the chain: d_H(5, 7) = 1 + 3 + 1 < 6, its length along the chain
    g, ids = kept_first(8, THETA, [(5, 7, 1)])
    assert check_against_reference(g, ids) == (Fraction(5, 1), 9)
    # along the chain 0-2-3-5-1: d_H(2, 5) = 2, the way round through 0 and 1 is 21
    g, ids = kept_first(6, [(0, 4, 2), (4, 1, 2), (0, 1, 3), (0, 2, 9), (2, 3, 1), (3, 5, 1), (5, 1, 9)], [(2, 5, 1)])
    assert check_against_reference(g, ids) == (Fraction(2, 1), 7)


def test_loop_chain():
    # the loop 0-8-9-0 is no kernel edge: d_H(8, 4) = 1 + 2 and d_H(9, 7) = 2 + 4 leave it at 0
    g, ids = kept_first(10, THETA + [(0, 8, 1), (8, 9, 1), (9, 0, 4)], [(8, 4, 1), (9, 7, 2)])
    assert check_against_reference(g, ids) == (Fraction(3, 1), 12)


def test_parallel_chains_and_edge_between_one_branch_pair():
    # only the lightest of the four ways from 0 to 1 (length 3) is a kernel edge
    g, ids = kept_first(8, THETA + [(0, 1, 9)], [(5, 1, 1), (6, 4, 3)])
    assert check_against_reference(g, ids) == (Fraction(4, 1), 10)
    g, ids = kept_first(8, THETA + [(0, 1, 2)], [(5, 1, 1), (6, 4, 3)])  # the edge is lighter still
    assert check_against_reference(g, ids) == (Fraction(3, 1), 10)


def test_pure_cycle_beside_a_cyclic_component():
    # 10-11-12-13 is a cycle of degree-2 nodes: its least node 10 stands in for a branch node
    cycle = [(10, 11, 1), (11, 12, 2), (12, 13, 3), (13, 10, 4)]
    g, ids = kept_first(14, THETA + cycle, [(10, 12, 1), (11, 13, 1), (2, 7, 1)])
    assert check_against_reference(g, ids) == (Fraction(5, 1), 14)
    g, ids = kept_first(14, THETA + cycle, [(12, 10, 2), (6, 13, 1)])  # the two cyclic parts are apart
    assert check_against_reference(g, ids) == (math.inf, 14)


def test_zero_weight_chain_edges():
    zero = [(0, 2, 0), (2, 3, 0), (3, 1, 0), (0, 4, 2), (4, 1, 2), (0, 5, 0), (5, 6, 1), (6, 7, 0), (7, 1, 0)]
    # d_H(2, 1) = 0 = w, d_H(5, 7) = 0 round the chain through 0 and 1, d_H(4, 3) = 2 = w:
    # no omitted edge tops 1, so the first kept edge of ratio 1 is the witness
    g, ids = kept_first(8, zero, [(2, 1, 0), (5, 7, 1), (4, 3, 2)])
    assert check_against_reference(g, ids) == (Fraction(1, 1), 3)
    g, ids = kept_first(8, zero, [(2, 1, 0), (4, 3, 0)])  # 4 is 2 away from 3
    assert check_against_reference(g, ids) == (math.inf, 10)


def test_chained_core_on_the_exact_integer_path():
    g, ids = kept_first(14, THETA + [(0, 8, 1), (8, 9, 1), (9, 0, 4), (10, 11, 1), (11, 12, 2), (12, 13, 3),
                                     (13, 10, 4)], [(8, 4, 1), (5, 7, 1), (10, 12, 1), (2, 6, 3)])
    big = scaled(g, 2**50)
    assert not _exact_float_ok(big)  # check_against_reference measures `big` on the integer path
    assert check_against_reference(g, ids) == (Fraction(5, 1), 17)


@st.composite
def near_forest_and_graph(draw):
    """H is a random spanning forest plus at most 3 edges; G adds omitted edges."""
    n = draw(st.integers(1, 30))
    kept = []
    for x in range(1, n):
        p = draw(st.integers(-1, x - 1))  # -1: x roots a new tree
        if p >= 0:
            kept.append((p, x))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in kept]
    extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=3)) if rest else []
    rest = [pair for pair in rest if pair not in extra]
    omitted = draw(st.lists(st.sampled_from(rest), unique=True, max_size=12)) if rest else []
    kept += extra
    order = draw(st.permutations(kept + omitted))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(order), max_size=len(order)))
    g = Graph(n, [(u, v, w) for (u, v), w in zip(order, weights)])
    return g, frozenset(i for i, pair in enumerate(order) if pair in kept)


@settings(deadline=None, max_examples=200)
@given(near_forest_and_graph())
def test_measure_stretch_on_near_forests_matches_reference(case):
    check_against_reference(*case)


def test_kernel_dijkstra_runs_from_fewer_sources(monkeypatch):
    # Dijkstra on the 2-core starts from fewer nodes than a cover of the
    # omitted edges, the sources that Dijkstra over all of H would need.
    g = generate.gnp(512, 16 / 512, seed=1, weighted=True)
    ids = ultra_sparse_spanner(g, 8).ids
    expected = reference_stretch(g, ids)
    omitted = [(e.u, e.v) for e in g.edges if e.id not in ids]
    cover: list[int] = []
    verify._cover_distances(lambda chunk: (cover.extend(chunk), [[0] * g.n for _ in chunk])[1], omitted)
    sources: list[int] = []
    dijkstra = verify._sp_dijkstra

    def counting(mat, **kw):
        sources.extend(np.atleast_1d(kw["indices"]).tolist())
        return dijkstra(mat, **kw)

    monkeypatch.setattr(verify, "_sp_dijkstra", counting)
    assert measure_stretch(g, ids) == expected
    assert 0 < len(sources) < len(cover)


# -- pinned oracle outputs ----------------------------------------------------


def stretch_transcript() -> str:
    """(worst_ratio, worst_edge) of measure_stretch on a fixed set of spanners."""
    lines = []
    for weighted in (False, True):
        g = generate.gnp(256, 16 / 256, seed=7, weighted=weighted)
        # ldc needs unit weights: build it on the topology, measure it on g.
        hops = Graph(g.n, [(e.u, e.v) for e in g.edges], weighted=False)
        for name, h in (
            ("bs", spanner(g, 3, seed=1)),
            ("bs-det", deterministic_spanner(g, 3)),
            ("ultra", ultra_sparse_spanner(g, 8)),
            ("ldc", ldc_sparse_spanner(hops, 8)),
        ):
            lines.append(f"{name} weighted={weighted} {measure_stretch(g, h.ids)}")
    # Weighted inputs whose omitted edges top out below 1 (seed 3) and at
    # exactly 1 (seed 16), so kept edges decide the witness.
    for seed in (3, 16):
        g = generate.gnp(256, 16 / 256, seed=seed, weighted=True)
        lines.append(f"bs seed={seed} {measure_stretch(g, spanner(g, 3, seed=seed).ids)}")
    return "\n".join(lines)


STRETCH_DIGEST = "271c7bc483e2616c3853a9e4696ea49c6e841efa8eb35ff17a273e83e8a107e3"


def test_measure_stretch_outputs_pinned():
    assert hashlib.sha256(stretch_transcript().encode()).hexdigest() == STRETCH_DIGEST
