from __future__ import annotations

import random

import pytest

from sparsekit.errors import ParameterError
from sparsekit.graph import Graph
from sparsekit.stretch_friendly import (
    TreeCluster,
    build_oriented_view,
    color3,
    match_small,
    merge_step,
    partition,
)
from sparsekit.verify import verify_stretch_friendly

from conftest import connected_gnp, gnp_graph, path_graph


# -- color3 -----------------------------------------------------------------


def test_color3_directed_cycle():
    out = {i: (i + 1) % 5 for i in range(5)}
    colors = color3(out)
    assert set(colors.values()) <= {0, 1, 2}
    for v, t in out.items():
        assert colors[v] != colors[t]


def test_color3_single_node():
    assert color3({0: None}) == {0: 0}


def test_color3_star_into_sink():
    out = {0: None, 1: 0, 2: 0, 3: 0, 4: 0}
    colors = color3(out)
    assert all(colors[v] != colors[0] for v in (1, 2, 3, 4))


def test_color3_mutual_pairs_and_big_ids():
    out = {10: 77, 77: 10, 300: 77, 5: 300}
    colors = color3(out)
    for v, t in out.items():
        assert colors[v] != colors[t]
    assert set(colors.values()) <= {0, 1, 2}


def test_color3_random_functional_graphs(rng):
    for _ in range(25):
        n = rng.randint(2, 40)
        nodes = list(range(n))
        out = {}
        for v in nodes:
            choices = [u for u in nodes if u != v]
            out[v] = rng.choice(choices) if rng.random() < 0.9 else None
        colors = color3(out)
        for v, t in out.items():
            if t is not None:
                assert colors[v] != colors[t]


def test_color3_rejects_duplicate_ids():
    with pytest.raises(ParameterError):
        color3({0: 1, 1: 0}, ids={0: 5, 1: 5})


# -- matching and merging ----------------------------------------------------


def singleton_clusters(g: Graph) -> list[TreeCluster]:
    return [TreeCluster(v, {v}, {v: v}) for v in range(g.n)]


def test_match_small_mutual_pair():
    g = Graph(2, [(0, 1, 1)])
    clusters = singleton_clusters(g)
    view = build_oriented_view(g, clusters, level=1)
    pairs = match_small(view, clusters)
    assert len(pairs) == 1 and {c for p in pairs for c in p} == {0, 1}


def test_match_small_skips_large_targets():
    # cluster 1 is large (size 2 >= 2^1); the small cluster 0 points at it
    # and stays unmatched, to be absorbed in the merge step.
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    clusters = [TreeCluster(0, {0}, {0: 0}), TreeCluster(1, {1, 2}, {1: 1, 2: 1})]
    view = build_oriented_view(g, clusters, level=1)
    assert view.small == [True, False]
    pairs = match_small(view, clusters)
    assert pairs == set()
    merged = merge_step(g, clusters, view, pairs)
    assert len(merged) == 1 and merged[0].root == 1 and merged[0].members == {0, 1, 2}


def test_match_small_directed_path_maximal():
    # 4 small clusters in an orientation path 0->1->2->3: the matching must
    # be maximal (no oriented edge joins two unmatched smalls).
    g = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    clusters = singleton_clusters(g)
    view = build_oriented_view(g, clusters, level=1)
    # orientations by minimum boundary edge: 0->1, 1->0, 2->1, 3->2
    pairs = match_small(view, clusters)
    assert pairs  # at least one pair
    matched = {c for p in pairs for c in p}
    for c in range(4):
        if c in matched or view.out[c] is None:
            continue
        _, tgt = view.out[c]
        assert not (view.small[tgt] and tgt not in matched)


def test_merge_two_singletons_rooted_at_head():
    g = Graph(2, [(0, 1, 1)])
    clusters = singleton_clusters(g)
    view = build_oriented_view(g, clusters, level=1)
    pairs = match_small(view, clusters)
    merged = merge_step(g, clusters, view, pairs)
    assert len(merged) == 1
    (winner, tgt) = next(iter(pairs))
    assert merged[0].root == clusters[tgt].root
    assert merged[0].members == {0, 1}


# -- the partition driver -----------------------------------------------------


def test_partition_t1_is_trivial():
    g = gnp_graph(8, 0.4, seed=1, weighted=True)
    cl = partition(g, 1)
    assert len(cl.clusters) == 8 and cl.max_radius() == 0


def test_partition_path8_t4():
    cl = partition(path_graph(8), 4, verify_each_round=True)
    rep = cl.report
    assert len(cl.clusters) <= 2
    assert all(s >= 4 for s in rep.cluster_sizes)
    assert rep.max_radius <= 11


def test_partition_weighted_cycle_avoids_heavy_edge():
    edges = [(i, (i + 1) % 16, 1) for i in range(15)] + [(15, 0, 100)]
    g = Graph(16, edges)
    cl = partition(g, 4, verify_each_round=True)
    rep = cl.report
    assert verify_stretch_friendly(g, cl).ok
    tree_edges = cl.all_tree_edges()
    assert 15 not in tree_edges  # the heavy closing edge is never forced


def test_partition_invariants_random_weighted(rng):
    for trial in range(12):
        n = rng.randint(10, 64)
        g = connected_gnp(n, 4.0 / n, seed=1000 + trial, weighted=True, max_weight=40)
        for t in (2, 4, 8):
            cl = partition(g, t, verify_each_round=True)
            rep = cl.report
            assert verify_stretch_friendly(g, cl).ok
            rounds = max(t - 1, 0).bit_length()
            assert all(s >= min(1 << rounds, n) for s in rep.cluster_sizes) or n < t
            assert rep.max_radius < 3 * (1 << rounds)
            if n >= t:
                assert len(cl.clusters) <= n / t


def test_partition_disconnected_flags_small_components():
    g = Graph(9, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (7, 8, 1)])
    cl = partition(g, 4)
    rep = cl.report
    assert cl.is_partition(g)
    comps = {tuple(c) for c in rep.undersized_components}
    assert (6,) in comps and (7, 8) in comps


def test_partition_rejects_bad_t():
    with pytest.raises(ParameterError):
        partition(path_graph(4), 0)


def test_partition_unweighted_random(rng):
    for trial in range(6):
        g = connected_gnp(40, 0.12, seed=300 + trial)
        cl = partition(g, 8, verify_each_round=True)
        rep = cl.report
        assert verify_stretch_friendly(g, cl).ok
        assert len(cl.clusters) <= 40 / 8
