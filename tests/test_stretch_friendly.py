from __future__ import annotations

import hashlib
import random
from itertools import islice

import pytest

from sparsekit.clustering import Clustering
from sparsekit.errors import ParameterError
from sparsekit.graph import Graph
from sparsekit.stretch_friendly import (
    color3,
    match_small,
    merge_step,
    orient,
    partition,
    partitions,
)
from sparsekit.verify import verify_stretch_friendly

from conftest import connected_gnp, cycle_graph, gnp_graph, grid_graph, path_graph


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


def test_color3_rejects_out_neighbor_that_is_not_a_node():
    with pytest.raises(ParameterError):
        color3({0: 5})


# -- matching and merging ----------------------------------------------------


def stepped(g: Graph, t: int) -> Clustering:
    """Step merge_step through partition(g, t)'s rounds, checking after
    each round that the new clustering is stretch-friendly."""
    clustering = Clustering.singletons(g)
    for level in range(1, max(t - 1, 0).bit_length() + 1):
        clustering = merge_step(g, clustering, level)
        rep = verify_stretch_friendly(g, clustering)
        assert rep.ok, f"round {level}: {rep}"
    return clustering


def test_match_small_mutual_pair():
    g = Graph(2, [(0, 1, 1)])
    out = orient(g, Clustering.singletons(g).label, 2)
    winners = match_small(out, [True, True], [0, 1])
    assert len(winners) == 1 and {c for p in winners.items() for c in p} == {0, 1}


def test_match_small_skips_large_targets():
    # cluster 1 is large (size 2 >= 2^1); the small cluster 0 points at it
    # and stays unmatched, to be absorbed in the merge step.
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    clustering = Clustering(g, [0, 1, 1])
    small = [len(c.members) < 2 for c in clustering.clusters]
    assert small == [True, False]
    assert match_small(orient(g, clustering.label, 2), small, [0, 1]) == {}
    merged = merge_step(g, clustering, level=1)
    assert len(merged.clusters) == 1 and merged.clusters[0].root == 1
    assert sorted(merged.clusters[0].members) == [0, 1, 2] and merged.parent == (1, 1, 1)


def test_match_small_directed_path_maximal():
    # 4 small clusters in an orientation path 0->1->2->3: the matching must
    # be maximal (no oriented edge joins two unmatched smalls).
    g = Graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    out = orient(g, Clustering.singletons(g).label, 4)
    # orientations by minimum boundary edge: 0->1, 1->0, 2->1, 3->2
    assert out == [(0, 1), (0, 0), (1, 1), (2, 2)]
    small = [True] * 4
    winners = match_small(out, small, [0, 1, 2, 3])
    assert winners  # at least one pair
    matched = set(winners) | set(winners.values())
    for c in range(4):
        if c in matched or out[c] is None:
            continue
        _, tgt = out[c]
        assert not (small[tgt] and tgt not in matched)


def test_merge_two_singletons_rooted_at_head():
    g = Graph(2, [(0, 1, 1)])
    clustering = Clustering.singletons(g)
    winners = match_small(orient(g, clustering.label, 2), [True, True], [0, 1])
    merged = merge_step(g, clustering, 1)
    assert len(merged.clusters) == 1
    ((winner, tgt),) = winners.items()
    assert merged.clusters[0].root == clustering.clusters[tgt].root
    assert sorted(merged.clusters[0].members) == [0, 1]


def test_merge_step_reroots_the_attached_piece():
    # the small piece {0, 1, 2} rooted at 0 attaches to the large cluster
    # {3, .., 6} through edge (2, 3): it is rerooted at 2 and hangs below
    # 3, and the input clustering is untouched.
    g = Graph(7, [(0, 1, 5), (1, 2, 5), (2, 3, 1), (3, 4, 5), (4, 5, 5), (5, 6, 5)])
    clustering = Clustering(g, [0, 0, 1, 3, 3, 4, 5])
    merged = merge_step(g, clustering, level=2)
    assert [(c.root, c.members, c.radius) for c in merged.clusters] == [(3, frozenset(range(7)), 3)]
    assert merged.parent == (1, 2, 3, 3, 3, 4, 5)
    assert clustering.parent == (0, 0, 1, 3, 3, 4, 5) and clustering.clusters[0].members == {0, 1, 2}


def test_stepping_merge_step_reproduces_partition():
    graphs = [
        path_graph(13),
        grid_graph(5, 7),
        gnp_graph(60, 0.03, seed=4, weighted=True, max_weight=5),
        connected_gnp(50, 0.1, seed=8, weighted=True, max_weight=30),
    ]
    for g in graphs:
        for t in (1, 2, 3, 4, 8, 16):
            assert stepped(g, t).clusters == partition(g, t).clusters


# -- the partition driver -----------------------------------------------------


def test_partition_t1_is_trivial():
    g = gnp_graph(8, 0.4, seed=1, weighted=True)
    cl = partition(g, 1)
    assert len(cl.clusters) == 8 and cl.max_radius() == 0


def test_partition_path8_t4():
    stepped(path_graph(8), 4)
    cl = partition(path_graph(8), 4)
    rep = cl.report
    assert len(cl.clusters) <= 2
    assert all(s >= 4 for s in rep.cluster_sizes)
    assert rep.max_radius <= 11


def test_partition_weighted_cycle_avoids_heavy_edge():
    edges = [(i, (i + 1) % 16, 1) for i in range(15)] + [(15, 0, 100)]
    g = Graph(16, edges)
    stepped(g, 4)
    cl = partition(g, 4)
    rep = cl.report
    assert verify_stretch_friendly(g, cl).ok
    tree_edges = cl.all_tree_edges()
    assert 15 not in tree_edges  # the heavy closing edge is never forced


def test_partition_invariants_random_weighted(rng):
    for trial in range(12):
        n = rng.randint(10, 64)
        g = connected_gnp(n, 4.0 / n, seed=1000 + trial, weighted=True, max_weight=40)
        for t in (2, 4, 8):
            stepped(g, t)
            cl = partition(g, t)
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
        stepped(g, 8)
        cl = partition(g, 8)
        rep = cl.report
        assert verify_stretch_friendly(g, cl).ok
        assert len(cl.clusters) <= 40 / 8


def test_partition_outputs_pinned():
    # sha256 over every partition output -- (root, parent pointers,
    # radius) per cluster plus the report -- on weighted, unweighted and
    # disconnected graphs, recorded before the rounds moved onto one
    # parent forest.
    graphs = [
        path_graph(17),
        cycle_graph(24, weights=[1 + (i * 7) % 5 for i in range(24)]),
        grid_graph(6, 9),
        Graph(9, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (7, 8, 1)]),
    ]
    for seed in range(4):
        graphs.append(connected_gnp(60, 0.08, seed=10 + seed, weighted=True, max_weight=30))
        graphs.append(connected_gnp(50, 0.1, seed=20 + seed))
        graphs.append(gnp_graph(80, 0.02, seed=30 + seed, weighted=seed % 2 == 0, max_weight=9))
    h = hashlib.sha256()
    for g in graphs:
        for t in (1, 2, 3, 4, 8, 16):
            cl = partition(g, t)
            trees = [(c.root, [(v, cl.parent[v]) for v in sorted(c.members)], c.radius) for c in cl.clusters]
            h.update(repr((trees, cl.report)).encode())
    assert h.hexdigest() == "e273b01c37bf2c5f9ae1a074632233b97715976f06af9c3fd08e453dea633b44"


def pinned_graphs() -> list[Graph]:
    """The graph list of test_partition_outputs_pinned, which keeps its own copy as recorded."""
    graphs = [
        path_graph(17),
        cycle_graph(24, weights=[1 + (i * 7) % 5 for i in range(24)]),
        grid_graph(6, 9),
        Graph(9, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (7, 8, 1)]),
    ]
    for seed in range(4):
        graphs.append(connected_gnp(60, 0.08, seed=10 + seed, weighted=True, max_weight=30))
        graphs.append(connected_gnp(50, 0.1, seed=20 + seed))
        graphs.append(gnp_graph(80, 0.02, seed=30 + seed, weighted=seed % 2 == 0, max_weight=9))
    return graphs


def test_partitions_resume_equals_partition_from_singletons():
    def summary(cl):
        return cl.parent, cl.clusters, cl.report

    for g in pinned_graphs():
        for t in (1, 2, 3, 5):
            resumed = [summary(cl) for cl in islice(partitions(g, t), 4)]
            assert resumed == [summary(partition(g, t << i)) for i in range(4)]
