from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import certificates
from sparsekit.certificates import (
    certificate_large_k,
    certificate_small_k,
    cut_matrix,
    edge_connectivity,
    karger_parts,
    verify_certificate,
)
from sparsekit.errors import ParameterError
from sparsekit.generate import k_connected_random
from sparsekit.graph import EdgeSet, Graph

from conftest import complete_graph, connected_gnp, cycle_graph, gnp_graph


def test_edge_connectivity_basics():
    assert edge_connectivity(cycle_graph(6)) == 2
    assert edge_connectivity(complete_graph(5)) == 4
    disconnected = Graph(4, [(0, 1, 1)], weighted=False)
    assert edge_connectivity(disconnected) == 0
    assert edge_connectivity(cycle_graph(6), edge_ids=[0, 1, 2, 3, 4]) == 1
    assert edge_connectivity(Graph(0, [])) == edge_connectivity(Graph(1, [])) == math.inf


def test_small_k1_keeps_connectivity():
    g = connected_gnp(14, 0.3, seed=3)
    cert = certificate_small_k(g, 1)
    rep = verify_certificate(g, cert, 1)
    assert rep.ok and rep.mode == "cuts"


def test_small_k2_cycle_keeps_all_edges():
    g = cycle_graph(8)
    cert = certificate_small_k(g, 2)
    assert cert.ids == frozenset(range(8))  # every cut has exactly 2 edges
    assert verify_certificate(g, cert, 2).ok


def test_small_k2_complete6_all_cuts():
    g = complete_graph(6)
    cert = certificate_small_k(g, 2)
    rep = verify_certificate(g, cert, 2)
    assert rep.ok and rep.detail["cuts_checked"] == 2**5 - 1
    assert edge_connectivity(g, cert.ids) >= 2


def test_small_k_size_cap():
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
        g = connected_gnp(60, 0.3, seed=8)
        for k in (1, 2, 4):
            cert = certificate_small_k(g, k, eps=eps)
            assert len(cert) <= g.n * k * (1 + eps)


def test_skeleton_packing_property():
    # for every cut and layer i: H_i crosses it, or every cut edge lies in
    # the earlier layers' union
    g = connected_gnp(12, 0.35, seed=5)
    cert = certificate_small_k(g, 3)
    layers = cert.report
    cross = cut_matrix(g, range(g.m))
    import numpy as np

    for i in range(len(layers)):
        in_layer = np.fromiter((e in layers[i] for e in range(g.m)), bool, g.m)
        earlier = set().union(*layers[:i]) if i else set()
        in_earlier = np.fromiter((e in earlier for e in range(g.m)), bool, g.m)
        hits = cross[:, in_layer].sum(axis=1) > 0
        cut_sizes = cross.sum(axis=1)
        covered = cross[:, in_earlier].sum(axis=1) == cut_sizes
        assert bool(np.all(hits | covered | (cut_sizes == 0)))


def test_verify_certificate_full_graph_passes():
    g = gnp_graph(10, 0.5, seed=6)
    assert verify_certificate(g, EdgeSet(g, frozenset(range(g.m))), 3).ok


def test_verify_certificate_catches_missing_cycle_edge():
    g = cycle_graph(8)
    cert = EdgeSet(g, frozenset(range(7)))  # drop the closing edge
    rep = verify_certificate(g, cert, 2)
    assert not rep.ok and rep.detail["cut_size"] == 2 and rep.detail["kept"] == 1


def test_verify_monotone_in_k():
    g = connected_gnp(12, 0.4, seed=9)
    cert = certificate_small_k(g, 3)
    for k in (3, 2, 1):
        assert verify_certificate(g, cert, k).ok


def test_large_k_q1_reduces_to_small_k():
    g = connected_gnp(30, 0.3, seed=11)
    eps = Fraction(2, 5)
    e = eps / 8
    cert = certificate_large_k(g, 3, eps=eps, seed=4)
    detail = cert.report
    assert detail["q"] == 1
    kp = math.ceil(3 * (1 + e) / (1 - e))
    assert cert.ids == certificate_small_k(g, kp, eps=e).ids


def test_large_k_forced_split_two_case_cuts():
    # tiny c_k forces Q >= 2 on a 14-node instance; exhaustive enumeration
    # then certifies the two-case cut analysis outcome: >= min(|cut|, k)
    g = k_connected_random(14, 4, seed=2)
    cert = certificate_large_k(g, 4, eps=Fraction(2, 5), seed=7, c_k=0.001)
    detail = cert.report
    assert detail["q"] >= 2
    assert verify_certificate(g, cert, 4).ok
    assert len(cert) <= g.n * 4 * (1 + Fraction(2, 5))
    # the split partitions the edge set
    parts = detail["parts"]
    assert sorted(e for part in parts for e in part) == list(range(g.m))
    assert karger_parts(g, detail["q"], 7) == parts


def test_large_k_random_k_connected_mode_b():
    g = k_connected_random(60, 6, seed=5)
    lam = edge_connectivity(g)
    assert lam >= 6
    for seed in (0, 1):
        cert = certificate_large_k(g, 6, eps=Fraction(2, 5), seed=seed)
        assert edge_connectivity(g, cert.ids) >= min(lam, 6)


def test_parameter_validation():
    g = cycle_graph(5)
    with pytest.raises(ParameterError):
        certificate_large_k(g, 2, eps=Fraction(3, 5))
    with pytest.raises(ParameterError):
        certificate_small_k(g, 0)
    with pytest.raises(ParameterError):
        verify_certificate(g, EdgeSet(g, frozenset()), 0)


def test_custom_skeleton_is_respected():
    g = cycle_graph(6)
    spanning = frozenset(range(5))
    calls = []

    def skel(sub):
        calls.append(sub.m)
        ids = set()
        # simple spanning forest by union-find
        parent = list(range(sub.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in sub.edges:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[ru] = rv
                ids.add(e.id)
        return EdgeSet(sub, frozenset(ids))

    cert = certificate_small_k(g, 2, skeleton=skel)
    assert calls and verify_certificate(g, cert, 2).ok


@pytest.mark.parametrize("n", [0, 1])
def test_verify_certificate_without_cuts_is_vacuous(n):
    g = Graph(n, [], weighted=False)
    assert cut_matrix(g, []).shape == (0, 0)
    cert = certificate_small_k(g, 2)
    rep = verify_certificate(g, cert, 2)
    assert rep.ok and rep.mode == "cuts" and rep.detail == {"cuts_checked": 0}


def _k10_with_path_tail():
    """K_10 on nodes 0..9 plus the path 9-10-...-21, and the spanning tree
    made of the star at node 0 and the path."""
    g = Graph(22, [(u, v) for u in range(10) for v in range(u + 1, 10)] + [(i, i + 1) for i in range(9, 21)],
              weighted=False)
    tree = frozenset(g.edge_between(0, v) for v in range(1, 10)) | frozenset(range(45, 57))
    return g, EdgeSet(g, tree)


def test_gomory_hu_branch_catches_k10_path_tail():
    # lambda(H) = lambda(G) = 1, so comparing global min cuts accepts H,
    # yet every omitted K_10 edge has lambda_H(u, v) = 1 < 3.
    g, cert = _k10_with_path_tail()
    rep = verify_certificate(g, cert, 3)
    assert not rep.ok and rep.mode == "mincut"
    assert rep.detail == {"lambda_g": 1, "lambda_h": 1, "edge": 9, "lambda_uv": 1, "cut_size": 9}
    assert g.edges[9][1:3] == (1, 2)  # the first omitted edge; its minimum cut isolates node 1
    parent, flow = certificates._gomory_hu(certificates._unit_capacity(g, sorted(cert.ids)))
    assert sorted(flow[1:]) == [1] * 21


def test_verify_certificate_checks_the_cut_around_node_0():
    # The only cut that loses edges is {0} | V - {0}, the cut with every mask bit set.
    triangle = complete_graph(3)
    rep = verify_certificate(triangle, EdgeSet(triangle, frozenset({triangle.edge_between(1, 2)})), 1)
    assert not rep.ok and rep.detail == {"cut_mask": 3, "cut_size": 2, "kept": 0}
    edge = Graph(2, [(0, 1)], weighted=False)
    assert not verify_certificate(edge, EdgeSet(edge, frozenset()), 1).ok
    assert cut_matrix(edge, [0]).tolist() == [[True]]


@st.composite
def graph_and_subgraph(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))), weighted=False)
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        ids = certificate_small_k(g, k).ids
    else:
        ids = frozenset(e for e in range(g.m) if draw(st.booleans()))
    return g, EdgeSet(g, ids), k


def _local_connectivity(h: nx.Graph, u: int, v: int) -> int:
    return nx.edge_connectivity(h, u, v) if nx.has_path(h, u, v) else 0


@settings(deadline=None, max_examples=120)
@given(graph_and_subgraph())
def test_gomory_hu_branch_agrees_with_cut_enumeration(case):
    g, cert, k = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "CUT_ENUM_LIMIT", 1)
        rep = verify_certificate(g, cert, k)
    exhaustive = verify_certificate(g, cert, k)
    assert rep.mode == "mincut" and exhaustive.mode == "cuts"
    assert rep.ok == exhaustive.ok
    h = g.to_networkx(cert.ids)
    weak = [e for e in range(g.m) if e not in cert.ids and _local_connectivity(h, *g.edges[e][1:3]) < k]
    assert rep.ok == (not weak)
    assert rep.detail["lambda_g"] == edge_connectivity(g)
    assert rep.detail["lambda_h"] == edge_connectivity(g, cert.ids)
    if weak:
        e = g.edges[weak[0]]
        assert rep.detail["edge"] == e.id
        assert rep.detail["lambda_uv"] == _local_connectivity(h, e.u, e.v)
        assert rep.detail["lambda_uv"] < rep.detail["cut_size"]  # the omitted edge crosses the cut too


@settings(deadline=None, max_examples=80)
@given(graph_and_subgraph())
def test_gomory_hu_tree_cuts_and_path_minima(case):
    g, cert, _ = case
    parent, flow = certificates._gomory_hu(certificates._unit_capacity(g, sorted(cert.ids)))
    h = g.to_networkx(cert.ids)
    tree = nx.Graph((s, int(parent[s]), {"w": int(flow[s])}) for s in range(1, g.n))
    assert nx.is_tree(tree) and tree.number_of_nodes() == g.n
    for s in range(1, g.n):  # the subtree below s is a minimum cut of weight flow[s]
        below = tree.copy()
        below.remove_edge(s, int(parent[s]))
        assert nx.cut_size(h, nx.node_connected_component(below, s)) == flow[s]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            path = nx.shortest_path(tree, u, v)
            assert min(tree[a][b]["w"] for a, b in zip(path, path[1:])) == _local_connectivity(h, u, v)


@settings(deadline=None, max_examples=150)
@given(graph_and_subgraph(max_n=14))
def test_edge_connectivity_matches_stoer_wagner(case):
    g, _, _ = case
    nxg = g.to_networkx()
    expected = nx.stoer_wagner(nxg)[0] if nx.is_connected(nxg) else 0
    assert edge_connectivity(g) == expected


def test_import_does_not_load_networkx():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, sparsekit; sys.exit('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
