from __future__ import annotations

import math
from fractions import Fraction

import pytest

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
    cert, layers = certificate_small_k(g, 3, with_layers=True)
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
    cert, detail = certificate_large_k(g, 3, eps=eps, seed=4, with_detail=True)
    assert detail["q"] == 1
    kp = math.ceil(3 * (1 + e) / (1 - e))
    assert cert.ids == certificate_small_k(g, kp, eps=e).ids


def test_large_k_forced_split_two_case_cuts():
    # tiny c_k forces Q >= 2 on a 14-node instance; exhaustive enumeration
    # then certifies the two-case cut analysis outcome: >= min(|cut|, k)
    g = k_connected_random(14, 4, seed=2)
    cert, detail = certificate_large_k(g, 4, eps=Fraction(2, 5), seed=7, c_k=0.001, with_detail=True)
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
