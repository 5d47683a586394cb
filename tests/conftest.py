"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from sparsekit.graph import Graph

# Subprocesses find sparsekit the way pytest's `pythonpath` setting does.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))


def gnp_graph(n: int, p: float, seed: int = 0, *, weighted: bool = False, max_weight: int = 50) -> Graph:
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randint(1, max_weight) if weighted else 1))
    return Graph(n, edges, weighted=weighted)


def to_networkx(g: Graph, edge_ids=None):
    """`g`, or its subgraph on `edge_ids`, as a networkx graph with `weight` and `id` edge attributes."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from((g.edges[i].u, g.edges[i].v, {"weight": g.edges[i].w, "id": i})
                       for i in (range(g.m) if edge_ids is None else edge_ids))
    return out


def connected_gnp(n: int, p: float, seed: int = 0, *, weighted: bool = False, max_weight: int = 50) -> Graph:
    """First connected G(n, p) at or after the given seed."""
    for s in range(seed, seed + 200):
        g = gnp_graph(n, p, s, weighted=weighted, max_weight=max_weight)
        if g.is_connected():
            return g
    raise AssertionError(f"no connected G({n}, {p}) found near seed {seed}")


def path_graph(n: int, weights=None) -> Graph:
    ws = weights if weights is not None else [1] * (n - 1)
    return Graph(n, [(i, i + 1, ws[i]) for i in range(n - 1)], weighted=weights is not None)


def cycle_graph(n: int, weights=None) -> Graph:
    ws = weights if weights is not None else [1] * n
    return Graph(n, [(i, (i + 1) % n, ws[i]) for i in range(n)], weighted=weights is not None)


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return Graph(rows * cols, edges, weighted=False)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)], weighted=False)


@pytest.fixture
def rng():
    return random.Random(12345)
