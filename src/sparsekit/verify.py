"""Exact verification oracles: shortest paths, stretch, weight-domination.

Stretch checking is edge-wise: it suffices to verify
``d_H(u, v) <= alpha * w(u, v)`` for every *edge* {u, v} of G, because
per-edge bounds compose along shortest paths — for any pair (s, t), sum
the bound over the edges of a G-shortest s-t path to get
``d_H(s, t) <= alpha * d_G(s, t)``.  The reported worst ratio is the
exact maximum of d_H(u, v) / w(u, v) over edges.

Only the edges of G - H are measured by full Dijkstra runs, from a
vertex cover of them: a kept edge has d_H(u, v) <= w, so its ratio is
at most 1 and cannot beat an omitted edge above 1.  Kept edges need a
look only when the omitted ones top out at 1 or below, and then the
answer is 1 at the first edge of ratio exactly 1, if there is one.  If
some kept edge has d_H > 0, a lightest such edge f has ratio 1: each
positive edge g on its shortest H-path has d_H(g) > 0, or the path
could be shortened, so w(f) <= w(g) <= d_H(f).  Otherwise every kept
edge has ratio 0 (or 0/0), and the omitted edges decide alone.

All distances are exact.  The scipy fast path computes Dijkstra in
float64, which is exact for integer path weights below 2**53; inputs
beyond that fall back to a pure-Python integer Dijkstra.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .clustering import Clustering
from .errors import ParameterError
from .graph import Edge, EdgeSet, Graph

INF = math.inf


def _exact_float_ok(graph: Graph) -> bool:
    # Longest possible path weight must stay below 2**53 for float64 sums
    # of integers to be exact.
    return graph.n * max(graph.max_weight(), 1) < 2**53


def _adjacency_matrix(graph: Graph, edge_ids: Iterable[int] | None):
    ids = range(graph.m) if edge_ids is None else edge_ids
    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    for eid in ids:
        e = graph.edges[eid]
        rows += (e.u, e.v)
        cols += (e.v, e.u)
        data += (e.w, e.w)
    return csr_matrix((data, (rows, cols)), shape=(graph.n, graph.n))


def sssp(graph: Graph, source: int, edge_ids: Iterable[int] | None = None) -> list[int | float]:
    """Single-source shortest path weights; math.inf for unreachable nodes."""
    allowed = None if edge_ids is None else set(edge_ids)
    dist: list[int | float] = [INF] * graph.n
    dist[source] = 0
    pq: list[tuple[int, int]] = [(0, source)]
    while pq:
        d, x = heapq.heappop(pq)
        if d > dist[x]:
            continue
        for eid in graph.adj[x]:
            if allowed is not None and eid not in allowed:
                continue
            e = graph.edges[eid]
            y = e.other(x)
            nd = d + e.w
            if nd < dist[y]:
                dist[y] = nd
                heapq.heappush(pq, (nd, y))
    return dist


def apsp(graph: Graph, edge_ids: Iterable[int] | None = None) -> list[list[int | float]]:
    """Exact all-pairs shortest path weights (inf where disconnected)."""
    if graph.n == 0:
        return []
    if _exact_float_ok(graph):
        mat = _adjacency_matrix(graph, edge_ids)
        d = _sp_dijkstra(mat, directed=False)
        out: list[list[int | float]] = []
        for row in d:
            out.append([INF if math.isinf(x) else int(x) for x in row])
        return out
    return [sssp(graph, s, edge_ids) for s in range(graph.n)]


@dataclass(frozen=True)
class StretchReport:
    ok: bool
    alpha: Fraction | None
    worst_edge: int | None
    worst_ratio: Fraction | float  # math.inf when the spanner disconnects G

    def __str__(self) -> str:  # pragma: no cover - human output
        tgt = "" if self.alpha is None else f" (target {self.alpha})"
        return f"stretch ok={self.ok} worst_ratio={self.worst_ratio}{tgt} worst_edge={self.worst_edge}"


def _cover_distances(graph: Graph, ids: frozenset[int], mat, edges: Sequence[Edge]) -> list[int | float]:
    """d_H(u, v) for each edge, by Dijkstra from a greedy vertex cover of the
    edges, 256 sources at a time, so memory stays at 256 * n floats."""
    deg = Counter(x for e in edges for x in (e.u, e.v))
    by_source: dict[int, list[int]] = {}  # its keys are the cover
    for i, e in enumerate(edges):
        if e.u in by_source or e.v in by_source:
            s = e.u if e.u in by_source else e.v
        else:
            s = e.u if deg[e.u] >= deg[e.v] else e.v
        by_source.setdefault(s, []).append(i)
    sources = sorted(by_source)
    out: list[int | float] = [0] * len(edges)
    for lo in range(0, len(sources), 256):
        chunk = sources[lo : lo + 256]
        if mat is not None:
            rows = _sp_dijkstra(mat, directed=False, indices=chunk)
        else:
            rows = [sssp(graph, s, ids) for s in chunk]
        for s, row in zip(chunk, rows):
            for i in by_source[s]:
                e = edges[i]
                out[i] = row[e.v if e.u == s else e.u]
    return out


def measure_stretch(graph: Graph, sub_edges: Iterable[int]) -> tuple[Fraction | float, int | None]:
    """Exact worst edge-stretch of the subgraph, with a witnessing edge id."""
    ids = frozenset(sub_edges)
    if graph.m == 0:
        return Fraction(1), None
    mat = _adjacency_matrix(graph, ids) if _exact_float_ok(graph) else None
    omitted = [e for e in graph.edges if e.id not in ids]
    num, den, worst_edge = 0, 1, None
    for e, dh in zip(omitted, _cover_distances(graph, ids, mat, omitted)):
        if math.isinf(dh) or (e.w == 0 and dh > 0):
            return INF, e.id  # disconnected, or a zero-weight edge stretched
        dh = int(dh)
        if e.w and dh * den > num * e.w:  # 0/0 (zero-weight edge kept by zeros) is fine
            num, den, worst_edge = dh, e.w, e.id
    if num > den:
        return Fraction(num, den), worst_edge
    # The answer is 1 at the first edge of ratio exactly 1, if there is one;
    # d_H <= w makes the capped Dijkstra of a kept edge exact.
    stop = worst_edge if num == den else graph.m
    for eid in sorted(i for i in ids if i < stop):
        e = graph.edges[eid]
        if e.w == 0:
            continue
        if mat is not None:
            dh = _sp_dijkstra(mat, directed=False, indices=e.u, limit=e.w)[e.v]
        else:
            dh = sssp(graph, e.u, ids)[e.v]
        if dh == e.w:
            return Fraction(1), eid
    return Fraction(num, den), worst_edge


def verify_stretch(graph: Graph, spanner: EdgeSet, alpha) -> StretchReport:
    """Check that `spanner` is an alpha-spanner of `graph` (edge-wise, exact)."""
    other = spanner.graph
    if other is not graph and (other.n, other.edges) != (graph.n, graph.edges):
        raise ParameterError("spanner is not over the given graph")
    alpha = Fraction(alpha)
    ratio, worst_edge = measure_stretch(graph, spanner.ids)
    ok = not math.isinf(ratio) and ratio <= alpha
    return StretchReport(ok, alpha, worst_edge, ratio)


@dataclass(frozen=True)
class StretchFriendlyReport:
    ok: bool
    # (cluster_id, offending graph edge id, tree edge id on the checked path)
    violation: tuple[int, int, int] | None

    def __str__(self) -> str:  # pragma: no cover - human output
        if self.ok:
            return "stretch-friendly: ok"
        c, ge, te = self.violation  # type: ignore[misc]
        return f"stretch-friendly violated in cluster {c}: edge {ge} lighter than tree edge {te}"


def _tree_path_max(graph: Graph, cluster, u: int, v: int) -> tuple[int, int | None]:
    """Max weight on the unique tree path between u and v inside the cluster."""
    du, dv = cluster.depth_of(u), cluster.depth_of(v)
    best_w, best_e = 0, None

    def step(x: int) -> int:
        nonlocal best_w, best_e
        p = cluster.parent[x]
        eid = graph.edge_between(x, p)
        w = graph.edges[eid].w
        if w > best_w:
            best_w, best_e = w, eid
        return p

    while du > dv:
        u = step(u)
        du -= 1
    while dv > du:
        v = step(v)
        dv -= 1
    while u != v:
        u = step(u)
        v = step(v)
    return best_w, best_e


def verify_stretch_friendly(
    graph: Graph,
    clustering: Clustering,
    edge_ids: Iterable[int] | None = None,
) -> StretchFriendlyReport:
    """Check every cluster against the weight-domination conditions.

    For a boundary edge {u not in C, v in C} of weight w, every edge on
    v's root path must weigh at most w; for an inside edge {u, v in C} of
    weight w, every edge on the tree path between u and v must weigh at
    most w.  `edge_ids` restricts which graph edges are checked (used for
    clusterings defined over a surviving edge subset); cluster trees are
    always taken from the clustering itself.
    """
    member = clustering.membership
    ids: Sequence[int] = sorted(edge_ids) if edge_ids is not None else range(graph.m)
    # Cache per-node root-path maxima lazily.
    root_max: dict[int, tuple[int, int | None]] = {}
    for eid in ids:
        e = graph.edges[eid]
        cu, cv = member.get(e.u), member.get(e.v)
        if cu is None and cv is None:
            continue
        if cu == cv:  # inside edge
            cluster = clustering.clusters[cu]
            mx, te = _tree_path_max(graph, cluster, e.u, e.v)
            if mx > e.w:
                return StretchFriendlyReport(False, (cu, eid, te))
            continue
        for cid, inside in ((cu, e.u), (cv, e.v)):
            if cid is None:
                continue
            if inside not in root_max:
                cluster = clustering.clusters[cid]
                root_max[inside] = _tree_path_max(graph, cluster, inside, cluster.root)
            mx, te = root_max[inside]
            if mx > e.w:
                return StretchFriendlyReport(False, (cid, eid, te))
    return StretchFriendlyReport(True, None)
