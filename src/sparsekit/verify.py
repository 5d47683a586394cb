"""Exact verification oracles: shortest paths, stretch, weight-domination.

Stretch checking is edge-wise: it suffices to verify
``d_H(u, v) <= alpha * w(u, v)`` for every *edge* {u, v} of G, because
per-edge bounds compose along shortest paths — for any pair (s, t), sum
the bound over the edges of a G-shortest s-t path to get
``d_H(s, t) <= alpha * d_G(s, t)``.  The reported worst ratio is the
exact maximum of d_H(u, v) / w(u, v) over edges.

Only the edges of G - H are measured: a kept edge has d_H(u, v) <= w,
so its ratio is at most 1 and cannot beat an omitted edge above 1.
Kept edges need a look only when the omitted ones top out at 1 or
below, and then the answer is 1 at the first edge of ratio exactly 1,
if there is one.  If some kept edge has d_H > 0, a lightest such edge f
has ratio 1: each positive edge g on its shortest H-path has
d_H(g) > 0, or the path could be shortened, so w(f) <= w(g) <= d_H(f).
Otherwise every kept edge has ratio 0 (or 0/0), and the omitted edges
decide alone.

Sparse spanners are nearly forests, so H is first peeled to its 2-core
K, the kernel, by removing nodes of degree 1 until none is left.  A
peeled node x hangs in a tree below its attachment node a(x), a core
node or the root of a component that is a tree, at weighted depth
dep(x).  A hanging tree is a dead end: a path that enters it leaves
through the node it hangs from, so shortest paths between core nodes
stay in the core.  An omitted edge {u, v} then has d_H equal to
  - the tree path through the lowest common ancestor if a(u) = a(v);
  - dep(u) + dep(v) + d_K(a(u), a(v)) if a(u) and a(v) are core nodes,
    with d_K by Dijkstra from a vertex cover of those pairs;
  - inf otherwise, since u and v lie in different components; Dijkstra
    on the core finds this too, as a tree root has no core edges.
If nothing peels (for H = G, say), K is H.

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
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .clustering import Clustering, require_same_graph
from .errors import ParameterError, check_edge_ids, check_int, check_rational
from .graph import EdgeSet, Graph

INF = math.inf


def _exact_float_ok(graph: Graph) -> bool:
    # Longest possible path weight must stay below 2**53 for float64 sums
    # of integers to be exact.
    return graph.n * max(1, max(graph.arrays.w, default=0)) < 2**53


def sssp(graph: Graph, source: int, edge_ids: Iterable[int] | None = None) -> list[int | float]:
    """Single-source shortest path weights; math.inf for unreachable nodes."""
    if not 0 <= (source := check_int("source", source)) < graph.n:
        raise ParameterError(f"source {source} is not a node of a graph with {graph.n} nodes")
    return _sssp(graph, source, None if edge_ids is None else set(check_edge_ids(graph, edge_ids)))


def _sssp(graph: Graph, source: int, allowed) -> list[int | float]:  # `sssp` over checked edge ids (None: all)
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
    ids = range(graph.m) if edge_ids is None else check_edge_ids(graph, edge_ids)
    if graph.n == 0:
        return []
    if _exact_float_ok(graph):
        rows = _sp_dijkstra(graph.matrix(ids, np.array(graph.arrays.w, np.int64)[ids]))
        return [[INF if math.isinf(x) else int(x) for x in row] for row in rows]
    allowed = set(ids)
    return [_sssp(graph, s, allowed) for s in range(graph.n)]


@dataclass(frozen=True)
class StretchReport:
    ok: bool
    alpha: Fraction | None
    worst_edge: int | None
    worst_ratio: Fraction | float  # math.inf when the spanner disconnects G

    def __str__(self) -> str:  # pragma: no cover - human output
        tgt = "" if self.alpha is None else f" (target {self.alpha})"
        return f"stretch ok={self.ok} worst_ratio={self.worst_ratio}{tgt} worst_edge={self.worst_edge}"


def _cover_distances(rows, pairs: Sequence[tuple[int, int]]) -> list[int | float]:
    """The distance of each node pair, by Dijkstra (`rows`) from a greedy vertex
    cover of the pairs, 256 sources at a time, so memory stays at 256 * n floats."""
    deg = Counter(x for pair in pairs for x in pair)
    by_source: dict[int, list[int]] = {}  # its keys are the cover
    for i, (u, v) in enumerate(pairs):
        if u in by_source or v in by_source:
            s = u if u in by_source else v
        else:
            s = u if deg[u] >= deg[v] else v
        by_source.setdefault(s, []).append(i)
    sources = sorted(by_source)
    out: list[int | float] = [0] * len(pairs)
    for lo in range(0, len(sources), 256):
        chunk = sources[lo : lo + 256]
        for s, row in zip(chunk, rows(chunk)):
            for i in by_source[s]:
                u, v = pairs[i]
                out[i] = row[v if u == s else u]
    return out


def _peel(graph: Graph, w: Sequence[int], eid, u, v, peel: bool):
    """Peel H, the edges `eid` (ends `u`, `v`, weights `w[eid]`), to its 2-core.

    Returns arrays of each node's parent (-1 if unpeeled), hop depth, attachment
    node and weighted depth below it, and `rows(sources, limit)`, Dijkstra over the
    core's edges.  Nothing peels unless `peel`.  A node keeps the XOR of its
    remaining neighbours and of their edge ids: at degree 1 they name its last edge.
    """
    n = graph.n
    deg = np.bincount(np.concatenate([u, v]), minlength=n).tolist()
    parent, hop, att, dep = [-1] * n, [0] * n, list(range(n)), [0] * n
    stack = [x for x in range(n) if deg[x] == 1] if peel else []
    if stack:
        xn, xe = np.zeros(n, np.int64), np.zeros(n, np.int64)
        for xor, a, b in ((xn, u, v), (xn, v, u), (xe, u, eid), (xe, v, eid)):
            np.bitwise_xor.at(xor, a, b)
        xn, xe = xn.tolist(), xe.tolist()
    order = []
    while stack:
        x = stack.pop()
        if deg[x] != 1:  # its last neighbour was peeled into it: a tree root
            continue
        y, e = xn[x], xe[x]
        parent[x], dep[x], deg[x] = y, w[e], 0
        deg[y], xn[y], xe[y] = deg[y] - 1, xn[y] ^ x, xe[y] ^ e
        if deg[y] == 1:
            stack.append(y)
        order.append(x)
    for x in reversed(order):  # a parent is peeled after its children
        y = parent[x]
        att[x], hop[x], dep[x] = att[y], hop[y] + 1, dep[y] + dep[x]
    core = np.array(deg) > 0
    inside = core[u] & core[v]
    if _exact_float_ok(graph):
        mat = graph.matrix(eid[inside], np.array(w, np.float64)[eid[inside]])

        def rows(sources, limit=INF):
            return _sp_dijkstra(mat, indices=sources, limit=limit)
    else:
        kernel = frozenset(eid[inside].tolist())

        def rows(sources, limit=INF):
            return [_sssp(graph, s, kernel) for s in sources]

    return np.array(parent), np.array(hop), np.array(att), np.array(dep, object), rows


def measure_stretch(graph: Graph, sub_edges: Iterable[int]) -> tuple[Fraction | float, int | None]:
    """Exact worst edge-stretch of the subgraph, with a witnessing edge id."""
    eid = np.array(check_edge_ids(graph, sub_edges), np.int64)  # kept, in id order
    if graph.m == 0:
        return Fraction(1), None
    n, (uv, w, _) = graph.n, graph.arrays
    out = np.setdiff1d(np.arange(graph.m), eid, assume_unique=True)  # omitted, in id order
    parent, hop, att, dep, rows = _peel(graph, w, eid, *uv[eid].T, len(out) > 0)
    u, v = uv[out].T
    a, b = att[u], att[v]
    same = a == b  # one hanging tree: climb to the lowest common ancestor
    x, y = u[same], v[same]
    while (step := x != y).any():
        hx, hy = hop[x], hop[y]
        x, y = np.where(step & (hx >= hy), parent[x], x), np.where(step & (hy >= hx), parent[y], y)
    dh = np.empty(len(out), object)
    dh[same] = dep[u[same]] + dep[v[same]] - 2 * dep[x]
    far = ~same  # a tree root has no core edges, so d_K to it is inf
    keys, inv = np.unique(np.minimum(a, b)[far] * n + np.maximum(a, b)[far], return_inverse=True)
    pairs = [divmod(k, n) for k in keys.tolist()]
    d_core = np.array([INF if d == INF else int(d) for d in _cover_distances(rows, pairs)], object)
    dh[far] = dep[u[far]] + dep[v[far]] + d_core[inv]
    num, den, worst_edge = 0, 1, None
    for i, d in zip(out.tolist(), dh.tolist()):
        if d == INF or (w[i] == 0 and d > 0):
            return INF, i  # disconnected, or a zero-weight edge stretched
        if w[i] and d * den > num * w[i]:  # 0/0 (zero-weight edge kept by zeros) is fine
            num, den, worst_edge = d, w[i], i
    if num > den:
        return Fraction(num, den), worst_edge
    # The answer is 1 at the first edge of ratio exactly 1, if there is one: a tree
    # edge is its ends' only path, and d_H <= w makes a capped core Dijkstra exact.
    stop = worst_edge if num == den else graph.m
    for i in eid[eid < stop].tolist():
        e = graph.edges[i]
        if e.w and (e.v == parent[e.u] or e.u == parent[e.v] or rows([e.u], e.w)[0][e.v] == e.w):
            return Fraction(1), i
    return Fraction(num, den), worst_edge


def verify_stretch(graph: Graph, spanner: EdgeSet, alpha) -> StretchReport:
    """Check that `spanner` is an alpha-spanner of `graph` (edge-wise, exact)."""
    require_same_graph(graph, spanner.graph, "spanner is not over the given graph", ParameterError)
    alpha = check_rational("alpha", alpha, lo=1)
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


def _tree_path_max(graph: Graph, clustering: Clustering, u: int, v: int) -> tuple[int, int | None]:
    """Max weight on the unique tree path between u and v of one cluster."""
    parent, depth = clustering.parent, clustering.depth
    du, dv = depth[u], depth[v]
    best_w, best_e = 0, None

    def step(x: int) -> int:
        nonlocal best_w, best_e
        p = parent[x]
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
    always taken from the clustering itself, which must have been built
    on `graph` or an equal graph.
    """
    require_same_graph(graph, clustering.graph, "clustering was built on another graph")
    label = clustering.label
    ids: Sequence[int] = range(graph.m) if edge_ids is None else check_edge_ids(graph, edge_ids)
    # Cache per-node root-path maxima lazily.
    root_max: dict[int, tuple[int, int | None]] = {}
    for eid in ids:
        e = graph.edges[eid]
        cu, cv = label[e.u], label[e.v]
        if cu == cv == -1:
            continue
        if cu == cv:  # inside edge
            mx, te = _tree_path_max(graph, clustering, e.u, e.v)
            if mx > e.w:
                return StretchFriendlyReport(False, (cu, eid, te))
            continue
        for cid, inside in ((cu, e.u), (cv, e.v)):
            if cid == -1:
                continue
            if inside not in root_max:
                root_max[inside] = _tree_path_max(graph, clustering, inside, clustering.clusters[cid].root)
            mx, te = root_max[inside]
            if mx > e.w:
                return StretchFriendlyReport(False, (cid, eid, te))
    return StretchFriendlyReport(True, None)
