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
  - dep(u) + dep(v) + d_K(a(u), a(v)) if a(u) and a(v) are core nodes;
  - inf otherwise, since u and v lie in different components; Dijkstra
    on the core finds this too, as a tree root has no core edges.
If nothing peels (for H = G, say), K is H.

Dijkstra runs between branch nodes only (Frederickson 1995): nodes of
core degree other than 2, and the least node of each cycle of degree-2
nodes.  Each other core node lies on a chain between two branch nodes,
its ports, at known distances.  With the lightest chain between two
branch nodes as an edge, d_K(x, y) is the least d(x, p) + D(p, q) +
d(q, y) over ports p of x and q of y (D by Dijkstra from a vertex cover
of those port pairs), or the way along a chain that x and y share.

All distances are exact.  The scipy fast path computes Dijkstra in
float64, which is exact for integer path weights below 2**53; inputs
beyond that fall back to a pure-Python integer Dijkstra.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .clustering import Clustering, require_same_graph
from .errors import ParameterError, check_edge_ids, check_int, check_rational
from .graph import EdgeSet, Graph, first_per_key

INF = math.inf


def _exact_float_ok(graph: Graph) -> bool:
    # Longest possible path weight must stay below 2**53 for float64 sums of
    # integers to be exact.  The last id in (w, id) order is a heaviest edge.
    return graph.n * max(1, graph.arrays.w[graph.arrays.by_weight[-1]] if graph.m else 0) < 2**53


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
        for y, eid in graph.adj[x].items():
            if allowed is not None and eid not in allowed:
                continue
            nd = d + graph.edges[eid].w
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


def _cover_distances(rows, pairs) -> np.ndarray:
    """The distance of each node pair, by Dijkstra (`rows`) from a vertex cover of the pairs (of
    each pair, the end more pairs share), 256 sources at a time: memory stays at 256 * n values."""
    u, v = (uv := np.asarray(pairs, np.int64).reshape(-1, 2)).T
    src = np.where((deg := np.bincount(uv.ravel()))[u] >= deg[v], u, v)
    out = np.empty(len(src), object)
    for lo in range(0, len(sources := np.unique(src)), 256):
        chunk = sources[lo : lo + 256]
        at = (src >= chunk[0]) & (src <= chunk[-1])
        out[at] = np.asarray(rows(chunk))[np.searchsorted(chunk, src[at]), (u + v - src)[at]]
    return out


def _peel(graph: Graph, w: Sequence[int], eid, u, v, peel: bool):
    """Peel H, the edges `eid` (ends `u`, `v`, weights `w[eid]`), to its 2-core K.

    Returns arrays of each node's parent (-1 if unpeeled), hop depth, attachment node, weighted
    depth below it and core degree.  Nothing peels unless `peel`.  A node keeps the XOR of its
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
    return np.array(parent), np.array(hop), np.array(att), np.array(dep, object), np.array(deg)


def _kernel(graph: Graph, w: Sequence[int], deg, eid, u, v):
    """`dist(x, y, limit)`: d_K(x[i], y[i]) for nodes of K or tree roots, exact up to `limit`; K has
    the edges `eid` with both ends `u`, `v` of core degree `deg` > 0.  Chain nodes get `port` and `off`."""
    n = graph.n
    inside = (deg[u] > 0) & (deg[v] > 0)
    u, v, eid = u[inside], v[inside], eid[inside]
    on = (deg[u] == 2) | (deg[v] == 2)  # the edges of chains
    nb: dict[int, list[tuple[int, int]]] = {}  # each chain node's two (neighbour, weight) pairs
    for x, y, e in zip(*(np.concatenate([a[on], b[on]]).tolist() for a, b in ((u, v), (v, u), (eid, eid)))):
        nb.setdefault(x, []).append((y, w[e]))
    deg, chain, walked, runs = deg.tolist(), [-1] * n, [], []
    for s in sorted(nb, key=lambda x: (deg[x] == 2, x)):  # branch nodes, then the least node of each pure cycle
        for y, d in nb[s]:
            if chain[s] >= 0 or chain[y] >= 0:  # walked already
                continue
            prev, x, path = s, y, []
            while deg[x] == 2 and x != s:
                path.append((x, d))
                chain[x] = y  # the chain is named by its first node
                nxt, wt = nb[x][nb[x][0][0] == prev]  # the edge that does not lead back
                prev, x, d = x, nxt, d + wt
            walked += [(z, s, x, dz, d - dz) for z, dz in path]
            if x != s:  # a loop chain is on no shortest path
                runs.append((s, x, d))
    kind = np.float64 if _exact_float_ok(graph) else object  # float64 holds every path weight exactly
    port, off, chain = np.tile(np.arange(n), (2, 1)), np.zeros((2, n), kind), np.array(chain)
    if walked:  # each chain node's two ports and its distance to each
        z, pa, pb, da, db = zip(*walked)
        port[:, z], off[:, z] = (pa, pb), (da, db)
    ka, kb = (np.concatenate([k[~on], np.array([run[i] for run in runs], np.int64)]) for i, k in ((0, u), (1, v)))
    kw = np.concatenate([np.array(w, kind)[eid[~on]], np.array([run[2] for run in runs], kind)])
    if runs:  # a chain may run parallel to another or to an edge: keep the lightest per pair
        first = (order := np.argsort(kw))[first_per_key(np.minimum(ka, kb)[order] * n + np.maximum(ka, kb)[order])[1]]
        ka, kb, kw = ka[first], kb[first], kw[first]
    if kind is np.float64:
        from scipy.sparse import csr_matrix  # loaded with .graph
        r, c = np.concatenate([ka, kb]), np.concatenate([kb, ka])  # both arcs, sorted by tail below
        o = np.argsort(r)
        mat = csr_matrix((np.concatenate([kw, kw])[o], c[o], np.searchsorted(r[o], np.arange(n + 1))), shape=(n, n))
    else:
        kernel = Graph(n, zip(ka.tolist(), kb.tolist(), kw.tolist()), weight_cap=n * graph.weight_cap)

    def rows(sources, limit):  # exact: float64 below 2**53, Python integers beyond
        if kind is object:
            return np.array([_sssp(kernel, s, None) for s in sources], object)
        return _sp_dijkstra(mat, indices=sources, limit=limit)

    def dist(x, y, limit=INF):  # the best of the four port pairs, or along a shared chain
        p, q = port[:, x][:, None], port[:, y][None]
        keys, inv = np.unique(np.minimum(p, q) * n + np.maximum(p, q), return_inverse=True)
        d = _cover_distances(lambda chunk: rows(chunk, limit), np.stack(np.divmod(keys, n), 1)).astype(kind)
        via = (off[:, x][:, None] + d[inv.reshape(2, 2, -1)] + off[:, y][None]).min(axis=(0, 1), initial=INF)
        best = np.minimum(via, np.where((chain[x] == chain[y]) & (chain[x] >= 0), abs(off[0, x] - off[0, y]), INF))
        return np.array([INF if z == INF else int(z) for z in best.tolist()], object)

    return dist


def measure_stretch(graph: Graph, sub_edges: Iterable[int]) -> tuple[Fraction | float, int | None]:
    """Exact worst edge-stretch of the subgraph, with a witnessing edge id."""
    eid = np.array(check_edge_ids(graph, sub_edges), np.int64)  # kept, in id order
    if graph.m == 0:
        return Fraction(1), None
    uv, w, _ = graph.arrays
    out = np.delete(np.arange(graph.m), eid)  # omitted, in id order
    parent, hop, att, dep, deg = _peel(graph, w, eid, *uv[eid].T, len(out) > 0)
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
    if dist := far.any() and _kernel(graph, w, deg, eid, *uv[eid].T):  # d_K, built on first use
        dh[far] = dep[u[far]] + dep[v[far]] + dist(a[far], b[far])
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
        if e.w and (e.v == parent[e.u] or e.u == parent[e.v]
                    or (dist := dist or _kernel(graph, w, deg, eid, *uv[eid].T))([e.u], [e.v], e.w)[0] == e.w):
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
        eid = graph.adj[x][p]
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
