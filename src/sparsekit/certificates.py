"""Sparse k-connectivity certificates and exact cut verification.

A certificate is built by repeated skeleton extraction: k times, remove
an ultra-sparse spanner of whatever edges remain (any spanner is a
skeleton — it crosses every cut the remaining graph crosses, per
component).  The union keeps either all or at least k edges of every
cut: if some extraction misses a cut entirely, the remaining graph had
no edge across it, so all of the cut's edges were already extracted.
Size is at most n*k*(1+eps) with the extraction parameter t chosen so
one skeleton has at most n + floor(n*eps) edges.

For large k the extractions are parallelized by random edge splitting:
Q = floor(k eps'^2 / (c_K ln n)) parts (eps' = eps/8 internally), each
part gets a k'-certificate with k' = ceil(k(1+eps')/(Q(1-eps'))), and
the union is exact — a cut of size at most k/(1-eps') is kept entirely
(each part sees at most k' of its edges), a larger cut keeps at least
k/Q edges per part.  With Q = 1 this degenerates to the sequential
construction by definition.

Verification is exact: up to 18 nodes it enumerates all 2^(n-1)-1 cuts
in blocks of rows.  Beyond, H keeps min(|cut|, k) edges of every cut iff
every omitted edge (u,v) has lambda_H(u,v) >= k, an equivalence relation
that one Gomory-Hu tree of H decides (Gusfield 1990; n-1 scipy max flows).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .errors import InvariantViolation, ParameterError
from .graph import EdgeSet, Graph
from .rational import rat_ln_upper
from .ultra_sparse import ultra_sparse_spanner

CUT_ENUM_LIMIT = 18
CUT_BLOCK = 1 << 12  # cuts per enumeration block: CUT_BLOCK x m booleans at a time


def _frac(eps) -> Fraction:
    """Decimal-friendly parameter conversion (0.1 means exactly 1/10)."""
    if isinstance(eps, float):
        if not math.isfinite(eps):
            raise ParameterError(f"eps must be finite, got {eps}")
        return Fraction(str(eps))
    return Fraction(eps)


def _ends(graph: Graph, edge_ids) -> np.ndarray:
    return np.array([graph.edges[i][1:3] for i in edge_ids], dtype=np.intp).reshape(-1, 2).T


def _unit_capacity(graph: Graph, edge_ids) -> csr_matrix:
    """Symmetric CSR with capacity 1 on both arcs of every given edge."""
    u, v = _ends(graph, edge_ids)
    return csr_matrix((np.ones(2 * len(u), dtype=np.int32), (np.r_[u, v], np.r_[v, u])), shape=(graph.n,) * 2)


def _min_cut(cap: csr_matrix, s: int, t: int) -> tuple[int, np.ndarray]:
    """Max s-t flow and the source side of a minimum cut: the nodes s reaches
    over arcs carrying less than 1 unit (cap is symmetric: every arc has capacity 1)."""
    result = csgraph.maximum_flow(cap, s, t)
    flow, live = result.flow, result.flow.data < 1
    indptr = np.concatenate(([0], np.cumsum(live)))[flow.indptr]
    residual = csr_matrix((np.ones(indptr[-1]), flow.indices[live], indptr), shape=cap.shape)
    order = csgraph.breadth_first_order(residual, s, return_predecessors=False)
    return int(result.flow_value), np.bincount(order, minlength=cap.shape[0]) > 0


def _gomory_hu(cap: csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Gusfield's Gomory-Hu cut tree, rooted at node 0: flow[s] is lambda(s,
    parent[s]), and the subtree below s is a minimum cut between the two."""
    parent, flow = np.zeros(cap.shape[0], dtype=np.intp), np.zeros(cap.shape[0], dtype=np.int64)
    for s in range(1, cap.shape[0]):
        t = parent[s]
        f, side = _min_cut(cap, s, t)
        parent[side & (parent == t)] = s
        parent[s], flow[s] = t, f
        if side[parent[t]]:
            parent[s], parent[t] = parent[t], s
            flow[s], flow[t] = flow[t], f
    return parent, flow


def edge_connectivity(graph: Graph, edge_ids: Iterable[int] | None = None) -> int | float:
    """Exact global edge connectivity of the (sub)graph; 0 if disconnected.

    The least of the minimum degree and the max flows from node 0 to a greedy dominating
    set D (Matula 1987: if lambda < min degree, D meets both sides of a minimum cut).
    """
    if graph.n <= 1:
        return math.inf
    cap = _unit_capacity(graph, range(graph.m) if edge_ids is None else sorted(edge_ids))
    dominated, flows = np.zeros(graph.n, dtype=bool), [int(np.diff(cap.indptr).min())]
    for v in range(graph.n):  # greedy D: node 0 (no flow), then each node D does not reach
        if not dominated[v]:
            dominated[cap.indices[cap.indptr[v] : cap.indptr[v + 1]]] = dominated[v] = True
            flows.append(int(csgraph.maximum_flow(cap, 0, v).flow_value) if v else flows[0])
    return min(flows)


def skeleton_for(eps) -> Callable[[Graph], EdgeSet]:
    """Default skeleton: ultra-sparse spanner capped at n + floor(n*eps) edges."""
    eps = _frac(eps)
    if eps <= 0:
        raise ParameterError("eps must be positive")

    def skel(g: Graph) -> EdgeSet:
        slack = max(1, math.floor(g.n * eps))
        t = max(math.ceil(1 / eps), math.ceil(g.n / slack))
        return ultra_sparse_spanner(g, t)

    return skel


def certificate_small_k(
    graph: Graph,
    k: int,
    eps=Fraction(1, 4),
    skeleton: Callable[[Graph], EdgeSet] | None = None,
) -> EdgeSet:
    """k-fold skeleton extraction; keeps all or >= k edges of every cut.
    The result's `report` is the list of extracted layers (edge-id sets)."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    eps = _frac(eps)
    if skeleton is None:
        skeleton = skeleton_for(eps)
    remaining = set(range(graph.m))
    layers: list[frozenset[int]] = []
    acc: set[int] = set()
    for _ in range(k):
        if not remaining:
            break
        sub, emap = graph.edge_subgraph(remaining)
        extracted = skeleton(sub)
        ids = frozenset(emap[e] for e in extracted.ids)
        layers.append(ids)
        acc |= ids
        remaining -= ids
    if len(acc) > graph.n * k * (1 + eps):
        raise InvariantViolation(
            f"certificate has {len(acc)} edges, cap {graph.n * k} * (1+{eps})"
        )
    return EdgeSet(graph, frozenset(acc), layers)


def _edge_part(seed: int, eid: int, q: int) -> int:
    h = hashlib.sha256(b"edge-part" + seed.to_bytes(16, "little", signed=True) + eid.to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little") % q


def karger_parts(graph: Graph, q: int, seed: int) -> list[list[int]]:
    """Uniform random split of the edge set into q parts, derived from seed."""
    parts: list[list[int]] = [[] for _ in range(q)]
    for eid in range(graph.m):
        parts[_edge_part(seed, eid, q)].append(eid)
    return parts


def certificate_large_k(
    graph: Graph,
    k: int,
    eps=Fraction(2, 5),
    seed: int = 0,
    *,
    c_k: float = 3.0,
) -> EdgeSet:
    """Certificate via Q-way random edge splitting (see module docstring).

    `eps` is the public sparsity slack: the output has at most
    n*k*(1+eps) edges; internally eps/8 drives the split.  The result's
    `report` is {"q", "k_part", "parts"}.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    eps = _frac(eps)
    if not (0 < eps < Fraction(1, 2)):
        raise ParameterError("eps must lie in (0, 1/2)")
    e = eps / 8
    ln_n = rat_ln_upper(max(graph.n, 2))
    q = max(1, math.floor(k * e * e / (Fraction(str(c_k)) * ln_n)))
    kp = math.ceil(k * (1 + e) / (q * (1 - e)))
    if q == 1:
        ids = certificate_small_k(graph, kp, eps=e).ids
        parts: list[list[int]] = [list(range(graph.m))]
    else:
        parts = karger_parts(graph, q, seed)
        acc: set[int] = set()
        for part in parts:
            sub, emap = graph.edge_subgraph(part)
            part_cert = certificate_small_k(sub, kp, eps=e)
            acc.update(emap[i] for i in part_cert.ids)
        ids = frozenset(acc)
    if len(ids) > graph.n * k * (1 + 8 * e):
        raise InvariantViolation(
            f"certificate has {len(ids)} edges, cap {graph.n * k} * (1+{8 * e})"
        )
    return EdgeSet(graph, ids, {"q": q, "k_part": kp, "parts": parts})


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    mode: str  # "cuts" (exhaustive) or "mincut" (Gomory-Hu tree of the certificate)
    k: int
    detail: dict

    def __str__(self) -> str:  # pragma: no cover - human output
        return f"certificate k={self.k} mode={self.mode} ok={self.ok} {self.detail}"


def _cut_blocks(graph: Graph, ids: list[int]):
    """(first mask, crossing matrix over the columns ids) per block of cuts.
    Masks run from 1 to 2^(n-1)-1; bit i-1 puts node i opposite node 0."""
    n = max(graph.n, 1)  # no node, like one node, has no proper cut
    u, v = _ends(graph, ids)
    for lo in range(1, 1 << (n - 1), CUT_BLOCK):
        masks = np.arange(lo, min(lo + CUT_BLOCK, 1 << (n - 1)), dtype=np.uint32) << 1
        sides = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
        yield lo, sides[:, u] != sides[:, v]


def cut_matrix(graph: Graph, edge_ids: Iterable[int]) -> np.ndarray:
    """Boolean matrix: row r for the cut with mask r + 1 (see _cut_blocks),
    column per given edge; True when the edge crosses the cut.  n <= CUT_ENUM_LIMIT."""
    if graph.n > CUT_ENUM_LIMIT:
        raise ParameterError(f"cut enumeration capped at n <= {CUT_ENUM_LIMIT}")
    ids = sorted(edge_ids)
    return np.concatenate([np.zeros((0, len(ids)), dtype=bool), *(c for _, c in _cut_blocks(graph, ids))])


def verify_certificate(graph: Graph, cert: EdgeSet, k: int) -> CertificateReport:
    """Exact check that cert keeps min(|cut|, k) edges of every cut.

    Exhaustive cut enumeration up to CUT_ENUM_LIMIT nodes, else one Gomory-Hu tree
    of cert; that fails on the first omitted edge (u,v) with lambda_cert(u,v) < k.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    kept, omitted = sorted(cert.ids), sorted(set(range(graph.m)) - cert.ids)
    if graph.n <= CUT_ENUM_LIMIT:
        for lo, cross in _cut_blocks(graph, kept + omitted):
            cut_h = np.count_nonzero(cross[:, : len(kept)], axis=1)
            cut_g = cut_h + np.count_nonzero(cross[:, len(kept) :], axis=1)
            bad = np.flatnonzero(cut_h < np.minimum(cut_g, k))
            if len(bad):
                i = int(bad[0])
                detail = {"cut_mask": lo + i, "cut_size": int(cut_g[i]), "kept": int(cut_h[i])}
                return CertificateReport(False, "cuts", k, detail)
        return CertificateReport(True, "cuts", k, {"cuts_checked": (1 << max(graph.n - 1, 0)) - 1})
    cap = _unit_capacity(graph, kept)
    parent, flow = _gomory_hu(cap)
    strong = np.flatnonzero(flow >= k)  # never the root: flow[0] = 0 < k
    tree = csr_matrix((np.ones(len(strong)), (strong, parent[strong])), shape=cap.shape)
    label = csgraph.connected_components(tree, directed=False)[1]
    bad = np.flatnonzero(np.not_equal(*label[_ends(graph, omitted)]))
    detail = {"lambda_g": edge_connectivity(graph), "lambda_h": int(flow[1:].min())}
    if len(bad):
        e = graph.edges[omitted[bad[0]]]
        lam, side = _min_cut(cap, e.u, e.v)
        detail.update(edge=e.id, lambda_uv=lam, cut_size=int(sum(side[x.u] != side[x.v] for x in graph.edges)))
    return CertificateReport(not len(bad), "mincut", k, detail)
