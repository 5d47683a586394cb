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

Verification is exact: graphs with at most 18 nodes enumerate all
2^(n-1)-1 cuts (vectorized); larger graphs compare global edge
connectivity (Stoer-Wagner) of certificate and graph.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import networkx as nx
import numpy as np

from .errors import InvariantViolation, ParameterError
from .graph import EdgeSet, Graph
from .rational import rat_ln_upper
from .ultra_sparse import ultra_sparse_spanner

CUT_ENUM_LIMIT = 18


def _frac(eps) -> Fraction:
    """Decimal-friendly parameter conversion (0.1 means exactly 1/10)."""
    if isinstance(eps, float):
        if not math.isfinite(eps):
            raise ParameterError(f"eps must be finite, got {eps}")
        return Fraction(str(eps))
    return Fraction(eps)


def edge_connectivity(graph: Graph, edge_ids: Iterable[int] | None = None) -> int | float:
    """Exact global edge connectivity of the (sub)graph; 0 if disconnected."""
    ids = list(range(graph.m)) if edge_ids is None else sorted(edge_ids)
    if graph.n <= 1:
        return math.inf
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for eid in ids:
        e = graph.edges[eid]
        g.add_edge(e.u, e.v, weight=1)
    if not nx.is_connected(g):
        return 0
    value, _ = nx.stoer_wagner(g)
    return int(value)


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
    *,
    with_layers: bool = False,
):
    """k-fold skeleton extraction; keeps all or >= k edges of every cut."""
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
    cert = EdgeSet(graph, frozenset(acc))
    if len(cert) > graph.n * k * (1 + eps):
        raise InvariantViolation(
            f"certificate has {len(cert)} edges, cap {graph.n * k} * (1+{eps})"
        )
    if with_layers:
        return cert, layers
    return cert


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
    with_detail: bool = False,
):
    """Certificate via Q-way random edge splitting (see module docstring).

    `eps` is the public sparsity slack: the output has at most
    n*k*(1+eps) edges; internally eps/8 drives the split.
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
        cert = certificate_small_k(graph, kp, eps=e)
        parts: list[list[int]] = [list(range(graph.m))]
    else:
        parts = karger_parts(graph, q, seed)
        acc: set[int] = set()
        for part in parts:
            sub, emap = graph.edge_subgraph(part)
            part_cert = certificate_small_k(sub, kp, eps=e)
            acc.update(emap[i] for i in part_cert.ids)
        cert = EdgeSet(graph, frozenset(acc))
    if len(cert) > graph.n * k * (1 + 8 * e):
        raise InvariantViolation(
            f"certificate has {len(cert)} edges, cap {graph.n * k} * (1+{8 * e})"
        )
    if with_detail:
        return cert, {"q": q, "k_part": kp, "parts": parts}
    return cert


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    mode: str  # "cuts" (exhaustive) or "mincut" (Stoer-Wagner comparison)
    k: int
    detail: dict

    def __str__(self) -> str:  # pragma: no cover - human output
        return f"certificate k={self.k} mode={self.mode} ok={self.ok} {self.detail}"


def cut_matrix(graph: Graph, edge_ids: Iterable[int]) -> np.ndarray:
    """Boolean matrix: row per cut (subsets containing node 0), column per
    given edge; True when the edge crosses the cut.  n <= CUT_ENUM_LIMIT."""
    if graph.n > CUT_ENUM_LIMIT:
        raise ParameterError(f"cut enumeration capped at n <= {CUT_ENUM_LIMIT}")
    n = max(graph.n, 1)  # no node, like one node, has no proper cut
    masks = np.arange(1 << (n - 1), dtype=np.uint32)  # bit i-1 = node i; node 0 fixed
    sides = np.zeros((len(masks), n), dtype=bool)
    for v in range(1, n):
        sides[:, v] = (masks >> (v - 1)) & 1
    ids = sorted(edge_ids)
    cross = np.zeros((len(masks), len(ids)), dtype=bool)
    for col, eid in enumerate(ids):
        e = graph.edges[eid]
        cross[:, col] = sides[:, e.u] != sides[:, e.v]
    # Drop the improper "cut" S = V (mask with every bit set keeps the cut
    # empty anyway, but per the contract we enumerate 2^(n-1) - 1 cuts).
    return cross[: (1 << (n - 1)) - 1]


def verify_certificate(graph: Graph, cert: EdgeSet, k: int) -> CertificateReport:
    """Exact check that cert keeps min(|cut|, k) edges of every cut.

    Exhaustive cut enumeration up to CUT_ENUM_LIMIT nodes; beyond that,
    compares exact global min cuts: lambda(cert) >= min(lambda(G), k).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    if graph.n <= CUT_ENUM_LIMIT:
        cross_all = cut_matrix(graph, range(graph.m))
        in_cert = np.fromiter(
            (eid in cert.ids for eid in range(graph.m)), dtype=bool, count=graph.m
        )
        cut_g = cross_all.sum(axis=1)
        cut_h = cross_all[:, in_cert].sum(axis=1)
        need = np.minimum(cut_g, k)
        bad = np.nonzero(cut_h < need)[0]
        if len(bad):
            m0 = int(bad[0])
            return CertificateReport(
                False,
                "cuts",
                k,
                {"cut_mask": m0, "cut_size": int(cut_g[m0]), "kept": int(cut_h[m0])},
            )
        return CertificateReport(True, "cuts", k, {"cuts_checked": int(cross_all.shape[0])})
    lam_g = edge_connectivity(graph)
    lam_h = edge_connectivity(graph, cert.ids)
    ok = lam_h >= min(lam_g, k)
    return CertificateReport(ok, "mincut", k, {"lambda_g": lam_g, "lambda_h": lam_h})
