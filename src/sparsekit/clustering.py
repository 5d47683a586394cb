"""Rooted-tree clusterings and cluster-graph contraction.

A cluster is a set of nodes carrying a rooted spanning tree made of
graph edges; its radius is the maximum hop count from a member to the
root along parent pointers (weights play no role in radii).  A
clustering is a set of disjoint clusters; a partition additionally
covers every node.  Contracting a graph along a clustering yields the
cluster graph: one node per cluster, one edge per neighboring cluster
pair, weighted by the minimum original edge weight between the pair and
remembering a witness edge that achieves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import InvalidClusteringError
from .graph import EdgeSet, Graph


@dataclass(frozen=True)
class Cluster:
    cluster_id: int
    root: int
    members: frozenset[int]
    parent: Mapping[int, int]  # member -> parent member; root maps to itself
    tree_edges: frozenset[int]
    radius: int

    def depth_of(self, v: int) -> int:
        d = 0
        while v != self.parent[v]:
            v = self.parent[v]
            d += 1
        return d


def tree_height(root: int, parent: Mapping[int, int]) -> tuple[int, int]:
    """(nodes reached, height) of the parent-pointer tree hanging below
    `root`, walked down level by level; nodes on a cycle are never reached."""
    children: dict[int, list[int]] = {}
    for v, p in parent.items():
        if v != p:
            children.setdefault(p, []).append(v)
    reached, height, frontier = 1, 0, [root]
    while frontier := [c for v in frontier for c in children.get(v, ())]:
        reached += len(frontier)
        height += 1
    return reached, height


def build_cluster(graph: Graph, cluster_id: int, root: int, parent: Mapping[int, int]) -> Cluster:
    """Build a Cluster from parent pointers, computing tree edges and radius.

    Validates that the pointers form a tree on the members rooted at
    `root` and that every parent link is realized by a graph edge.
    """
    members = frozenset(parent)
    if root not in members or parent[root] != root:
        raise InvalidClusteringError(f"cluster {cluster_id}: root {root} not a fixed point")
    tree_edges: set[int] = set()
    for v, p in parent.items():
        if v == root:
            continue
        if p not in members:
            raise InvalidClusteringError(f"cluster {cluster_id}: parent of {v} outside cluster")
        eid = graph.edge_between(v, p)
        if eid is None:
            raise InvalidClusteringError(f"cluster {cluster_id}: no edge between {v} and parent {p}")
        tree_edges.add(eid)
    reached, radius = tree_height(root, parent)
    if reached != len(members):
        raise InvalidClusteringError(f"cluster {cluster_id}: parent pointers do not reach all members")
    return Cluster(cluster_id, root, members, dict(parent), frozenset(tree_edges), radius)


@dataclass(frozen=True)
class Clustering:
    clusters: tuple[Cluster, ...]
    membership: Mapping[int, int]  # node -> index into clusters; absent = unclustered
    # output only: how the construction that returned it ran
    report: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def from_clusters(cls, clusters: Iterable[Cluster]) -> "Clustering":
        cl = tuple(clusters)
        membership: dict[int, int] = {}
        for idx, c in enumerate(cl):
            if c.cluster_id != idx:
                raise InvalidClusteringError("cluster_id must equal its index")
            for v in c.members:
                if v in membership:
                    raise InvalidClusteringError(f"node {v} in two clusters")
                membership[v] = idx
        return cls(cl, membership)

    @classmethod
    def from_parent_maps(cls, graph: Graph, parts: Iterable[tuple[int, Mapping[int, int]]]) -> "Clustering":
        """Build from (root, parent_map) pairs; cluster ids follow input order."""
        return cls.from_clusters(
            build_cluster(graph, i, root, parent) for i, (root, parent) in enumerate(parts)
        )

    @classmethod
    def trivial(cls, graph: Graph, nodes: Iterable[int] | None = None) -> "Clustering":
        """Every (given) node its own singleton cluster, ordered by node id."""
        ns = sorted(nodes) if nodes is not None else range(graph.n)
        return cls.from_clusters(
            Cluster(i, v, frozenset((v,)), {v: v}, frozenset(), 0) for i, v in enumerate(ns)
        )

    def __len__(self) -> int:
        return len(self.clusters)

    def covered(self) -> int:
        return len(self.membership)

    def is_partition(self, graph: Graph) -> bool:
        return len(self.membership) == graph.n

    def max_radius(self) -> int:
        return max((c.radius for c in self.clusters), default=0)

    def validate(self, graph: Graph) -> None:
        """Re-check disjointness and every cluster tree against the graph."""
        seen: set[int] = set()
        for idx, c in enumerate(self.clusters):
            if c.cluster_id != idx:
                raise InvalidClusteringError("cluster_id/index mismatch")
            if c.members & seen:
                raise InvalidClusteringError("overlapping clusters")
            seen |= c.members
            rebuilt = build_cluster(graph, c.cluster_id, c.root, c.parent)
            if rebuilt.radius != c.radius or rebuilt.tree_edges != c.tree_edges:
                raise InvalidClusteringError(f"cluster {idx}: stored radius/tree edges inconsistent")
        if dict(self.membership) != {v: i for i, c in enumerate(self.clusters) for v in c.members}:
            raise InvalidClusteringError("membership map inconsistent with clusters")

    def all_tree_edges(self) -> frozenset[int]:
        out: set[int] = set()
        for c in self.clusters:
            out |= c.tree_edges
        return frozenset(out)


@dataclass(frozen=True)
class ClusterGraph:
    """Contraction of `base` along `clustering`.

    `graph` is the contracted simple graph whose node i stands for
    clustering.clusters[i]; `witness[eid]` is the base edge achieving the
    (minimum) weight of contracted edge eid.
    """

    base: Graph
    clustering: Clustering
    graph: Graph
    witness: tuple[int, ...]

    def inv(self, v: int) -> frozenset[int]:
        """Original node set contracted into cluster-graph node v."""
        return self.clustering.clusters[v].members


def contract(graph: Graph, clustering: Clustering) -> ClusterGraph:
    """Contract each cluster to a node; parallel edges collapse to the minimum.

    Ties between equal-weight inter-cluster edges break toward the
    smallest original edge id, so contraction is deterministic.
    Unclustered nodes are dropped.
    """
    clustering.validate(graph)
    best: dict[tuple[int, int], int] = {}  # (cid_lo, cid_hi) -> base edge id
    member = clustering.membership
    for e in graph.edges:
        cu = member.get(e.u)
        cv = member.get(e.v)
        if cu is None or cv is None or cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        cur = best.get(key)
        if cur is None or (e.w, e.id) < (graph.edges[cur].w, cur):
            best[key] = e.id
    pairs = sorted(best.items())
    edges = [(a, b, graph.edges[eid].w) for (a, b), eid in pairs]
    cg = Graph(len(clustering.clusters), edges, weighted=graph.weighted, weight_cap=graph.weight_cap)
    return ClusterGraph(graph, clustering, cg, tuple(eid for _, eid in pairs))


def compose_spanner(cg: ClusterGraph, cluster_spanner: EdgeSet) -> EdgeSet:
    """Lift a spanner of the contraction `cg.graph` back to `cg.base`.

    Returns the union of the tree edges of `cg.clustering`, which must be
    a partition, with the witnesses of the chosen cluster-graph edges.
    When the clustering is a stretch-friendly r-partition and the
    cluster-graph subgraph is an alpha-spanner of the contraction, the
    result is a ((2r+1)(alpha+1) - 1)-spanner of the base graph.
    """
    if not cg.clustering.is_partition(cg.base):
        raise InvalidClusteringError("compose_spanner requires a partition")
    other = cluster_spanner.graph
    # Accept equal contractions built separately (contraction is deterministic).
    if other is not cg.graph and (other.n, other.edges) != (cg.graph.n, cg.graph.edges):
        raise InvalidClusteringError("cluster spanner does not match the contraction")
    ids = set(cg.clustering.all_tree_edges())
    ids.update(cg.witness[eid] for eid in cluster_spanner.ids)
    return EdgeSet(cg.base, frozenset(ids))
