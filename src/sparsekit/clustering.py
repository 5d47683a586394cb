"""Rooted-tree clusterings and cluster-graph contraction.

A cluster is a set of nodes carrying a rooted spanning tree made of
graph edges; its radius is the maximum hop count from a member to the
root along parent pointers (weights play no role in radii).  A
clustering is a set of disjoint clusters; a partition additionally
covers every node.  Contracting a graph along a clustering yields the
cluster graph: one node per cluster, one edge per neighboring cluster
pair, weighted by the minimum original edge weight between the pair and
remembering a witness edge that achieves it.

Clusters under construction, in the Baswana-Sen iterations and in the
stretch-friendly partition's rounds, live on one :class:`Forest`: a
parent list over all nodes, in which a root points to itself and an
unclustered (dead) node holds -1, plus each cluster's root and member
list.  A `Clustering` is built from a forest only where a caller needs
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .errors import InvalidClusteringError, InvariantViolation
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


def tree_height(root: int, children: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]) -> tuple[list, int]:
    """(nodes reached, height) of the tree hanging below `root`, walked
    down level by level; `children[v]` lists v's children.  Nodes on a
    cycle are never reached, so the walk ends unless `root` is on one."""
    reached, height, frontier = [root], 0, [root]
    while frontier := [c for v in frontier for c in children[v]]:
        reached += frontier
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
    children: dict[int, list[int]] = {v: [] for v in members}
    for v, p in parent.items():
        if v == root:
            continue
        if p not in members:
            raise InvalidClusteringError(f"cluster {cluster_id}: parent of {v} outside cluster")
        eid = graph.edge_between(v, p)
        if eid is None:
            raise InvalidClusteringError(f"cluster {cluster_id}: no edge between {v} and parent {p}")
        tree_edges.add(eid)
        children[p].append(v)
    reached, radius = tree_height(root, children)
    if len(reached) != len(members):
        raise InvalidClusteringError(f"cluster {cluster_id}: parent pointers do not reach all members")
    return Cluster(cluster_id, root, members, dict(parent), frozenset(tree_edges), radius)


@dataclass(frozen=True)
class Clustering:
    clusters: tuple[Cluster, ...]
    membership: Mapping[int, int]  # node -> index into clusters; absent = unclustered
    # output only: how the construction that returned it ran
    report: Any = field(default=None, compare=False, repr=False)

    @classmethod
    def from_parent_maps(cls, graph: Graph, parts: Iterable[tuple[int, Mapping[int, int]]]) -> "Clustering":
        """Build from (root, parent_map) pairs; cluster ids follow input order."""
        clusters = tuple(build_cluster(graph, i, root, parent) for i, (root, parent) in enumerate(parts))
        membership: dict[int, int] = {}
        for c in clusters:
            for v in c.members:
                if v in membership:
                    raise InvalidClusteringError(f"node {v} in two clusters")
                membership[v] = c.cluster_id
        return cls(clusters, membership)

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
class Forest:
    """Clusters under construction: `parent` over all nodes (a root
    points to itself, an unclustered node holds -1) and each cluster's
    (root, members), in ascending root order, so cluster indices order
    clusters by root."""

    parent: list[int]
    clusters: list[tuple[int, list[int]]]

    @classmethod
    def singletons(cls, n: int) -> "Forest":
        return cls(list(range(n)), [(v, [v]) for v in range(n)])

    def labels(self) -> list[int]:
        """node -> index of its cluster, or -1 for an unclustered node."""
        label = [-1] * len(self.parent)
        for idx, (_, members) in enumerate(self.clusters):
            for v in members:
                label[v] = idx
        return label

    def radii(self) -> list[int]:
        """Each cluster's tree height; raises unless every tree spans
        exactly its members."""
        label = self.labels()
        children: list[list[int]] = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if p != v and p != -1:
                children[p].append(v)
        radii = []
        for idx, (root, members) in enumerate(self.clusters):
            if self.parent[root] != root:
                raise InvariantViolation(f"cluster root {root} is not a fixed point")
            reached, height = tree_height(root, children)
            if len(reached) != len(members) or any(label[v] != idx for v in reached):
                raise InvariantViolation(f"cluster tree of root {root} does not span its members")
            radii.append(height)
        return radii

    def clustering(self, graph: Graph) -> Clustering:
        return Clustering.from_parent_maps(
            graph, [(root, {v: self.parent[v] for v in members}) for root, members in self.clusters]
        )


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
