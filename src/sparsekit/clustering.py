"""Rooted-tree clusterings and cluster-graph contraction.

A cluster is a set of nodes carrying a rooted spanning tree made of
graph edges; its radius is the maximum hop count from a member to the
root along parent pointers (weights play no role in radii).  A
clustering is a set of disjoint clusters; a partition additionally
covers every node.  Contracting a graph along a clustering yields the
cluster graph: one node per cluster, one edge per neighboring cluster
pair, weighted by the minimum original edge weight between the pair and
remembering a witness edge that achieves it.

Every construction holds its clusters in one immutable `Clustering`: a
parent list over all nodes, in which a root points to itself and an
unclustered node holds -1.  Its only constructor validates the list
against the graph and derives the rest from it in one walk.  The
Baswana-Sen iterations, the stretch-friendly rounds and the LDC carve
each build a new one per step; contraction and the stretch-friendly
oracle read it once they have checked that it was built on their graph.
Contraction keeps, per cluster pair, the first edge in (weight, id)
order by the graph's one first-edge-per-key kernel.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .errors import InvalidClusteringError
from .graph import EdgeSet, Graph, first_per_key


def require_same_graph(graph: Graph, expected: Graph, message: str, error=InvalidClusteringError) -> None:
    """Raise error(message) unless `graph` is `expected` or equal to it in (n, edges)."""
    if graph is not expected and (graph.n, graph.edges) != (expected.n, expected.edges):
        raise error(message)


# The tree edges of every single-node cluster, shared so that a clustering
# of n singletons allocates n frozensets fewer for the garbage collector.
_NO_EDGES: frozenset[int] = frozenset()


class Cluster(NamedTuple):
    """One cluster of a `Clustering`, derived from its parent list."""

    root: int
    members: frozenset[int]
    radius: int  # the tree's height in hops
    tree_edges: frozenset[int]  # the edge from each non-root member to its parent


@dataclass(frozen=True)
class Clustering:
    """Disjoint rooted clusters of `graph`, given by `parent` over all nodes
    (a root points to itself, an unclustered node holds -1).

    Construction raises InvalidClusteringError unless `parent` has one
    entry per node, every entry is a node or -1, every non-root's link to
    its parent is a graph edge, no node hangs below an unclustered node,
    and every parent chain ends at a root (no cycle).  It then derives
    `label` (cluster index per node, -1 when unclustered), `depth` (hops
    to the root, -1 when unclustered) and `clusters`, in ascending root
    order.
    """

    graph: Graph
    parent: tuple[int, ...]
    label: tuple[int, ...] = field(init=False, compare=False, repr=False)
    depth: tuple[int, ...] = field(init=False, compare=False, repr=False)
    clusters: tuple[Cluster, ...] = field(init=False, compare=False)
    # output only: how the construction that returned it ran
    report: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        graph, parent = self.graph, tuple(self.parent)
        n = graph.n
        if len(parent) != n:
            raise InvalidClusteringError(f"parent list has {len(parent)} entries for {n} nodes")
        roots, children = [], {}  # children lists for inner nodes only
        up = [-1] * n  # the edge from each non-root clustered node to its parent
        for v, p in enumerate(parent):
            if p == v:
                roots.append(v)
            elif p != -1:
                if not 0 <= p < n:
                    raise InvalidClusteringError(f"parent {p} of node {v} is not a node")
                if parent[p] == -1:
                    raise InvalidClusteringError(f"node {v} hangs below unclustered node {p}")
                if (eid := graph.adj[v].get(p)) is None:
                    raise InvalidClusteringError(f"no edge between node {v} and its parent {p}")
                children.setdefault(p, []).append(v)
                up[v] = eid
        label, depth, clusters = [-1] * n, [-1] * n, []
        for idx, root in enumerate(roots):  # each tree level by level from its root
            label[root], depth[root] = idx, 0
            members, tree, frontier, d = [root], [], children.get(root, ()), 0
            while frontier:
                d += 1
                members += frontier
                nxt = []
                for c in frontier:
                    label[c], depth[c] = idx, d
                    tree.append(up[c])
                    nxt += children.get(c, ())
                frontier = nxt
            clusters.append((root, frozenset(members), d, frozenset(tree) if tree else _NO_EDGES))
        if label.count(-1) != parent.count(-1):  # some clustered node is below no root
            raise InvalidClusteringError("parent pointers do not reach all members: a cycle")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "label", tuple(label))
        object.__setattr__(self, "depth", tuple(depth))
        object.__setattr__(self, "clusters", tuple(map(Cluster._make, clusters)))

    @classmethod
    def singletons(cls, graph: Graph) -> "Clustering":
        return cls(graph, range(graph.n))

    def with_report(self, report: Any) -> "Clustering":
        """This clustering carrying `report`, without validating it again."""
        out = copy.copy(self)
        object.__setattr__(out, "report", report)
        return out

    def __len__(self) -> int:
        return len(self.clusters)

    def covered(self) -> int:
        return len(self.parent) - self.parent.count(-1)

    def is_partition(self, graph: Graph) -> bool:
        return self.covered() == graph.n

    def max_radius(self) -> int:
        return max((c.radius for c in self.clusters), default=0)

    def all_tree_edges(self) -> frozenset[int]:
        return frozenset(eid for c in self.clusters for eid in c.tree_edges)


@dataclass(frozen=True)
class ClusterGraph:
    """Contraction of `clustering.graph` along `clustering`.

    `graph` is the contracted simple graph whose node i stands for
    clustering.clusters[i]; `witness[eid]` is the base edge achieving the
    (minimum) weight of contracted edge eid.
    """

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
    Unclustered nodes are dropped.  `graph` must be the clustering's
    graph or equal to it; the clustering was validated on that graph
    when it was built and cannot have changed since.
    """
    require_same_graph(graph, clustering.graph, "clustering was built on another graph")
    ends, w, order = graph.arrays
    label, base = np.array(clustering.label, np.int64), max(len(clustering.clusters), 1)
    cu, cv = label[ends[order]].T
    cross = (cu != cv) & (cu != -1) & (cv != -1)
    keys, first = first_per_key(np.minimum(cu, cv)[cross] * base + np.maximum(cu, cv)[cross])
    witness = order[cross][first].tolist()  # the minimum (w, id) edge per cluster pair
    lo, hi = np.divmod(keys, base)
    edges = zip(lo.tolist(), hi.tolist(), [w[eid] for eid in witness])
    cg = Graph(len(clustering.clusters), edges, weighted=graph.weighted, weight_cap=graph.weight_cap)
    return ClusterGraph(clustering, cg, tuple(witness))


def compose_spanner(cg: ClusterGraph, cluster_spanner: EdgeSet) -> EdgeSet:
    """Lift a spanner of the contraction `cg.graph` back to the clustering's graph.

    Returns the union of the tree edges of `cg.clustering`, which must be
    a partition, with the witnesses of the chosen cluster-graph edges.
    When the clustering is a stretch-friendly r-partition and the
    cluster-graph subgraph is an alpha-spanner of the contraction, the
    result is a ((2r+1)(alpha+1) - 1)-spanner of the base graph.
    """
    base = cg.clustering.graph
    if not cg.clustering.is_partition(base):
        raise InvalidClusteringError("compose_spanner requires a partition")
    # Accept equal contractions built separately (contraction is deterministic).
    require_same_graph(cluster_spanner.graph, cg.graph, "cluster spanner does not match the contraction")
    ids = set(cg.clustering.all_tree_edges())
    ids.update(cg.witness[eid] for eid in cluster_spanner.ids)
    return EdgeSet(base, frozenset(ids))
