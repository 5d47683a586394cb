"""Spanners from separated low-diameter clusterings (hop metric).

`carve_clustering` produces a t-separated strong-diameter clustering of
at least half the nodes: repeatedly take the smallest unprocessed node,
grow a BFS ball in the remaining graph until the t-padded ball is less
than twice the ball (so each carve discards less than it clusters and
the radius stays below t*log2 n), emit the ball, and delete the padded
ball.  Deleted annuli can hide full-metric shortcuts between later
clusters, so each candidate is additionally checked — by exact BFS in
the carve's input graph — to be more than t away from every emitted
cluster, and demoted to sacrificed otherwise; separation therefore
holds by construction and the remaining guarantees are asserted.  Every
hop distance here (balls, guards, separation checks, root
eccentricities, Steiner-tree sweeps) comes from `Graph.bfs`.

`grow_and_cut` turns the carve into a complete clustering plus a small
set of inter-cluster edges: each step carves a 10t-separated clustering
of the still-unclustered subgraph, grows every cluster C to the
smallest cutting distance j < 4t at which C^{+j} has at most |C|/t
neighboring nodes (clusters without one are "bad" and wait for a later
step), and records one bridge edge per (outside node, new cluster)
pair.  The five step invariants — diameter, geometric decay of the
unclustered set, ledger size, bridged neighboring clusters, and
per-node witnesses — plus the 1/5 bad-mass bound are named runtime
assertions; the diameter invariant is checked for each cluster once when
it is created, via 2·ecc(root) with an exact fallback.

`ldc_sparse_spanner` = cluster trees + bridge ledger: at most
n + ceil(n/t) edges, stretch on the order of the cluster diameter.
`weak_diameter_spanner` generalizes to clusterings whose clusters carry
Steiner trees (weak diameter) with bounded average overlap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Mapping

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .clustering import Clustering
from .errors import InvalidClusteringError, InvariantViolation, ParameterError
from .graph import EdgeSet, Graph
from .rational import ceil_log2


def _induced_diameter(graph: Graph, members: frozenset[int]) -> int:
    """Exact hop diameter of graph[members]: all-sources BFS in scipy,
    256 sources at a time, so memory stays at 256 * |members| floats."""
    index = {v: i for i, v in enumerate(sorted(members))}
    k = len(index)
    pairs = [(i, index[y]) for v, i in index.items() for _, y, _ in graph.neighbors(v) if y in index]
    rows, cols = zip(*pairs) if pairs else ((), ())
    csr = csr_matrix(([1] * len(pairs), (rows, cols)), shape=(k, k))
    best = 0
    for lo in range(0, k, 256):
        far = shortest_path(csr, directed=False, unweighted=True, indices=range(lo, min(lo + 256, k))).max()
        if math.isinf(far):
            raise InvariantViolation("cluster not connected in its induced subgraph")
        best = max(best, int(far))
    return best


def _bfs_parents(
    graph: Graph, root: int, members: frozenset[int], dist: Mapping[int, int]
) -> dict[int, int]:
    """BFS-tree parent map of graph[members]: each node points to its
    smallest neighbor one level closer to `root` (`dist` covers members)."""
    return {
        u: u if u == root else min(
            y for _, y, _ in graph.neighbors(u) if y in members and dist[y] == dist[u] - 1
        )
        for u in members
    }


# ---------------------------------------------------------------------------
# Separated strong-diameter clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparatedClustering:
    """Pairwise > t_sep separated clusters covering at least half the nodes."""

    clustering: Clustering
    t_sep: int
    universe: frozenset[int]  # the node set the carve ran on
    demoted: int  # candidates dropped by the full-metric separation guard
    graph: Graph

    @cached_property
    def diameters(self) -> tuple[int, ...]:
        """Exact induced diameter per cluster, computed on first use."""
        return tuple(_induced_diameter(self.graph, c.members) for c in self.clustering.clusters)

    def validate(self, graph: Graph) -> None:
        member = self.clustering.membership
        for i, c in enumerate(self.clustering.clusters):
            reach = graph.bfs(c.members, nodes=self.universe, depth=self.t_sep)
            near = [member[v] for v in reach if member.get(v, i) > i]
            if near:
                raise InvariantViolation(f"clusters {i} and {min(near)} are within distance {self.t_sep}")
        if 2 * sum(len(c.members) for c in self.clustering.clusters) < len(self.universe):
            raise InvariantViolation("carve clustered fewer than half the nodes")


def diameter_cap(n: int, t_sep: int) -> int:
    """The carve's strong-diameter guarantee D(n, t) = 2 t log2 n."""
    return 2 * t_sep * max(1, ceil_log2(max(n, 2)))


def carve_clustering(
    graph: Graph, t_sep: int, nodes: Iterable[int] | None = None
) -> SeparatedClustering:
    """Sequential guarded ball-carving (see module docstring)."""
    if t_sep < 1:
        raise ParameterError("t_sep must be >= 1")
    universe = frozenset(range(graph.n) if nodes is None else nodes)
    remaining = set(universe)
    r_cap = t_sep * max(1, ceil_log2(max(len(universe), 2)))
    emitted: list[tuple[int, dict[int, int]]] = []  # (root, parent map)
    ecc: dict[int, int] = {}  # root -> eccentricity in its cluster
    clustered: set[int] = set()
    demoted = 0

    while remaining:
        v = min(remaining)
        dist = graph.bfs((v,), nodes=remaining)
        layers = Counter(dist.values())
        ball = list(accumulate(layers[r] for r in range(len(layers))))  # ball[r] = |B(v, r)|
        reach = len(ball) - 1
        r_star = next(r for r in range(reach + 1) if ball[min(r + t_sep, reach)] < 2 * ball[r])
        if r_star > r_cap:
            raise InvariantViolation(f"carve radius {r_star} exceeds cap {r_cap}")
        members = frozenset(u for u, d in dist.items() if d <= r_star)
        # Full-metric guard: the candidate must sit > t_sep from every
        # emitted cluster within the carve's input graph.
        guard = graph.bfs(members, nodes=universe, depth=t_sep)
        if any(u in clustered for u in guard):
            demoted += 1
        else:
            emitted.append((v, _bfs_parents(graph, v, members, dist)))
            ecc[v] = r_star
            clustered |= members
        remaining -= {u for u, d in dist.items() if d <= r_star + t_sep}

    emitted.sort(key=lambda rc: rc[0])
    clustering = Clustering.from_parent_maps(graph, emitted)
    if 2 * len(clustered) < len(universe):
        raise InvariantViolation(
            f"coverage {len(clustered)}/{len(universe)} below one half"
        )
    # diam <= 2 ecc(root) <= 2 r_cap = the cap, so the exact diameter runs
    # only if that certificate fails, which a correct run never sees.
    diam_bound = diameter_cap(len(universe), t_sep)
    for c in clustering.clusters:
        if 2 * ecc[c.root] > diam_bound and (d := _induced_diameter(graph, c.members)) > diam_bound:
            raise InvariantViolation(f"cluster diameter {d} exceeds {diam_bound}")
    result = SeparatedClustering(clustering, t_sep, universe, demoted, graph)
    result.validate(graph)
    return result


# ---------------------------------------------------------------------------
# Grow-and-cut: complete clustering + inter-cluster edge ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterEdgeLedger:
    edges: frozenset[int]
    witness: Mapping[tuple[int, int], int]  # (node, cluster index) -> edge id


@dataclass(frozen=True)
class GrowCutStep:
    unclustered_before: int
    carved: int
    bad_mass: int
    grown: int
    demoted: int


def _check_step_invariants(
    graph: Graph,
    t: int,
    clusters: list[tuple[int, dict[int, int], frozenset[int]]],
    ledger_witness: dict[tuple[int, int], int],
    unclustered: set[int],
    diam_bound: int,
    base: int,
) -> None:
    member: dict[int, int] = {}
    for idx, (_, _, members) in enumerate(clusters):
        for u in members:
            member[u] = idx
    # (1) diameter of the clusters added this step (clusters[:base] never
    # change).  diam <= 2 ecc(root) by the triangle inequality, so the
    # exact check runs only when that certificate fails, which a correct
    # run never sees: ecc <= r_carve + j <= 10t*ceil(log n) + 4t - 1, so
    # 2 ecc < diameter_cap(n, 10t) + 10t.
    for idx, (root, _, members) in enumerate(clusters[base:], base):
        dist = graph.bfs((root,), nodes=members)
        if len(dist) == len(members) and 2 * max(dist.values()) <= diam_bound:
            continue
        if _induced_diameter(graph, members) > diam_bound:
            raise InvariantViolation(f"invariant 1: cluster {idx} diameter exceeds {diam_bound}")
    # (3) ledger size against covered mass
    covered = sum(len(m) for _, _, m in clusters)
    if len(set(ledger_witness.values())) * t > covered:
        raise InvariantViolation("invariant 3: ledger larger than covered/t")
    # (4) every neighboring cluster pair bridged, (5) unclustered witnesses
    bridged: set[tuple[int, int]] = set()
    for (v, cid), eid in ledger_witness.items():
        cu = member.get(graph.edges[eid].u)
        cv = member.get(graph.edges[eid].v)
        if cu is not None and cv is not None and cu != cv:
            bridged.add((min(cu, cv), max(cu, cv)))
    for e in graph.edges:
        cu, cv = member.get(e.u), member.get(e.v)
        if cu is not None and cv is not None and cu != cv:
            if (min(cu, cv), max(cu, cv)) not in bridged:
                raise InvariantViolation(f"invariant 4: clusters {cu},{cv} not bridged")
        for x, cx in ((e.u, cv), (e.v, cu)):
            if x in unclustered and cx is not None and (x, cx) not in ledger_witness:
                raise InvariantViolation(f"invariant 5: no witness for node {x}, cluster {cx}")


def grow_and_cut(graph: Graph, t: int) -> tuple[Clustering, InterEdgeLedger]:
    """Complete clustering plus inter-cluster ledger (see module docstring).
    The clustering's `report` is the tuple of `GrowCutStep`s, one per step."""
    if t < 1:
        raise ParameterError("t must be >= 1")
    n = graph.n
    unclustered = set(range(n))
    clusters: list[tuple[int, dict[int, int], frozenset[int]]] = []  # (root, parents, members)
    witness: dict[tuple[int, int], int] = {}
    steps: list[GrowCutStep] = []
    diam_bound = diameter_cap(n, 10 * t) + 10 * t
    step_cap = math.ceil(1 + math.log(max(n, 2)) / math.log(10 / 7)) + 1

    while unclustered:
        if len(steps) >= step_cap:
            raise InvariantViolation("grow_and_cut exceeded its step budget")
        vi = frozenset(unclustered)
        carve = carve_clustering(graph, 10 * t, nodes=vi)
        bad_mass = 0
        grown = 0
        new_local: list[tuple[int, dict[int, int], frozenset[int]]] = []
        for c in carve.clustering.clusters:
            dist = graph.bfs(c.members, nodes=vi, depth=4 * t)
            layer = Counter(dist.values())
            # Cutting distance j is good when C^{+j} has at most |C|/t
            # neighboring nodes in G_i, i.e. layer[j+1] * t <= |C|.
            good_j = next(
                (j for j in range(4 * t) if layer[j + 1] * t <= len(c.members)), None
            )
            if good_j is None:
                bad_mass += len(c.members)
                continue
            members = frozenset(u for u, d in dist.items() if d <= good_j)
            tree_dist = graph.bfs((c.root,), nodes=members)
            if len(tree_dist) != len(members):
                raise InvariantViolation("grown cluster not connected")
            new_local.append((c.root, _bfs_parents(graph, c.root, members, tree_dist), members))
            grown += len(members)
        if 5 * bad_mass > len(vi):
            raise InvariantViolation(
                f"bad-mass bound: {bad_mass} > {len(vi)}/5 nodes in bad clusters"
            )
        new_member: dict[int, int] = {}
        for li, (_, _, members) in enumerate(new_local):
            for u in members:
                if u in new_member:
                    raise InvariantViolation("grown clusters overlap")
                new_member[u] = li
        base = len(clusters)
        clusters.extend(new_local)
        # Bridge edges: one per (still-outside node of G_i, new cluster).
        best: dict[tuple[int, int], int] = {}
        for e in graph.edges:
            for v, u in ((e.u, e.v), (e.v, e.u)):
                if v in vi and v not in new_member and u in new_member:
                    key = (v, base + new_member[u])
                    if key not in best or e.id < best[key]:
                        best[key] = e.id
        witness.update(best)
        unclustered -= set(new_member)
        if unclustered and 10 * len(unclustered) > 7 * len(vi):
            raise InvariantViolation(
                f"invariant 2: unclustered shrank {len(vi)} -> {len(unclustered)}"
            )
        _check_step_invariants(graph, t, clusters, witness, unclustered, diam_bound, base)
        steps.append(GrowCutStep(len(vi), carve.clustering.covered(), bad_mass, grown, carve.demoted))

    order = sorted(range(len(clusters)), key=lambda i: clusters[i][0])
    rank = {old: new for new, old in enumerate(order)}
    clustering = replace(
        Clustering.from_parent_maps(graph, [clusters[i][:2] for i in order]), report=tuple(steps)
    )
    ledger = InterEdgeLedger(
        frozenset(witness.values()),
        {(v, rank[cid]): eid for (v, cid), eid in witness.items()},
    )
    if len(ledger.edges) * t > n:
        raise InvariantViolation("final ledger exceeds n/t")
    return clustering, ledger


# ---------------------------------------------------------------------------
# Spanners
# ---------------------------------------------------------------------------


def ldc_sparse_spanner(graph: Graph, t: int) -> EdgeSet:
    """Unweighted spanner with at most n + ceil(n/t) edges.

    Cluster trees plus the bridge ledger; stretch is O(diameter) and is
    certified a posteriori by the callers via verify_stretch against
    2*(D(n,10t) + 10t) + 1.
    """
    if graph.m and any(e.w != graph.edges[0].w for e in graph.edges):
        raise ParameterError("hop-metric spanner needs uniform edge weights")
    clustering, ledger = grow_and_cut(graph, t)
    ids = set(clustering.all_tree_edges()) | set(ledger.edges)
    out = EdgeSet(graph, frozenset(ids))
    if len(out) > graph.n + math.ceil(graph.n / t):
        raise InvariantViolation(
            f"spanner has {len(out)} edges, cap {graph.n + math.ceil(graph.n / t)}"
        )
    return out


def stretch_bound_ldc(n: int, t: int) -> int:
    """Certified stretch cap for ldc_sparse_spanner: tree-bridge-tree paths."""
    return 2 * (diameter_cap(n, 10 * t) + 10 * t) + 1


# -- weak-diameter generalization -------------------------------------------


@dataclass(frozen=True)
class WeakCluster:
    members: frozenset[int]
    tree_nodes: frozenset[int]  # may contain Steiner nodes outside `members`
    tree_edges: frozenset[int]


ClusteringPrimitive = Callable[[Graph, frozenset[int]], list[WeakCluster]]


def strong_primitive(t_sep: int = 3) -> ClusteringPrimitive:
    """Adapter: the strong-diameter carve as a weak-diameter primitive
    (every tree is the cluster's own BFS tree, overlap exactly 1)."""

    def prim(graph: Graph, alive: frozenset[int]) -> list[WeakCluster]:
        carve = carve_clustering(graph, t_sep, nodes=alive)
        return [
            WeakCluster(c.members, c.members, c.tree_edges)
            for c in carve.clustering.clusters
        ]

    return prim


def _validate_weak(graph: Graph, alive: frozenset[int], cs: list[WeakCluster]) -> dict[int, int]:
    """Check the primitive's output; returns node -> index of its cluster."""
    member: dict[int, int] = {}
    for i, wc in enumerate(cs):
        if not wc.members or not wc.members <= alive or not wc.tree_nodes <= alive:
            raise InvalidClusteringError("weak cluster leaves the alive node set")
        if wc.members & member.keys():
            raise InvalidClusteringError("weak clusters overlap")
        member.update(dict.fromkeys(wc.members, i))
        if not wc.members <= wc.tree_nodes:
            raise InvalidClusteringError("tree does not contain its cluster")
        if len(wc.tree_edges) != len(wc.tree_nodes) - 1:
            raise InvalidClusteringError("T_C is not a tree")
        for eid in wc.tree_edges:
            e = graph.edges[eid]
            if e.u not in wc.tree_nodes or e.v not in wc.tree_nodes:
                raise InvalidClusteringError("tree edge leaves its node set")
        # edge count + reach along the tree edges = connected tree
        if graph.bfs((next(iter(wc.tree_nodes)),), edges=wc.tree_edges).keys() != wc.tree_nodes:
            raise InvalidClusteringError("T_C is not connected")
    if 2 * len(member) < len(alive):
        raise InvalidClusteringError("primitive clustered fewer than half the nodes")
    # 3-separation inside graph[alive]: no later cluster within 2 hops
    for i, wc in enumerate(cs):
        if any(member.get(v, i) > i for v in graph.bfs(wc.members, nodes=alive, depth=2)):
            raise InvalidClusteringError("primitive clustering is not 3-separated")
    return member


def _tree_diameter(graph: Graph, wc: WeakCluster) -> int:
    """Double sweep along the (validated) tree edges."""

    def far(start: int) -> tuple[int, int]:
        dist = graph.bfs((start,), edges=wc.tree_edges)
        return max(dist.items(), key=lambda vd: (vd[1], vd[0]))

    a, _ = far(next(iter(wc.tree_nodes)))
    return far(a)[1]


def weak_diameter_spanner(
    graph: Graph,
    primitive: ClusteringPrimitive | None = None,
) -> EdgeSet:
    """Sparse spanner from any 3-separated weak-diameter clustering routine.

    Rounds of: cluster at least half the still-unclustered nodes, add
    every T_C edge, then one edge per (unclustered node, neighboring
    cluster) — unique by 3-separation.  Total size is bounded by the
    measured overlaps: sum over rounds of (sum_v xi(v) + |unclustered|).
    The result's `report` is {"rounds", "size_budget", "max_tree_diameter"}.
    """
    if primitive is None:
        primitive = strong_primitive()
    alive = frozenset(range(graph.n))
    ids: set[int] = set()
    rounds = 0
    size_budget = 0
    max_diam = 0
    while alive:
        rounds += 1
        if rounds > 2 * ceil_log2(max(graph.n, 2)) + 4:
            raise InvariantViolation("weak-diameter rounds exceeded 2 log n")
        cs = primitive(graph, alive)
        member = _validate_weak(graph, alive, cs)
        for wc in cs:
            ids.update(wc.tree_edges)
            max_diam = max(max_diam, _tree_diameter(graph, wc))
        size_budget += sum(len(wc.tree_nodes) for wc in cs) + len(alive)
        for v in sorted(alive - set(member)):
            touched: dict[int, int] = {}
            for eid in graph.adj[v]:
                u = graph.edges[eid].other(v)
                if u in member:
                    cid = member[u]
                    if cid not in touched or eid < touched[cid]:
                        touched[cid] = eid
            if len(touched) > 1:
                raise InvariantViolation("node neighbors two 3-separated clusters")
            ids.update(touched.values())
        alive = frozenset(alive - set(member))
    if len(ids) > size_budget:
        raise InvariantViolation("spanner exceeded its overlap budget")
    report = {"rounds": rounds, "size_budget": size_budget, "max_tree_diameter": max_diam}
    return EdgeSet(graph, frozenset(ids), report)
