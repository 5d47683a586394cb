"""Deterministic weight-dominating O(t)-partitions with at most n/t clusters.

A cluster is *stretch-friendly* when every boundary edge of weight w
dominates all tree edges on the inside endpoint's root path, and every
inside edge of weight w dominates its tree path (see
:func:`sparsekit.verify.verify_stretch_friendly`).  This module builds a
stretch-friendly partition whose clusters all have at least t nodes
(radius < 3 * 2^ceil(log2 t)) in ceil(log2 t) rounds of: orient each
cluster's minimum-weight boundary edge outward, 3-color the resulting
out-degree-one cluster graph, compute a maximal matching between small
clusters greedily over the three color classes, and merge matched pairs
plus every unmatched small cluster into its out-neighbor's new cluster.
Merging along minimum boundary edges preserves stretch-friendliness,
which the tests re-check after every round.

Orienting minimum boundary edges (ties broken by edge id) can create
only mutual 2-cycles, never longer ones, but the coloring routine
handles arbitrary out-degree-one graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .clustering import Clustering, tree_height
from .errors import InvariantViolation, ParameterError
from .graph import Graph
from .verify import verify_stretch_friendly


# ---------------------------------------------------------------------------
# 3-coloring of out-degree-one graphs (Cole-Vishkin style)
# ---------------------------------------------------------------------------


def _cv_step(color: int, parent_color: int) -> int:
    diff = color ^ parent_color
    low = (diff & -diff).bit_length() - 1
    return 2 * low + ((color >> low) & 1)


def cv_rounds_needed(max_id: int) -> int:
    """Color-reduction rounds until every color drops below 6."""
    bits = max(max_id, 1).bit_length()
    rounds = 0
    while (1 << bits) - 1 >= 6:
        bits = _cv_step((1 << bits) - 1, 0).bit_length()
        rounds += 1
        if rounds > 64:  # log* of anything representable
            break
    return rounds + 2  # slack: bound above is per-value, not per-orbit


def color3(out: Mapping[int, int | None], ids: Mapping[int, int] | None = None) -> dict[int, int]:
    """Proper 3-coloring of a graph with out-degree at most one.

    `out` maps every node to its out-neighbor (or None for sinks); nodes
    without an out-edge only constrain their in-neighbors.  `ids`
    supplies initial unique colors (defaults to the node keys, which
    must then be distinct nonnegative ints).  Runs the iterated
    color-reduction plus three shift-and-recolor rounds, i.e.
    O(log* max_id) rounds when simulated distributedly.
    """
    nodes = sorted(out)
    colors = {v: (ids[v] if ids is not None else v) for v in nodes}
    if len(set(colors.values())) != len(nodes):
        raise ParameterError("initial colors must be unique")
    for v in nodes:
        tgt = out[v]
        if tgt is not None and colors[tgt] == colors[v]:
            raise ParameterError("out-edge with equal endpoint ids")

    while any(c >= 6 for c in colors.values()):
        colors = {
            v: _cv_step(colors[v], colors[out[v]] if out[v] is not None else colors[v] ^ 1)
            for v in nodes
        }

    for cls in (3, 4, 5):
        old = colors
        colors = {
            v: (old[out[v]] if out[v] is not None else (old[v] + 1) % 3) for v in nodes
        }
        shifted = dict(colors)
        for v in nodes:
            if shifted[v] != cls:
                continue
            forbidden = {old[v]}  # all children inherited this value
            if out[v] is not None:
                forbidden.add(colors[out[v]])
            colors[v] = min(c for c in (0, 1, 2) if c not in forbidden)

    for v in nodes:  # properness is cheap to re-check and load-bearing below
        tgt = out[v]
        if tgt is not None and colors[tgt] == colors[v]:
            raise InvariantViolation("3-coloring not proper")
        if colors[v] not in (0, 1, 2):
            raise InvariantViolation("color out of range")
    return colors


class Color3Program:
    """Distributed version of :func:`color3` for the round simulator.

    The orientation is global input (each node knows its out-neighbor);
    colors travel as plain integers.  Every node runs the same fixed
    round schedule derived from n, so no termination detection is
    needed: `cv_rounds_needed(n)` reduction rounds, then three
    shift+recolor rounds taking two message rounds each.
    """

    def __init__(self, out: Mapping[int, int | None]):
        self.out = dict(out)

    def _encode(self, color: int) -> bytes:
        return color.to_bytes(8, "little")

    def init(self, view, seed):
        from .congest import Halt

        me = view.node
        state = {
            "color": me,
            "phase": 0,
            "cv_left": cv_rounds_needed(view.n),
            "cls": 3,
            "old": None,
        }
        if not view.incident:  # isolated logical node: color 0 immediately
            return None, {}, Halt(0)
        out = {nb: self._encode(me) for _, nb, _ in view.incident}
        return state, out, None

    def step(self, state, view, round_no, inbox):
        from .congest import Halt

        colors_in = {s: int.from_bytes(m, "little") for s, m in inbox.items()}
        me = view.node
        tgt = self.out.get(me)
        pc = colors_in.get(tgt) if tgt is not None else None
        if state["phase"] == 0:
            state["color"] = _cv_step(
                state["color"], pc if pc is not None else state["color"] ^ 1
            )
            state["cv_left"] -= 1
            if state["cv_left"] == 0:
                state["phase"] = 1
        elif state["phase"] == 1:  # shift down
            state["old"] = state["color"]
            state["color"] = pc if pc is not None else (state["color"] + 1) % 3
            state["phase"] = 2
        else:  # recolor the current class, then move to the next
            if state["color"] == state["cls"]:
                forbidden = {state["old"]}
                if pc is not None:
                    forbidden.add(pc)
                state["color"] = min(c for c in (0, 1, 2) if c not in forbidden)
            state["cls"] += 1
            state["phase"] = 1 if state["cls"] <= 5 else 3
        if state["phase"] == 3:
            return None, {}, Halt(state["color"])
        out = {nb: self._encode(state["color"]) for _, nb, _ in view.incident}
        return state, out, None


# ---------------------------------------------------------------------------
# Work clusters and the per-round view
# ---------------------------------------------------------------------------


@dataclass
class TreeCluster:
    root: int
    members: set[int]
    parent: dict[int, int]

    def reroot(self, new_root: int) -> None:
        path = [new_root]
        while self.parent[path[-1]] != path[-1]:
            path.append(self.parent[path[-1]])
        for a, b in zip(path[1:], path):
            self.parent[a] = b
        self.parent[new_root] = new_root
        self.root = new_root

    def radius(self) -> int:
        reached, height = tree_height(self.root, self.parent)
        if reached != len(self.members):
            raise InvariantViolation("work cluster tree does not span its members")
        return height


@dataclass
class OrientedClusterView:
    """Per-round snapshot: sizes, chosen boundary edges, colors, partners."""

    sizes: list[int]
    # cluster -> (edge id, target cluster) or None when no boundary edge exists
    out: list[tuple[int, int] | None]
    small: list[bool]
    colors: dict[int, int] = field(default_factory=dict)
    partner: dict[int, int] = field(default_factory=dict)


def build_oriented_view(graph: Graph, clusters: list[TreeCluster], level: int) -> OrientedClusterView:
    """Steps (sizes + minimum boundary edge orientation) for one round.

    `level` is the 1-based round index: a cluster is small when its size
    is below 2**level.  The minimum boundary edge breaks ties by edge
    id, so two clusters can orient the same edge toward each other, but
    no longer orientation cycles can arise.
    """
    member: dict[int, int] = {}
    for idx, c in enumerate(clusters):
        for v in c.members:
            member[v] = idx
    best: list[tuple[int, int] | None] = [None] * len(clusters)  # (w, eid)
    for e in graph.edges:
        cu, cv = member[e.u], member[e.v]
        if cu == cv:
            continue
        for side in (cu, cv):
            if best[side] is None or (e.w, e.id) < best[side]:
                best[side] = (e.w, e.id)
    out: list[tuple[int, int] | None] = [None] * len(clusters)
    for idx, b in enumerate(best):
        if b is None:
            continue
        e = graph.edges[b[1]]
        target = member[e.v] if member[e.u] == idx else member[e.u]
        out[idx] = (b[1], target)
    sizes = [len(c.members) for c in clusters]
    small = [s < (1 << level) for s in sizes]
    return OrientedClusterView(sizes, out, small)


def match_small(view: OrientedClusterView, clusters: list[TreeCluster]) -> set[tuple[int, int]]:
    """Maximal matching over orientation edges between small clusters.

    Three sweeps, one per color class: every unmatched small cluster of
    the sweep's color proposes along its out-edge when the target is a
    small unmatched cluster; each target accepts its smallest proposer
    (by root id).  Proper coloring makes proposers and acceptors of one
    sweep disjoint, so the sweeps are conflict-free, and maximality
    follows because an unmatched small pair along an oriented edge would
    have produced a proposal.
    """
    active = [i for i, o in enumerate(view.out) if o is not None]
    view.colors = color3(
        {i: view.out[i][1] for i in active},
        ids={i: clusters[i].root for i in active},
    )
    matched: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for sweep in (0, 1, 2):
        proposals: dict[int, list[int]] = {}
        for c in active:
            if not view.small[c] or c in matched or view.colors[c] != sweep:
                continue
            _, tgt = view.out[c]
            if view.small[tgt] and tgt not in matched:
                proposals.setdefault(tgt, []).append(c)
        for tgt in sorted(proposals, key=lambda i: clusters[i].root):
            props = proposals[tgt]
            winner = min(props, key=lambda i: clusters[i].root)
            matched[winner] = tgt
            matched[tgt] = winner
            pairs.add((winner, tgt))  # oriented winner -> tgt
    for c in active:  # maximality is part of the contract
        if view.small[c] and c not in matched:
            _, tgt = view.out[c]
            if view.small[tgt] and tgt not in matched:
                raise InvariantViolation("matching not maximal")
    view.partner = matched
    return pairs


def merge_step(
    graph: Graph,
    clusters: list[TreeCluster],
    view: OrientedClusterView,
    pairs: set[tuple[int, int]],
) -> list[TreeCluster]:
    """Merge matched pairs, keep large clusters, absorb unmatched smalls.

    A merge along an edge oriented C1 -> C2 reroots C1's tree at its
    endpoint and hangs it below C2; the new root is C2's root.  Unmatched
    small clusters attach to the *new* cluster of their out-neighbor,
    which is matched or large by maximality.
    """
    new_of: dict[int, TreeCluster] = {}
    merged: list[TreeCluster] = []

    def attach(src: int, eid: int, target_cluster: TreeCluster) -> None:
        e = graph.edges[eid]
        u_src = e.u if e.u in clusters[src].members else e.v
        u_dst = e.other(u_src)
        if u_dst not in target_cluster.members:
            raise InvariantViolation("orientation edge does not reach the target cluster")
        piece = clusters[src]
        piece.reroot(u_src)
        target_cluster.members |= piece.members
        target_cluster.parent.update(piece.parent)
        target_cluster.parent[u_src] = u_dst

    for idx, c in enumerate(clusters):
        if view.out[idx] is None or not view.small[idx]:
            nc = TreeCluster(c.root, set(c.members), dict(c.parent))
            merged.append(nc)
            new_of[idx] = nc
    for winner, tgt in sorted(pairs, key=lambda p: clusters[p[1]].root):
        nc = TreeCluster(clusters[tgt].root, set(clusters[tgt].members), dict(clusters[tgt].parent))
        merged.append(nc)
        new_of[tgt] = nc
        eid, tgt2 = view.out[winner]
        if tgt2 != tgt:
            raise InvariantViolation("matched pair without its orientation edge")
        attach(winner, eid, nc)
        new_of[winner] = nc
    for idx in range(len(clusters)):
        if idx in new_of or view.out[idx] is None or not view.small[idx]:
            continue
        eid, tgt = view.out[idx]
        if tgt not in new_of:
            raise InvariantViolation("unmatched small cluster has no merge target")
        attach(idx, eid, new_of[tgt])
        new_of[idx] = new_of[tgt]
    merged.sort(key=lambda c: c.root)
    return merged


# ---------------------------------------------------------------------------
# The partition driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionReport:
    rounds: int
    cluster_sizes: tuple[int, ...]
    max_radius: int
    # components smaller than t that necessarily ended as one undersized cluster
    undersized_components: tuple[tuple[int, ...], ...]


def partition_with_report(
    graph: Graph, t: int, *, verify_each_round: bool = False
) -> tuple[Clustering, PartitionReport]:
    """Stretch-friendly partition with cluster size >= t (see module doc).

    Connected inputs with n >= t end with at most n/t clusters, each of
    size at least 2**ceil(log2 t) >= t and radius below 3 * 2**ceil(log2 t).
    Components smaller than t collapse into single clusters and are
    flagged in the report.
    """
    if t < 1:
        raise ParameterError("t must be >= 1")
    clusters = [TreeCluster(v, {v}, {v: v}) for v in range(graph.n)]
    rounds = max(t - 1, 0).bit_length()  # ceil(log2 t)
    for level in range(1, rounds + 1):
        view = build_oriented_view(graph, clusters, level)
        pairs = match_small(view, clusters)
        clusters = merge_step(graph, clusters, view, pairs)
        bound = 3 * (1 << level)
        for c in clusters:
            if c.radius() >= bound:
                raise InvariantViolation(f"round {level}: radius {c.radius()} >= {bound}")
        if verify_each_round:
            interim = Clustering.from_parent_maps(
                graph, [(c.root, c.parent) for c in clusters]
            )
            rep = verify_stretch_friendly(graph, interim)
            if not rep.ok:
                raise InvariantViolation(f"round {level}: {rep}")
    clustering = Clustering.from_parent_maps(graph, [(c.root, c.parent) for c in clusters])
    comps = graph.components()
    comp_clusters = [{clustering.membership[v] for v in comp} for comp in comps]
    undersized = tuple(
        tuple(comp) for comp, cids in zip(comps, comp_clusters) if len(comp) < t and len(cids) == 1
    )
    for comp, cids in zip(comps, comp_clusters):
        if len(comp) >= t:
            for ci in cids:
                if len(clustering.clusters[ci].members) < t:
                    raise InvariantViolation(
                        f"component with {len(comp)} nodes kept a cluster of size "
                        f"{len(clustering.clusters[ci].members)} < t={t}"
                    )
    report = PartitionReport(
        rounds,
        tuple(len(c.members) for c in clustering.clusters),
        clustering.max_radius(),
        undersized,
    )
    return clustering, report


def partition(graph: Graph, t: int, *, verify_each_round: bool = False) -> Clustering:
    return partition_with_report(graph, t, verify_each_round=verify_each_round)[0]
