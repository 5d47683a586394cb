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
Orienting minimum boundary edges (ties broken by edge id) can create
only mutual 2-cycles, never longer ones, but the coloring routine
handles arbitrary out-degree-one graphs.

Between rounds the clusters are a :class:`sparsekit.clustering.Clustering`,
the structure the Baswana-Sen iterations grow their clusters in too: one
parent list over all nodes.  A round (:func:`merge_step`) copies the
parent list, reroots each attached piece along its root path below the
other endpoint of its edge, and builds the next clustering from the
list.  Merging along minimum boundary edges preserves
stretch-friendliness, which the tests re-check by stepping `merge_step`
and running `verify_stretch_friendly` on the clustering after every
round.

A round reads only the clustering and its level, and ceil(log2 2t) =
ceil(log2 t) + 1, so :func:`partitions` yields the partitions for t, 2t,
4t, ... from one run with one new round per doubling, redoing only the
closing size check and report; `partition` is its first item.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .clustering import Clustering
from .congest import Halt
from .errors import InvariantViolation, ParameterError, check_int
from .graph import Graph, first_per_key


# ---------------------------------------------------------------------------
# 3-coloring of out-degree-one graphs (Cole-Vishkin style).  Each step is one
# pure function shared by `color3` and `Color3Program`; `parent_color` is the
# out-neighbor's color, or None for a sink.
# ---------------------------------------------------------------------------


def _cv_step(color: int, parent_color: int | None = None) -> int:
    """Color reduction: the lowest bit where `color` differs from the
    out-neighbor's color, and its own bit there (a sink compares against
    its color with the low bit flipped)."""
    diff = color ^ (color ^ 1 if parent_color is None else parent_color)
    low = (diff & -diff).bit_length() - 1
    return 2 * low + ((color >> low) & 1)


def _shift_down(color: int, parent_color: int | None = None) -> int:
    """Take the out-neighbor's color; a sink takes (color + 1) % 3, which
    differs from the color its in-neighbors now hold."""
    return (color + 1) % 3 if parent_color is None else parent_color


def _recolor(cls: int, color: int, old: int, parent_color: int | None = None) -> int:
    """After a shift, move a node of color `cls` into {0, 1, 2}, avoiding
    its pre-shift color `old` (all its in-neighbors inherited it) and its
    out-neighbor's current color."""
    if color != cls:
        return color
    return min(c for c in (0, 1, 2) if c != old and c != parent_color)


def cv_rounds_needed(max_id: int) -> int:
    """Color-reduction rounds until every color drops below 6 (a color
    below 2**b becomes at most 2b - 1), plus two spare rounds, which keep
    a proper coloring below 6 proper and below 6."""
    top, rounds = max(max_id, 1), 0
    while top >= 6:
        top, rounds = 2 * top.bit_length() - 1, rounds + 1
    return rounds + 2


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
        if tgt is not None and tgt not in colors:
            raise ParameterError(f"out-neighbor {tgt} of {v} is not a node")
        if tgt is not None and colors[tgt] == colors[v]:
            raise ParameterError("out-edge with equal endpoint ids")

    # colors.get(None) is None, the parent color of a sink
    while any(c >= 6 for c in colors.values()):
        colors = {v: _cv_step(colors[v], colors.get(out[v])) for v in nodes}
    for cls in (3, 4, 5):
        shifted = {v: _shift_down(colors[v], colors.get(out[v])) for v in nodes}
        colors = {v: _recolor(cls, shifted[v], colors[v], shifted.get(out[v])) for v in nodes}

    for v in nodes:  # properness is cheap to re-check and load-bearing below
        tgt = out[v]
        if tgt is not None and colors[tgt] == colors[v]:
            raise InvariantViolation("3-coloring not proper")
        if colors[v] not in (0, 1, 2):
            raise InvariantViolation("color out of range")
    return colors


class Color3Program:
    """Distributed version of :func:`color3` for the round simulator.

    The orientation is global input (each node knows its out-neighbor,
    which must be adjacent); colors travel as plain integers.  Every
    node runs the same fixed round schedule derived from n, so no
    termination detection is needed: `cv_rounds_needed(n)` reduction
    rounds, then three shift+recolor rounds taking two message rounds
    each.  The state is (color, color before the last shift).
    """

    def __init__(self, out: Mapping[int, int | None]):
        self.out = dict(out)

    def init(self, view, seed):
        tgt = self.out.get(view.node)
        if tgt is not None and all(nb != tgt for _, nb, _ in view.incident):
            raise ParameterError(f"out-neighbor {tgt} of node {view.node} is not adjacent")
        if not view.incident:  # isolated logical node: color 0 immediately
            return None, {}, Halt(0)
        return (view.node, None), self._send(view, view.node), None

    def step(self, state, view, round_no, inbox):
        color, old = state
        tgt = self.out.get(view.node)
        pc = int.from_bytes(inbox[tgt], "little") if tgt in inbox else None
        j = round_no - cv_rounds_needed(view.n) - 1  # < 0: reduce; even: shift; odd: recolor 3 + j // 2
        if j < 0:
            color = _cv_step(color, pc)
        elif j % 2 == 0:
            color, old = _shift_down(color, pc), color
        else:
            color = _recolor(3 + j // 2, color, old, pc)
            if j == 5:
                return None, {}, Halt(color)
        return (color, old), self._send(view, color), None

    @staticmethod
    def _send(view, color: int) -> dict[int, bytes]:
        return {nb: color.to_bytes(8, "little") for _, nb, _ in view.incident}


# ---------------------------------------------------------------------------
# One round on the parent list
# ---------------------------------------------------------------------------


def orient(graph: Graph, label: Sequence[int], count: int) -> list[tuple[int, int] | None]:
    """Each cluster's minimum (w, id) boundary edge as (edge id, target
    cluster), or None without one; `label` maps node -> cluster index."""
    ends, _, order = graph.arrays
    pairs = np.array(label, np.int64)[ends[order]]  # the clusters of both ends, in (w, id) order
    cross = pairs[:, 0] != pairs[:, 1]
    pairs, eids = pairs[cross], order[cross]
    # candidate 2r + s: boundary edge r from its end s's cluster, so (w, id) order holds
    keys, first = first_per_key(pairs.ravel())
    rows = first // 2
    best = dict(zip(keys.tolist(), zip(eids[rows].tolist(), pairs[rows, 1 - first % 2].tolist())))
    return [best.get(c) for c in range(count)]


def match_small(out: list[tuple[int, int] | None], small: list[bool], roots: list[int]) -> dict[int, int]:
    """Maximal matching over orientation edges between small clusters,
    as winner -> target.

    Three sweeps, one per color class: every unmatched small cluster of
    the sweep's color proposes along its out-edge when the target is a
    small unmatched cluster; each target accepts its smallest proposer
    (by index, which orders clusters by root).  Proper coloring makes
    proposers and acceptors of one sweep disjoint, so the sweeps are
    conflict-free, and maximality follows because an unmatched small
    pair along an oriented edge would have produced a proposal.
    """
    active = [i for i, o in enumerate(out) if o is not None]
    colors = color3({i: out[i][1] for i in active}, ids={i: roots[i] for i in active})
    winners: dict[int, int] = {}
    matched: set[int] = set()

    def open_pair(c: int) -> bool:  # c and its target both small and unmatched
        tgt = out[c][1]
        return small[c] and small[tgt] and c not in matched and tgt not in matched

    for sweep in (0, 1, 2):
        proposals: dict[int, list[int]] = {}
        for c in active:
            if colors[c] == sweep and open_pair(c):
                proposals.setdefault(out[c][1], []).append(c)
        for tgt, props in proposals.items():
            winners[props[0]] = tgt  # proposers arrive in ascending index
            matched |= {props[0], tgt}
    if any(open_pair(c) for c in active):  # maximality is part of the contract
        raise InvariantViolation("matching not maximal")
    return winners


def _hang(parent: list[int], v: int, below: int) -> None:
    """Reroot v's tree at v by reversing its root path, then hang v below `below`."""
    prev = below
    while parent[v] != v:
        parent[v], prev, v = prev, v, parent[v]
    parent[v] = prev


def merge_step(graph: Graph, clustering: Clustering, level: int) -> Clustering:
    """One round at 1-based `level` (small means size < 2**level):
    orient, match, merge; returns the next clustering.

    A merge along an edge oriented C1 -> C2 reroots C1's tree at its
    endpoint and hangs it below the other endpoint; the merged cluster
    keeps C2's root.  Matched winners join their targets, and every
    unmatched small cluster joins its out-neighbor's new cluster, which
    is matched or large by maximality.  Raises unless every new tree
    spans its members with radius below 3 * 2**level.
    """
    label = clustering.label
    roots = [c.root for c in clustering.clusters]
    out = orient(graph, label, len(roots))
    small = [len(c.members) < (1 << level) for c in clustering.clusters]
    winners = match_small(out, small, roots)
    matched = set(winners) | set(winners.values())
    loose = [c for c, o in enumerate(out) if o is not None and small[c] and c not in matched]
    if any(small[out[c][1]] and out[c][1] not in matched for c in loose):
        raise InvariantViolation("unmatched small cluster has no merge target")

    parent = list(clustering.parent)
    for c, tgt in [*winners.items(), *((c, out[c][1]) for c in loose)]:
        e = graph.edges[out[c][0]]
        u_src, u_dst = (e.u, e.v) if label[e.u] == c else (e.v, e.u)
        if label[u_src] != c or label[u_dst] != tgt:
            raise InvariantViolation("orientation edge does not reach the target cluster")
        _hang(parent, u_src, u_dst)
    merged = Clustering(graph, parent)
    bound = 3 * (1 << level)
    if (radius := merged.max_radius()) >= bound:
        raise InvariantViolation(f"round {level}: radius {radius} >= {bound}")
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


def partitions(graph: Graph, t: int) -> Iterator[Clustering]:
    """partition(graph, t), partition(graph, 2t), ... resumed round by round (see module doc)."""
    t = check_int("t", t, lo=1)
    clustering, done, components = Clustering.singletons(graph), 0, graph.components()
    while True:
        rounds = max(t - 1, 0).bit_length()  # ceil(log2 t)
        for level in range(done + 1, rounds + 1):
            clustering = merge_step(graph, clustering, level)
        done = rounds
        sizes = tuple(len(c.members) for c in clustering.clusters)
        undersized = []
        for comp in components:
            cids = {clustering.label[v] for v in comp}
            if len(comp) < t and len(cids) == 1:
                undersized.append(tuple(comp))
            for ci in cids if len(comp) >= t else ():
                if sizes[ci] < t:
                    raise InvariantViolation(
                        f"component with {len(comp)} nodes kept a cluster of size {sizes[ci]} < t={t}"
                    )
        report = PartitionReport(rounds, sizes, clustering.max_radius(), tuple(undersized))
        yield clustering.with_report(report)
        t *= 2


def partition(graph: Graph, t: int) -> Clustering:
    """Stretch-friendly partition with cluster size >= t (see module doc).

    Connected inputs with n >= t end with at most n/t clusters, each of
    size at least 2**ceil(log2 t) >= t and radius below 3 * 2**ceil(log2 t).
    Components smaller than t collapse into single clusters and are
    flagged in the `PartitionReport` that rides on the result's `report`.
    """
    return next(partitions(graph, t))
