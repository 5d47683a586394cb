"""Clustering-based (2k-1)-spanner construction.

The randomized construction of Baswana and Sen runs k iterations over a
shrinking set of alive nodes organized into rooted clusters.  Each
iteration samples clusters, lets every node either stay put (own
cluster sampled), join the cheapest sampled adjacent cluster (adding
the joining edge plus every strictly lighter cluster-minimum edge), or
die (adding one minimum edge per adjacent cluster).  Whenever a node
adds an edge toward a cluster, all its edges into that cluster die; a
dying node additionally kills every remaining incident edge.  An edge
that dies in iteration i is covered by a spanner path of stretch at
most 2i-1, so after the final (sample-nothing) iteration the
accumulated edges form a (2k-1)-spanner.

Everything after the sampling step is deterministic, and one node's
step is written once: `cluster_entries` groups the node's alive edges
into one minimum-edge entry per adjacent cluster, and `decide` picks the
entries whose edges it adds.  The seeded and derandomized runs call
them through `build_adjacency` and `run_iteration`, the derandomized
utility reads `NodeAdjacency.adds_if_first`, and the message-passing
`BaswanaSenProgram` calls them directly.  Cluster sampling coins are
derived per (seed, cluster root, iteration), which is what lets the
message-passing version reproduce the centralized run bit for bit; its
nodes share one record per run, which derives each coin once.

The loop around the step is written once too: `run_iterations` runs g
sampled iterations, seeded or derandomized, and `final_pass` runs the
sample-nothing iteration and asserts that nothing survives it.  The
seeded, derandomized and linear-size spanners are built from these two.

The state's clusters are a :class:`sparsekit.clustering.Clustering`.  An
iteration copies its parent list, points each joiner at the other end of
its join edge and each dying node at -1, and builds the next clustering
from that list; the sampled clusters keep their roots, so cluster indices
keep ordering clusters by root.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .clustering import Clustering
from .congest import Halt, LocalView, derived_coin, pack_bits, unpack_bits
from .errors import SEED_RANGE, InvariantViolation, ParameterError, check_int, check_rational
from .graph import EdgeSet, Graph
from .rational import ceil_log2, sampling_probability

SampleVector = tuple[bool, ...]

_COIN_SALT = b"bs-sample"


# ---------------------------------------------------------------------------
# State and per-node adjacency views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationStats:
    added_per_node: Mapping[int, int]
    adjacent_counts: Mapping[int, int]  # adjacent-cluster count d(v), own included
    died: frozenset[int]


@dataclass(frozen=True)
class BSState:
    iteration: int  # 1-based index of the NEXT iteration to run
    alive_edges: frozenset[int]
    clustering: Clustering  # clusters of the alive nodes, on the run's graph; a dead node has parent -1
    spanner: frozenset[int]
    dead_edges: Mapping[int, int]  # edge id -> iteration in which it died
    stats: IterationStats | None = None


def initial_state(graph: Graph) -> BSState:
    return BSState(
        iteration=1,
        alive_edges=frozenset(range(graph.m)),
        clustering=Clustering.singletons(graph),
        spanner=frozenset(),
        dead_edges={},
    )


def cluster_entries(
    edges: Iterable[tuple[int, int, int]],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, ...]]]:
    """A node's adjacent clusters, from its alive edges given as (weight, root, eid).

    `root` names the neighbor's cluster: its root, or any key that orders
    clusters as their roots do, such as a cluster index.  Returns
    one entry (weight, root, eid) per cluster, holding the minimum
    (weight, eid) edge into it, sorted by (weight, root); and each
    entry's edge ids.

    One sort groups the edges: in (weight, root, eid) order a root first
    appears at its minimum (weight, eid), and roots are distinct, so first
    appearances come in (weight, root) order.  An entry's ids come out in
    (weight, eid) order; `run_iteration` and the program read them only
    as a set.
    """
    entries, ids = [], {}
    for w, root, eid in sorted(edges):
        if root in ids:
            ids[root].append(eid)
        else:
            ids[root] = [eid]
            entries.append((w, root, eid))
    return entries, [tuple(ids[root]) for _, root, _ in entries]


def decide(weights: Sequence[int], first: int | None) -> list[int]:
    """Positions of the entries whose minimum edge a node adds.

    `weights` are the entry weights in (weight, root) order and `first`
    is the position of the first sampled entry, if any.  A node that
    joins that cluster adds its edge plus the edge of every strictly
    lighter entry; a node with no sampled entry dies and adds them all.
    """
    if first is None:
        return list(range(len(weights)))
    return [*range(bisect_left(weights, weights[first])), first]


@dataclass(frozen=True)
class NodeAdjacency:
    """One node's adjacent clusters, in `cluster_entries` order: by (weight, cluster index).

    A cluster is adjacent when it contains a neighbor — the node's own
    cluster included, which matters: a node joining a sampled cluster
    through an edge of weight w also adds (and thereby kills) its
    minimum edges into every strictly lighter adjacent cluster, its own
    one included, and that is exactly what keeps the next clustering's
    alive boundary edges heavier than the new tree edge.  The own entry
    is never a join target — in the branch where the node acts at all,
    its own bit is unsampled by definition.
    """

    own: int  # index of the node's cluster
    weights: tuple[int, ...]
    clusters: tuple[int, ...]  # cluster index, per entry
    eids: tuple[int, ...]  # minimum edge into the cluster, per entry
    edges_by_entry: tuple[tuple[int, ...], ...]  # alive edges into the cluster, in (weight, id) order

    @property
    def d(self) -> int:
        return len(self.weights)

    @cached_property
    def adds_if_first(self) -> tuple[int, ...]:
        """Edges added if position j holds the first sampled cluster."""
        return tuple(len(decide(self.weights, j)) for j in range(self.d))


def build_adjacency(state: BSState) -> dict[int, NodeAdjacency]:
    """Per-node adjacent-cluster view shared by all execution paths."""
    graph = state.clustering.graph
    label = state.clustering.label  # cluster indices order clusters by root
    alive: list[list[tuple[int, int, int]]] = [[] for _ in label]  # (weight, other end's label, eid)
    for eid in state.alive_edges:
        _, u, v, w = graph.edges[eid]
        alive[u].append((w, label[v], eid))
        alive[v].append((w, label[u], eid))
    views: dict[int, NodeAdjacency] = {}
    for v, own in enumerate(label):
        if own == -1:
            continue
        entries, edges_by_entry = cluster_entries(alive[v])
        weights, clusters, eids = zip(*entries) if entries else ((), (), ())
        if -1 in clusters:  # the first such edge in (node, edge id) order is named
            eid = min(edges_by_entry[clusters.index(-1)])
            _, a, b, _ = graph.edges[eid]
            raise InvariantViolation(f"alive edge {eid} touches unclustered node {a + b - v}")
        views[v] = NodeAdjacency(own, weights, clusters, eids, tuple(edges_by_entry))
    return views


# ---------------------------------------------------------------------------
# One iteration, deterministic given the sample vector
# ---------------------------------------------------------------------------


def run_iteration(
    state: BSState,
    samples: SampleVector,
    *,
    views: Mapping[int, NodeAdjacency] | None = None,
) -> BSState:
    """Apply one iteration under the given per-cluster sample bits."""
    clustering = state.clustering
    if len(samples) != len(clustering.clusters):
        raise ParameterError(f"sample vector has {len(samples)} bits for {len(clustering.clusters)} clusters")
    graph = clustering.graph
    i = state.iteration
    if views is None:
        views = build_adjacency(state)

    added: set[int] = set()
    killed: set[int] = set()
    died: set[int] = set()
    parent = list(clustering.parent)
    added_per_node: dict[int, int] = {}
    adjacent_counts: dict[int, int] = {}

    for v in sorted(views):
        view = views[v]
        adjacent_counts[v] = view.d
        if samples[view.own]:
            added_per_node[v] = 0
            continue
        first = next((j for j, c in enumerate(view.clusters) if samples[c]), None)
        take = decide(view.weights, first)
        for j in take:
            added.add(view.eids[j])
            killed.update(view.edges_by_entry[j])
        added_per_node[v] = len(take)
        if first is None:
            died.add(v)
            parent[v] = -1
        else:
            parent[v] = graph.edges[view.eids[first]].other(v)

    clustering = Clustering(graph, parent)
    if (radius := clustering.max_radius()) > i:
        raise InvariantViolation(f"iteration {i}: cluster radius {radius} exceeds {i}")

    dead_edges = dict(state.dead_edges)
    for eid in killed:
        dead_edges[eid] = i
    stats = IterationStats(added_per_node, adjacent_counts, frozenset(died))
    return BSState(
        iteration=i + 1,
        alive_edges=state.alive_edges - killed,
        clustering=clustering,
        spanner=state.spanner | added,
        dead_edges=dead_edges,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Full constructions
# ---------------------------------------------------------------------------


def random_samples(state: BSState, p: Fraction, seed: int, salt: bytes = _COIN_SALT) -> SampleVector:
    """Independent Bernoulli(p) bit per cluster, derived from the root id."""
    return tuple(
        derived_coin(seed, c.root, state.iteration, p, salt)
        for c in state.clustering.clusters
    )


def _schedule(n: int, k: int) -> tuple[Fraction, int]:
    """The sampling probability p of a k-iteration run on n nodes, and its
    number g of sampled iterations before the final pass.

    g = k - 1, except that the final pass alone does the work when p = 0
    (k = 1 or n <= 1) or p = 1: every cluster is then sampled, so an
    iteration changes nothing.  Seeded coins, bit fixing and the simulator
    share this rule.
    """
    p = sampling_probability(n, k) if k >= 2 and n >= 2 else Fraction(0)
    return p, k - 1 if 0 < p < 1 else 0


def run_iterations(
    state: BSState,
    g: int,
    p: Fraction,
    seed: int = 0,
    *,
    salt: bytes = _COIN_SALT,
    deterministic: bool = False,
    iota: int = 64,
    enforce_budget: bool = True,
) -> BSState:
    """The g sampled iterations of one run at probability p, from `state`:
    seeded coins, or :mod:`sparsekit.derand` bit fixing if `deterministic`."""
    from . import derand  # imports this module, so it cannot be imported at the top
    graph = state.clustering.graph
    for j in range(1, g + 1):
        views = build_adjacency(state)
        ctx = None
        if p == 0:
            samples: SampleVector = (False,) * len(state.clustering.clusters)
        elif deterministic:
            ctx = derand.UtilityContext.create(
                n=graph.n, iteration=j, p=p, g=g, weighted=graph.weighted, iota=iota
            )
            samples = derand.fix_bits(state, ctx, enforce_target=enforce_budget, views=views)
        else:
            samples = random_samples(state, p, seed, salt)
        state = run_iteration(state, samples, views=views)
        if ctx is not None and enforce_budget:
            derand.check_objectives(state, ctx)
    return state


def final_pass(state: BSState) -> BSState:
    """The sample-nothing iteration: every alive node dies, so nothing may survive."""
    state = run_iteration(state, (False,) * len(state.clustering.clusters))
    if state.clustering.clusters or state.alive_edges:
        raise InvariantViolation("nodes or edges survived the final iteration")
    return state


def _spanner(graph: Graph, k: int, seed: int = 0, *, deterministic: bool = False, **sampler) -> EdgeSet:
    """The sampled iterations of `_schedule(n, k)`, then the final pass."""
    k, seed = check_int("k", k, lo=1), check_int("seed", seed, **SEED_RANGE)
    p, g = _schedule(graph.n, k)
    state = run_iterations(initial_state(graph), g, p, seed, deterministic=deterministic, **sampler)
    return EdgeSet(graph, final_pass(state).spanner)


def spanner(graph: Graph, k: int, seed: int = 0) -> EdgeSet:
    """Randomized (2k-1)-spanner with expected O(nk + n^(1+1/k) log k) edges
    (unweighted; O(n^(1+1/k) k) weighted)."""
    return _spanner(graph, k, seed)


def run_g_iterations(
    graph: Graph,
    g: int,
    p: Fraction | int,
    seed: int = 0,
    *,
    deterministic: bool = False,
    iota: int = 64,
    salt: bytes = _COIN_SALT,
) -> tuple[EdgeSet, Clustering, BSState]:
    """Run g sampled iterations at probability p on a fresh trivial partition.

    Returns the edges added during the run together with the surviving
    clustering (the g-partition the run ends with), for chaining into
    contraction-based pipelines.  `deterministic=True` replaces the coin
    flips with the conditional-expectation bit fixing from
    :mod:`sparsekit.derand`.
    """
    g, seed, iota = check_int("g", g, lo=0), check_int("seed", seed, **SEED_RANGE), check_int("iota", iota, lo=1)
    if (p := check_rational("p", p, lo=0, hi=1, open_hi=True)) and graph.n >= 2:  # p = 0 samples nothing
        check_rational("p", p, lo=Fraction(1, graph.n), open_lo=True)
    state = run_iterations(initial_state(graph), g, p, seed, salt=salt, deterministic=deterministic, iota=iota)
    return EdgeSet(graph, state.spanner), state.clustering, state


# ---------------------------------------------------------------------------
# Distributed variant
# ---------------------------------------------------------------------------


@dataclass
class _BSRun:
    """What every node of one run shares, and the coins derived so far."""

    seed: int
    p: Fraction
    last: int  # the final pass's iteration
    bits: int  # message width: dead flag, kill flag, root
    coins: dict[tuple[int, int], bool]  # (cluster root, iteration) -> sampled

    def coin(self, root: int, i: int) -> bool:
        coin = self.coins.get((root, i))
        if coin is None:
            coin = self.coins[root, i] = derived_coin(self.seed, root, i, self.p, _COIN_SALT)
        return coin


@dataclass
class _BSNodeState:
    run: _BSRun
    iteration: int  # next iteration to decide
    root: int
    alive: dict[int, tuple[int, int, int]]  # neighbor -> (weight, its root, edge id), per alive edge
    added: list[int]


class BaswanaSenProgram:
    """Message-passing (2k-1)-spanner; one decision per iteration.

    Per iteration every node locally derives the sample coin of its own
    and of each neighboring cluster from the shared seed and the cluster
    root ids (learned from the previous round's messages), so no
    broadcast along cluster trees is needed.  The nodes of a run share
    one record: its seed, p, final pass and message width, and a table of
    its coins keyed (root, iteration), so each coin is derived once per
    run.  The program keeps only the latest record, reused while (n, seed),
    all that a record depends on, repeats.  The step itself is
    `cluster_entries` and `decide`, the code `run_iteration` runs.  Each
    message packs a dead flag, an edge-kill flag, and the sender's new
    cluster root into 2 + ceil(log2 n) bits.  A node halts right after
    deciding the iteration in which it dies, so the sampled iterations of
    `_schedule` (k-1, or none at p = 1, as in `spanner`) take as many
    message rounds; each node outputs the sorted list of edge ids it added.
    """

    def __init__(self, k: int):
        self.k = check_int("k", k, lo=1)
        self._key: tuple[int, int] | None = None  # (n, seed) of `_run`
        self._run: _BSRun | None = None

    def _record(self, n: int, seed: int) -> _BSRun:
        """The record of a run on n nodes under `seed`, made when (n, seed) changes."""
        if self._key != (n, seed):
            p, g = _schedule(n, self.k)
            self._key, self._run = (n, seed), _BSRun(seed, p, g + 1, 2 + ceil_log2(max(n, 2)), {})
        return self._run

    def _decide(self, st: _BSNodeState) -> tuple[bool, set[int]]:
        """Decide the next iteration; returns (dead, killed edge ids)."""
        i, run = st.iteration, st.run
        st.iteration += 1
        sampling = i < run.last
        if sampling and run.coin(st.root, i):
            return False, set()
        entries, edges_by_entry = cluster_entries(st.alive.values())
        first = None  # never the own cluster's entry: its coin came up false
        if sampling:
            first = next((j for j, (_, root, _) in enumerate(entries) if run.coin(root, i)), None)
        take = decide([w for w, _, _ in entries], first)
        kills = {eid for j in take for eid in edges_by_entry[j]}
        st.added.extend(entries[j][2] for j in take)
        st.alive = {nb: edge for nb, edge in st.alive.items() if edge[2] not in kills}
        if first is not None:
            st.root = entries[first][1]
        return first is None, kills

    def _advance(self, st: _BSNodeState):
        """Decide, send the outcome over every edge alive before it, halt when done."""
        alive = st.alive  # `_decide` rebinds st.alive when it kills edges
        dead, kills = self._decide(st)
        kept, killed = (pack_bits(dead | kill << 1 | st.root << 2, st.run.bits) for kill in (0, 1))
        msgs = {nb: killed if eid in kills else kept for nb, (_, _, eid) in alive.items()}
        if dead or st.iteration > st.run.last:
            return None, msgs, Halt(sorted(st.added))
        return st, msgs, None

    # -- NodeProgram interface -------------------------------------------

    def init(self, view: LocalView, seed: int):
        alive = {nb: (w, nb, eid) for eid, nb, w in view.incident}
        return self._advance(_BSNodeState(self._record(view.n, seed), 1, view.node, alive, []))

    def step(self, st: _BSNodeState, view: LocalView, round_no: int, inbox: dict[int, bytes]):
        # Apply the neighbors' previous-iteration decisions.
        alive = st.alive
        for sender, msg in inbox.items():
            value = unpack_bits(msg)
            if value & 3:  # the neighbor died or killed this edge
                alive.pop(sender, None)
            elif sender in alive:
                w, _, eid = alive[sender]
                alive[sender] = (w, value >> 2, eid)
        return self._advance(st)


def run_distributed_spanner(
    graph: Graph,
    k: int,
    seed: int = 0,
    *,
    budget_bits: int | None = None,
    max_rounds: int | None = None,
):
    """Simulate the distributed spanner; returns (EdgeSet, RoundTrace).

    `max_rounds` defaults to the program's own bound: one round per
    sampled iteration.
    """
    from .congest import run

    program = BaswanaSenProgram(k)
    if max_rounds is None:
        max_rounds = program._record(graph.n, seed).last - 1
    trace = run(graph, program, budget_bits=budget_bits, max_rounds=max_rounds, seed=seed)
    ids: set[int] = set()
    for out in trace.outputs.values():
        ids.update(out)
    return EdgeSet(graph, frozenset(ids)), trace
