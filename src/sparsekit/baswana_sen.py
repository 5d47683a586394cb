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
message-passing version reproduce the centralized run bit for bit.

The loop around the step is written once too: `run_iterations` runs g
sampled iterations, seeded or derandomized, and `final_pass` runs the
sample-nothing iteration and asserts that nothing survives it.  The
seeded, derandomized and linear-size spanners are built from these two.

The state's clusters live on a :class:`sparsekit.clustering.Forest`.  An
iteration copies its parent list, points each joiner at the other end of
its join edge and each dying node at -1, and lists a sampled cluster's
members before its joiners.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .clustering import Clustering, Forest
from .congest import Halt, LocalView, derived_coin, pack_bits, unpack_bits
from .errors import InvariantViolation, ParameterError
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
    graph: Graph
    iteration: int  # 1-based index of the NEXT iteration to run
    alive_edges: frozenset[int]
    clustering: Forest  # clusters of the alive nodes; a dead node has parent -1
    spanner: frozenset[int]
    dead_edges: Mapping[int, int]  # edge id -> iteration in which it died
    stats: IterationStats | None = None


def initial_state(graph: Graph) -> BSState:
    return BSState(
        graph=graph,
        iteration=1,
        alive_edges=frozenset(range(graph.m)),
        clustering=Forest.singletons(graph.n),
        spanner=frozenset(),
        dead_edges={},
    )


def cluster_entries(
    edges: Iterable[tuple[int, int, int]],
) -> tuple[list[tuple[int, int, int]], list[tuple[int, ...]]]:
    """A node's adjacent clusters, from its alive edges given as (root, weight, eid).

    `root` names the neighbor's cluster: its root, or any key that orders
    clusters as their roots do, such as the index into a forest.  Returns
    one entry (weight, root, eid) per cluster, holding the minimum
    (weight, eid) edge into it, sorted by (weight, root); and each
    entry's edge ids.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for root, w, eid in edges:
        groups.setdefault(root, []).append((w, eid))
    entries = []
    for root, pairs in groups.items():
        w, eid = min(pairs)
        entries.append((w, root, eid))
    entries.sort()  # roots are distinct, so this is (weight, root) order
    return entries, [tuple(eid for _, eid in groups[root]) for _, root, _ in entries]


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
    """One node's adjacent clusters, in `cluster_entries` order.

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
    clusters: tuple[int, ...]  # index into the forest's clusters, per entry
    eids: tuple[int, ...]  # minimum edge into the cluster, per entry
    edges_by_entry: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.weights)

    @cached_property
    def adds_if_first(self) -> tuple[int, ...]:
        """Edges added if position j holds the first sampled cluster."""
        return tuple(len(decide(self.weights, j)) for j in range(self.d))


def build_adjacency(state: BSState) -> dict[int, NodeAdjacency]:
    """Per-node adjacent-cluster view shared by all execution paths."""
    graph = state.graph
    label = state.clustering.labels()  # cluster indices order clusters by root
    views: dict[int, NodeAdjacency] = {}
    for v, own in enumerate(label):
        if own == -1:
            continue
        alive = []
        for eid in graph.adj[v]:
            if eid not in state.alive_edges:
                continue
            e = graph.edges[eid]
            cu = label[e.other(v)]
            if cu == -1:
                raise InvariantViolation(f"alive edge {eid} touches unclustered node {e.other(v)}")
            alive.append((cu, e.w, eid))
        entries, edges_by_entry = cluster_entries(alive)
        views[v] = NodeAdjacency(
            own=own,
            weights=tuple(w for w, _, _ in entries),
            clusters=tuple(cu for _, cu, _ in entries),
            eids=tuple(eid for _, _, eid in entries),
            edges_by_entry=tuple(edges_by_entry),
        )
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
    forest = state.clustering
    if len(samples) != len(forest.clusters):
        raise ParameterError(
            f"sample vector has {len(samples)} bits for {len(forest.clusters)} clusters"
        )
    graph = state.graph
    i = state.iteration
    if views is None:
        views = build_adjacency(state)

    added: set[int] = set()
    killed: set[int] = set()
    died: set[int] = set()
    parent = list(forest.parent)
    joiners: dict[int, list[int]] = {}  # cluster index -> joining nodes, ascending
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
            joiners.setdefault(view.clusters[first], []).append(v)

    new_forest = Forest(parent, [
        (root, members + joiners.get(idx, []))
        for idx, (root, members) in enumerate(forest.clusters) if samples[idx]
    ])
    if (radius := max(new_forest.radii(), default=0)) > i:
        raise InvariantViolation(f"iteration {i}: cluster radius {radius} exceeds {i}")

    dead_edges = dict(state.dead_edges)
    for eid in killed:
        dead_edges[eid] = i
    stats = IterationStats(added_per_node, adjacent_counts, frozenset(died))
    return BSState(
        graph=graph,
        iteration=i + 1,
        alive_edges=state.alive_edges - killed,
        clustering=new_forest,
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
        derived_coin(seed, root, state.iteration, p, salt)
        for root, _ in state.clustering.clusters
    )


def _schedule(n: int, k: int, deterministic: bool = False) -> tuple[Fraction, int]:
    """The sampling probability p of a k-iteration run on n nodes, and its
    number g of sampled iterations before the final pass.

    g = k - 1, except that the final pass alone does the work when p = 0
    (k = 1 or n <= 1), and when p = 1 for seeded coins: every cluster is
    then sampled, so an iteration changes nothing.  Bit fixing rejects
    p = 1 itself.
    """
    p = sampling_probability(n, k) if k >= 2 and n >= 2 else Fraction(0)
    return p, k - 1 if p and (p < 1 or deterministic) else 0


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
    for j in range(1, g + 1):
        views = build_adjacency(state)
        ctx = None
        if p == 0:
            samples: SampleVector = (False,) * len(state.clustering.clusters)
        elif deterministic:
            ctx = derand.UtilityContext.create(
                n=state.graph.n, iteration=j, p=p, g=g, weighted=state.graph.weighted, iota=iota
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
    if k < 1:
        raise ParameterError("k must be >= 1")
    p, g = _schedule(graph.n, k, deterministic)
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
    enforce_budget: bool = True,
) -> tuple[EdgeSet, Clustering, BSState]:
    """Run g sampled iterations at probability p on a fresh trivial partition.

    Returns the edges added during the run together with the surviving
    clustering (the g-partition the run ends with), for chaining into
    contraction-based pipelines.  `deterministic=True` replaces the coin
    flips with the conditional-expectation bit fixing from
    :mod:`sparsekit.derand`.
    """
    p = Fraction(p)
    if g < 0:
        raise ParameterError("g must be >= 0")
    if p != 0 and graph.n >= 2 and not (Fraction(1, graph.n) < p < 1):
        raise ParameterError(f"p={p} outside (1/n, 1)")
    state = run_iterations(
        initial_state(graph), g, p, seed,
        salt=salt, deterministic=deterministic, iota=iota, enforce_budget=enforce_budget,
    )
    return EdgeSet(graph, state.spanner), state.clustering.clustering(graph), state


# ---------------------------------------------------------------------------
# Distributed variant
# ---------------------------------------------------------------------------


@dataclass
class _BSNodeState:
    seed: int
    p: Fraction
    iteration: int  # next iteration to decide
    last: int  # the final pass's iteration
    root: int
    edge_root: dict[int, int]  # alive edge id -> current root of the other endpoint
    weights: dict[int, int]
    neighbor_of: dict[int, int]  # edge id -> neighbor node
    edge_of: dict[int, int]  # neighbor node -> edge id
    added: list[int]
    root_bits: int


class BaswanaSenProgram:
    """Message-passing (2k-1)-spanner; one decision per iteration.

    Per iteration every node locally derives the sample coin of its own
    and of each neighboring cluster from the shared seed and the cluster
    root ids (learned from the previous round's messages), so no
    broadcast along cluster trees is needed.  A coin is a pure function
    of its arguments, so the program derives each one once.  The step
    itself is `cluster_entries` and `decide`, the code `run_iteration`
    runs.  Each message packs a dead flag, an edge-kill flag, and the
    sender's new cluster root into 2 + ceil(log2 n) bits.  A node halts
    right after deciding the iteration in which it dies, so the sampled
    iterations of `_schedule` (k-1, or none at p = 1, as in `spanner`)
    take as many message rounds; each node outputs the sorted list of
    edge ids it added.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ParameterError("k must be >= 1")
        self.k = k
        self._coins: dict[tuple, bool] = {}
        self._schedules: dict[int, tuple[Fraction, int]] = {}

    def schedule(self, n: int) -> tuple[Fraction, int]:
        """`_schedule(n, k)`, derived once per node count rather than once per node."""
        if n not in self._schedules:
            self._schedules[n] = _schedule(n, self.k)
        return self._schedules[n]

    def _coin(self, seed: int, root: int, i: int, p: Fraction) -> bool:
        # p enters the key as two ints: hashing a Fraction costs more than the lookup saves.
        key = (seed, root, i, p.numerator, p.denominator, _COIN_SALT)
        coin = self._coins.get(key)
        if coin is None:
            coin = self._coins[key] = derived_coin(seed, root, i, p, _COIN_SALT)
        return coin

    def _decide(self, st: _BSNodeState) -> tuple[bool, set[int]]:
        """Decide the next iteration; returns (dead, killed edge ids)."""
        i = st.iteration
        st.iteration += 1
        sampling = i < st.last
        if sampling and self._coin(st.seed, st.root, i, st.p):
            return False, set()
        entries, edges_by_entry = cluster_entries(
            (root, st.weights[eid], eid) for eid, root in st.edge_root.items()
        )
        first = None  # never the own cluster's entry: its coin came up false
        if sampling:
            first = next(
                (j for j, (_, root, _) in enumerate(entries) if self._coin(st.seed, root, i, st.p)),
                None,
            )
        take = decide([w for w, _, _ in entries], first)
        kills = {eid for j in take for eid in edges_by_entry[j]}
        st.added.extend(entries[j][2] for j in take)
        for eid in kills:
            del st.edge_root[eid]
        if first is not None:
            st.root = entries[first][1]
        return first is None, kills

    def _advance(self, st: _BSNodeState):
        """Decide, send the outcome over every edge alive before it, halt when done."""
        targets = sorted(st.edge_root)
        dead, kills = self._decide(st)
        msgs = {
            st.neighbor_of[eid]: pack_bits(dead | (eid in kills) << 1 | st.root << 2, 2 + st.root_bits)
            for eid in targets
        }
        if dead or st.iteration > st.last:
            return None, msgs, Halt(sorted(st.added))
        return st, msgs, None

    # -- NodeProgram interface -------------------------------------------

    def init(self, view: LocalView, seed: int):
        p, g = self.schedule(view.n)
        st = _BSNodeState(
            seed=seed,
            p=p,
            iteration=1,
            last=g + 1,
            root=view.node,
            edge_root={eid: nb for eid, nb, _ in view.incident},
            weights={eid: w for eid, _, w in view.incident},
            neighbor_of={eid: nb for eid, nb, _ in view.incident},
            edge_of={nb: eid for eid, nb, _ in view.incident},
            added=[],
            root_bits=ceil_log2(max(view.n, 2)),
        )
        return self._advance(st)

    def step(self, st: _BSNodeState, view: LocalView, round_no: int, inbox: dict[int, bytes]):
        # Apply the neighbors' previous-iteration decisions.
        for sender, msg in inbox.items():
            eid = st.edge_of[sender]
            value = unpack_bits(msg)
            if value & 3:  # the neighbor died or killed this edge
                st.edge_root.pop(eid, None)
            elif eid in st.edge_root:
                st.edge_root[eid] = value >> 2
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
        max_rounds = program.schedule(graph.n)[1]
    trace = run(graph, program, budget_bits=budget_bits, max_rounds=max_rounds, seed=seed)
    ids: set[int] = set()
    for out in trace.outputs.values():
        ids.update(out)
    return EdgeSet(graph, frozenset(ids)), trace
