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

Everything after the sampling step is deterministic, so the same
iteration engine serves the seeded, the derandomized, and the
distributed variants.  Cluster sampling coins are derived per
(seed, cluster root, iteration), which is what lets the message-passing
version reproduce the centralized run bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .clustering import Cluster, Clustering
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
    survivor_added: int
    dead_added: int


@dataclass(frozen=True)
class BSState:
    graph: Graph
    iteration: int  # 1-based index of the NEXT iteration to run
    alive: frozenset[int]
    alive_edges: frozenset[int]
    clustering: Clustering  # partition of the alive nodes
    spanner: frozenset[int]
    dead_edges: Mapping[int, int]  # edge id -> iteration in which it died
    stats: IterationStats | None = None


def initial_state(graph: Graph) -> BSState:
    return BSState(
        graph=graph,
        iteration=1,
        alive=frozenset(range(graph.n)),
        alive_edges=frozenset(range(graph.m)),
        clustering=Clustering.trivial(graph),
        spanner=frozenset(),
        dead_edges={},
    )


@dataclass(frozen=True)
class AdjEntry:
    weight: int
    root: int
    cluster: int  # index into the clustering
    eid: int  # minimum edge from the node into this cluster


@dataclass(frozen=True)
class NodeAdjacency:
    """One node's adjacent clusters, in processing order.

    A cluster is adjacent when it contains a neighbor — the node's own
    cluster included, which matters: a node joining a sampled cluster
    through an edge of weight w also adds (and thereby kills) its
    minimum edges into every strictly lighter adjacent cluster, its own
    one included, and that is exactly what keeps the next clustering's
    alive boundary edges heavier than the new tree edge.

    Entries are sorted by (minimum edge weight, cluster root); the
    minimum edge per cluster breaks ties by edge id.  `adds_if_first[j]`
    is the number of edges added if position j holds the first sampled
    cluster: the joining edge plus every strictly lighter entry.  The
    own entry (position `own_position`, if the node has alive neighbors
    inside its own cluster) is never a join target — in the branch where
    the node acts at all, its own bit is unsampled by definition.
    """

    own: int
    entries: tuple[AdjEntry, ...]
    edges_by_entry: tuple[tuple[int, ...], ...]
    adds_if_first: tuple[int, ...]
    own_position: int | None

    @property
    def d(self) -> int:
        return len(self.entries)


def build_adjacency(state: BSState) -> dict[int, NodeAdjacency]:
    """Per-node adjacent-cluster view shared by all execution paths."""
    graph = state.graph
    member = state.clustering.membership
    clusters = state.clustering.clusters
    views: dict[int, NodeAdjacency] = {}
    for v in state.alive:
        groups: dict[int, list[int]] = {}
        own = member[v]
        for eid in graph.adj[v]:
            if eid not in state.alive_edges:
                continue
            u = graph.edges[eid].other(v)
            cu = member.get(u)
            if cu is None:
                raise InvariantViolation(f"alive edge {eid} touches unclustered node {u}")
            groups.setdefault(cu, []).append(eid)
        entries: list[AdjEntry] = []
        for cu, eids in groups.items():
            best = min(eids, key=lambda i: (graph.edges[i].w, i))
            entries.append(AdjEntry(graph.edges[best].w, clusters[cu].root, cu, best))
        entries.sort(key=lambda a: (a.weight, a.root))
        weights = [a.weight for a in entries]
        adds = tuple(1 + bisect_left(weights, a.weight) for a in entries)
        own_position = next((j for j, a in enumerate(entries) if a.cluster == own), None)
        views[v] = NodeAdjacency(
            own=own,
            entries=tuple(entries),
            edges_by_entry=tuple(tuple(sorted(groups[a.cluster])) for a in entries),
            adds_if_first=adds,
            own_position=own_position,
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
    clusters = state.clustering.clusters
    if len(samples) != len(clusters):
        raise ParameterError(
            f"sample vector has {len(samples)} bits for {len(clusters)} clusters"
        )
    graph = state.graph
    i = state.iteration
    if views is None:
        views = build_adjacency(state)

    added: set[int] = set()
    killed: set[int] = set()
    died: set[int] = set()
    joiners: dict[int, list[tuple[int, int]]] = {}  # cluster idx -> [(node, parent)]
    added_per_node: dict[int, int] = {}
    adjacent_counts: dict[int, int] = {}
    survivor_added = 0
    dead_added = 0

    for v in sorted(state.alive):
        view = views[v]
        adjacent_counts[v] = view.d
        if samples[view.own]:
            added_per_node[v] = 0
            continue
        first = next((j for j, a in enumerate(view.entries) if samples[a.cluster]), None)
        if first is not None:
            target = view.entries[first]
            take = [
                j
                for j, a in enumerate(view.entries)
                if j == first or a.weight < target.weight
            ]
            for j in take:
                added.add(view.entries[j].eid)
                killed.update(view.edges_by_entry[j])
            parent = graph.edges[target.eid].other(v)
            joiners.setdefault(target.cluster, []).append((v, parent))
            added_per_node[v] = len(take)
            survivor_added += len(take)
        else:
            died.add(v)
            for j, a in enumerate(view.entries):
                added.add(a.eid)
            added_per_node[v] = view.d
            dead_added += view.d
            killed.update(eid for eid in graph.adj[v] if eid in state.alive_edges)

    # Assemble the output partition: sampled clusters plus their joiners.
    new_clusters: list[Cluster] = []
    new_alive: set[int] = set()
    for idx, c in enumerate(clusters):
        if not samples[idx]:
            continue
        extra = joiners.get(idx, ())
        parent = dict(c.parent)
        members = set(c.members)
        tree_edges = set(c.tree_edges)
        radius = c.radius
        for v, p in extra:
            parent[v] = p
            members.add(v)
            eid = graph.edge_between(v, p)
            tree_edges.add(eid)
            radius = max(radius, c.depth_of(p) + 1)
        new_alive |= members
        new_clusters.append(
            Cluster(
                len(new_clusters),
                c.root,
                frozenset(members),
                parent,
                frozenset(tree_edges),
                radius,
            )
        )
    new_clustering = Clustering.from_clusters(new_clusters)
    if new_clustering.max_radius() > i:
        raise InvariantViolation(
            f"iteration {i}: cluster radius {new_clustering.max_radius()} exceeds {i}"
        )

    dead_edges = dict(state.dead_edges)
    for eid in killed:
        dead_edges[eid] = i
    stats = IterationStats(
        added_per_node, adjacent_counts, frozenset(died), survivor_added, dead_added
    )
    return BSState(
        graph=graph,
        iteration=i + 1,
        alive=frozenset(new_alive),
        alive_edges=state.alive_edges - killed,
        clustering=new_clustering,
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


def spanner_with_state(
    graph: Graph, k: int, seed: int = 0, *, weighted: bool | None = None
) -> tuple[EdgeSet, BSState, list[BSState]]:
    """Randomized (2k-1)-spanner; also returns the final state and history."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if weighted is not None and weighted != graph.weighted:
        raise ParameterError(f"graph is {'' if graph.weighted else 'un'}weighted")
    p = sampling_probability(graph.n, k) if k >= 2 and graph.n >= 2 else Fraction(0)
    state = initial_state(graph)
    history = [state]
    for i in range(1, k + 1):
        if i < k:
            samples = random_samples(state, p, seed)
        else:
            samples = (False,) * len(state.clustering.clusters)
        state = run_iteration(state, samples)
        history.append(state)
    if state.alive or state.alive_edges:
        raise InvariantViolation("nodes or edges survived the final iteration")
    return EdgeSet(graph, state.spanner), state, history


def spanner(graph: Graph, k: int, seed: int = 0, *, weighted: bool | None = None) -> EdgeSet:
    """Randomized (2k-1)-spanner with expected O(nk + n^(1+1/k) log k) edges
    (unweighted; O(n^(1+1/k) k) weighted)."""
    return spanner_with_state(graph, k, seed, weighted=weighted)[0]


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
    n = graph.n
    if g < 0:
        raise ParameterError("g must be >= 0")
    if p != 0 and n >= 2 and not (Fraction(1, n) < p < 1):
        raise ParameterError(f"p={p} outside (1/n, 1)")
    state = initial_state(graph)
    if g == 0:
        return EdgeSet(graph, frozenset()), state.clustering, state
    if deterministic:
        from .derand import UtilityContext, check_objectives, fix_bits

    for j in range(1, g + 1):
        ctx = None
        views = build_adjacency(state)
        if p == 0:
            samples: SampleVector = (False,) * len(state.clustering.clusters)
        elif deterministic:
            ctx = UtilityContext.create(
                n=n, iteration=j, p=p, g=g, weighted=graph.weighted, iota=iota
            )
            samples = fix_bits(state, ctx, enforce_target=enforce_budget, views=views)
        else:
            samples = random_samples(state, p, seed, salt)
        state = run_iteration(state, samples, views=views)
        if ctx is not None and enforce_budget:
            check_objectives(state, ctx)
    return EdgeSet(graph, state.spanner), state.clustering, state


# ---------------------------------------------------------------------------
# Distributed variant
# ---------------------------------------------------------------------------


@dataclass
class _BSNodeState:
    seed: int
    p: Fraction
    iteration: int  # next iteration to decide
    root: int
    alive_edges: set[int]
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
    broadcast along cluster trees is needed.  Each message packs a
    dead flag, an edge-kill flag, and the sender's new cluster root into
    2 + ceil(log2 n) bits.  A node halts right after deciding the
    iteration in which it dies, so k-1 message rounds suffice; each
    node outputs the sorted list of edge ids it added.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ParameterError("k must be >= 1")
        self.k = k

    # -- decision logic, identical to the centralized iteration ----------

    def _decide(self, st: _BSNodeState) -> dict[str, object]:
        i = st.iteration
        sampled_own = i < self.k and derived_coin(st.seed, st.root, i, st.p, _COIN_SALT)
        outcome: dict[str, object] = {"dead": False, "kills": set()}
        if sampled_own:
            st.iteration += 1
            return outcome
        # Group by the neighbor's cluster root, the own cluster included:
        # joining through weight w adds (and kills) the minimum edges into
        # every strictly lighter group, the own one too.  The own group can
        # never be the join target here — its coin already came up false.
        groups: dict[int, list[int]] = {}
        for eid in st.alive_edges:
            groups.setdefault(st.edge_root[eid], []).append(eid)
        entries = []
        for root, eids in groups.items():
            best = min(eids, key=lambda e: (st.weights[e], e))
            entries.append((st.weights[best], root, best))
        entries.sort(key=lambda t: (t[0], t[1]))
        first = None
        if i < self.k:
            for j, (_, root, _) in enumerate(entries):
                if derived_coin(st.seed, root, i, st.p, _COIN_SALT):
                    first = j
                    break
        kills: set[int] = set()
        adds: list[int] = []
        if first is not None:
            w_first, new_root, _ = entries[first]
            for j, (w, root, eid) in enumerate(entries):
                if j == first or w < w_first:
                    adds.append(eid)
                    kills.update(groups[root])
            st.root = new_root
        else:
            outcome["dead"] = True
            adds.extend(eid for _, _, eid in entries)
            kills.update(st.alive_edges)
        st.added.extend(adds)
        st.alive_edges -= kills
        outcome["kills"] = kills
        st.iteration += 1
        return outcome

    def _messages(
        self, st: _BSNodeState, outcome: dict[str, object], targets: Iterable[int]
    ) -> dict[int, bytes]:
        out: dict[int, bytes] = {}
        kills: set[int] = outcome["kills"]  # type: ignore[assignment]
        for eid in targets:
            dead = 1 if outcome["dead"] else 0
            kill = 1 if eid in kills else 0
            value = dead | (kill << 1) | (st.root << 2)
            out[st.neighbor_of[eid]] = pack_bits(value, 2 + st.root_bits)
        return out

    # -- NodeProgram interface -------------------------------------------

    def init(self, view: LocalView, seed: int):
        p = (
            sampling_probability(view.n, self.k)
            if self.k >= 2 and view.n >= 2
            else Fraction(0)
        )
        st = _BSNodeState(
            seed=seed,
            p=p,
            iteration=1,
            root=view.node,
            alive_edges={eid for eid, _, _ in view.incident},
            edge_root={eid: nb for eid, nb, _ in view.incident},
            weights={eid: w for eid, _, w in view.incident},
            neighbor_of={eid: nb for eid, nb, _ in view.incident},
            edge_of={nb: eid for eid, nb, _ in view.incident},
            added=[],
            root_bits=ceil_log2(max(view.n, 2)),
        )
        before = set(st.alive_edges)
        outcome = self._decide(st)
        msgs = self._messages(st, outcome, sorted(before))
        if outcome["dead"] or st.iteration > self.k:
            return None, msgs, Halt(sorted(st.added))
        return st, msgs, None

    def step(self, st: _BSNodeState, view: LocalView, round_no: int, inbox: dict[int, bytes]):
        # Apply the neighbors' previous-iteration decisions.
        for sender, msg in inbox.items():
            eid = st.edge_of[sender]
            value = unpack_bits(msg)
            dead = value & 1
            kill = (value >> 1) & 1
            root = value >> 2
            if dead or kill:
                st.alive_edges.discard(eid)
                st.edge_root.pop(eid, None)
            elif eid in st.alive_edges:
                st.edge_root[eid] = root
        # Decide the next iteration.
        before = set(st.alive_edges)
        outcome = self._decide(st)
        msgs = self._messages(st, outcome, sorted(before))
        if outcome["dead"] or st.iteration > self.k:
            return None, msgs, Halt(sorted(st.added))
        return st, msgs, None


def distributed_spanner(graph: Graph, k: int, seed: int = 0) -> BaswanaSenProgram:
    """The NodeProgram computing a (2k-1)-spanner under the simulator.

    The graph and seed arguments document the intended run configuration;
    the simulator hands both to the program at execution time, so the
    program object itself only needs k.
    """
    return BaswanaSenProgram(k)


def run_distributed_spanner(
    graph: Graph,
    k: int,
    seed: int = 0,
    *,
    budget_bits: int | None = None,
    max_rounds: int | None = None,
):
    """Simulate the distributed spanner; returns (EdgeSet, RoundTrace)."""
    from .congest import run

    program = BaswanaSenProgram(k)
    trace = run(graph, program, budget_bits=budget_bits, max_rounds=max_rounds, seed=seed)
    ids: set[int] = set()
    for out in trace.outputs.values():
        ids.update(out)
    return EdgeSet(graph, frozenset(ids)), trace
