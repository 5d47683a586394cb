from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from sparsekit.baswana_sen import (
    BaswanaSenProgram,
    build_adjacency,
    cluster_entries,
    decide,
    final_pass,
    initial_state,
    random_samples,
    run_distributed_spanner,
    run_g_iterations,
    run_iteration,
    spanner,
)
from sparsekit.clustering import Clustering
from sparsekit.derand import deterministic_spanner
from sparsekit.errors import InvariantViolation, ParameterError
from sparsekit.graph import Edge, Graph
from sparsekit.rational import sampling_probability
from sparsekit.ultra_sparse import linear_size_spanner
from sparsekit.verify import apsp, verify_stretch, verify_stretch_friendly

from conftest import connected_gnp, cycle_graph, gnp_graph


def alive(st):
    """The nodes in some cluster of the state's clustering."""
    return frozenset(v for c in st.clustering.clusters for v in c.members)


def test_iteration_all_sampled_is_inert():
    g = gnp_graph(10, 0.5, seed=1, weighted=True)
    st = initial_state(g)
    nxt = run_iteration(st, (True,) * 10)
    assert nxt.spanner == frozenset()
    assert alive(nxt) == frozenset(range(10))
    assert len(nxt.clustering.clusters) == 10
    assert nxt.dead_edges == {}


def test_iteration_none_sampled_kills_everything():
    g = gnp_graph(10, 0.5, seed=2, weighted=True)
    st = initial_state(g)
    nxt = run_iteration(st, (False,) * 10)
    assert alive(nxt) == frozenset()
    assert nxt.alive_edges == frozenset()
    # every node added its minimum edge to each adjacent (singleton) cluster,
    # so every edge of a simple graph enters the spanner
    assert nxt.spanner == frozenset(range(g.m))


def test_iteration_star_hub_sampled():
    # weighted 5-node star; only the hub's cluster sampled: each leaf joins
    # the hub through its spoke, adding exactly that edge.
    g = Graph(5, [(0, 1, 3), (0, 2, 1), (0, 3, 7), (0, 4, 2)])
    st = initial_state(g)
    samples = tuple(c.root == 0 for c in st.clustering.clusters)
    nxt = run_iteration(st, samples)
    assert nxt.spanner == frozenset(range(4))
    assert len(nxt.clustering.clusters) == 1
    hub = nxt.clustering.clusters[0]
    assert hub.root == 0 and hub.members == frozenset(range(5)) and hub.radius == 1


def test_iteration_join_adds_strictly_lighter_edges():
    # Node 0 sees clusters {1} (w=1), {2} (w=2), {3} (w=3); only {2} is
    # sampled.  It joins {2}, adding that edge plus the strictly lighter
    # weight-1 edge but not the weight-3 one, which stays alive.  Nodes 1
    # and 3 join {2} through their own unit edges.
    g = Graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 1), (2, 3, 1)])
    st = initial_state(g)
    samples = tuple(c.root == 2 for c in st.clustering.clusters)
    nxt = run_iteration(st, samples)
    assert nxt.stats.added_per_node[0] == 2  # join edge + strictly lighter
    assert nxt.spanner == frozenset([0, 1, 3, 4])
    assert nxt.alive_edges == frozenset([2])
    assert nxt.dead_edges == {0: 1, 1: 1, 3: 1, 4: 1}
    assert len(nxt.clustering.clusters) == 1
    assert nxt.clustering.clusters[0].members == frozenset([0, 1, 2, 3])


def test_decide_by_hand():
    # An unsampled entry of the target's weight before it is not taken.
    assert decide([1, 2, 2, 3], 2) == [0, 2]
    assert decide([1, 2, 2, 3], 1) == [0, 1]
    # A target at position 0 takes only itself, whatever follows.
    assert decide([4, 4, 5], 0) == [0]
    assert decide([0, 7], 0) == [0]
    # Nothing sampled: every entry is taken.
    assert decide([1, 1, 2], None) == [0, 1, 2]
    assert decide([], None) == []
    # A strictly lighter entry before the target is taken (the own
    # cluster's entry is one like any other here).
    assert decide([2, 3], 1) == [0, 1]


def reference_cluster_entries(edges):
    """The dict-based grouping `cluster_entries` replaced."""
    groups = {}
    for root, w, eid in edges:
        groups.setdefault(root, []).append((w, eid))
    entries = []
    for root, pairs in groups.items():
        w, eid = min(pairs)
        entries.append((w, root, eid))
    entries.sort()
    return entries, [tuple(eid for _, eid in groups[root]) for _, root, _ in entries]


def test_cluster_entries_matches_dict_grouping():
    # Many weight ties and shuffled ids: the entries are the reference's,
    # and each entry holds the same edge ids, in (weight, id) order.
    rng = random.Random(17)
    for _ in range(500):
        d = rng.randint(0, 24)
        eids = rng.sample(range(1000), d)
        edges = [(rng.randint(1, 3), rng.randrange(6), eid) for eid in eids]
        entries, ids = cluster_entries(iter(edges))
        ref_entries, ref_ids = reference_cluster_entries((root, w, eid) for w, root, eid in edges)
        assert entries == ref_entries
        assert [set(x) for x in ids] == [set(x) for x in ref_ids]
        weight = {eid: w for w, _, eid in edges}
        assert all(list(x) == sorted(x, key=lambda e: (weight[e], e)) for x in ids)


def test_build_adjacency_names_the_first_edge_to_an_unclustered_node():
    # A star whose leaves 2 and 3 are unclustered: node 0's edges are read
    # in id order, so edge 1 is the one named.
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    state = replace(initial_state(g), clustering=Clustering(g, [0, 1, -1, -1]))
    with pytest.raises(InvariantViolation, match=r"^alive edge 1 touches unclustered node 2$"):
        build_adjacency(state)


def test_build_adjacency_never_calls_edge_other(monkeypatch):
    g = gnp_graph(64, 0.15, seed=5, weighted=True, max_weight=6)
    p = sampling_probability(g.n, 3)
    states = [initial_state(g)]
    for _ in range(2):
        states.append(run_iteration(states[-1], random_samples(states[-1], p, 3)))
    calls = []

    def counted(self, x):
        calls.append(self.id)
        return self.u if x == self.v else self.v

    expected = [build_adjacency(st) for st in states]
    monkeypatch.setattr(Edge, "other", counted)
    assert [build_adjacency(st) for st in states] == expected
    assert calls == []


def test_distributed_spanner_packs_two_messages_per_decision(monkeypatch):
    # Each decision packs its two message forms, edge kept and edge
    # killed, once, however many edges it sends over.
    from sparsekit import baswana_sen, generate

    g = generate.gnp(256, 16 / 256, seed=2, weighted=True)
    packs, decisions = [], []
    pack, decide_step = baswana_sen.pack_bits, BaswanaSenProgram._decide

    def counted_pack(value, bits):
        packs.append(value)
        return pack(value, bits)

    def counted_decide(self, st):
        decisions.append(st.root)
        return decide_step(self, st)

    monkeypatch.setattr(baswana_sen, "pack_bits", counted_pack)
    monkeypatch.setattr(BaswanaSenProgram, "_decide", counted_decide)
    es, trace = run_distributed_spanner(g, 3)
    assert es.ids == spanner(g, 3).ids
    assert sum(trace.per_round_messages) > 4 * len(decisions)
    assert 0 < len(packs) <= 2 * len(decisions)


def test_join_adds_the_lighter_own_cluster_edge():
    # Iteration 1 (clusters {0} and {3} sampled) puts 0, 1, 2 into the
    # cluster of 0 and leaves the weight-2 edge 1-2 alive inside it.  In
    # iteration 2 only {3} is sampled: node 1 joins it through weight 3
    # and also adds its lighter edge into its own cluster, killing it.
    g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 2), (1, 3, 3)])
    st = run_iteration(initial_state(g), (True, False, False, True))
    assert st.alive_edges == frozenset([2, 3])
    assert [sorted(c.members) for c in st.clustering.clusters] == [[0, 1, 2], [3]]
    view = build_adjacency(st)[1]
    assert view.clusters == (view.own, 1) and view.weights == (2, 3)
    assert view.adds_if_first == (1, 2)
    nxt = run_iteration(st, (False, True))
    assert nxt.stats.added_per_node[1] == 2
    assert nxt.spanner == frozenset([0, 1, 2, 3])
    assert nxt.dead_edges[2] == 2
    assert sorted(nxt.clustering.clusters[0].members) == [1, 3]


def test_outputs_pinned():
    # sha256 over the sorted edge ids of every Baswana-Sen path on an
    # all-ties unweighted graph and a weighted graph with many ties,
    # recorded before the paths shared one decision function.
    h = hashlib.sha256()
    graphs = (gnp_graph(64, 0.2, seed=1), gnp_graph(64, 0.2, seed=2, weighted=True, max_weight=3))
    for g in graphs:
        for k in (2, 3, 4):
            for seed in range(3):
                h.update(repr(sorted(spanner(g, k, seed).ids)).encode())
        h.update(repr(sorted(deterministic_spanner(g, 3).ids)).encode())
        runs = [run_g_iterations(g, 2, Fraction(1, 4), seed) for seed in range(3)]
        runs.append(run_g_iterations(g, 2, Fraction(1, 4), deterministic=True))
        for edges, clustering, _ in runs:
            h.update(repr((sorted(edges.ids), [c.root for c in clustering.clusters])).encode())
    assert h.hexdigest() == "4cfb77a042e447bcbc3eeaa3925170b8a104091e8969f2af949ecc4bbab4eb82"


def test_loop_and_final_pass_outputs_pinned():
    # sha256 over the sorted edge ids of every caller of the shared
    # iteration loop and final pass, recorded before they were shared:
    # both linear-size modes, k = 1, k above log2 n, and n <= 2.
    out = []
    for g in (gnp_graph(64, 0.2, seed=1), gnp_graph(64, 0.2, seed=2, weighted=True, max_weight=3)):
        for mode in ("randomized", "derandomized"):
            for s in (0, 1):
                out.append(sorted(linear_size_spanner(g, mode=mode, alpha0=4, seed=s).ids))
        out.append(sorted(spanner(g, 1).ids))
        out.append(sorted(spanner(g, 12, seed=3).ids))
        out.append(sorted(deterministic_spanner(g, 1).ids))
    for n in (0, 1, 2):
        g = gnp_graph(n, 1.0)
        out.append(sorted(spanner(g, 3).ids))
        out.append(sorted(deterministic_spanner(g, 3).ids))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "6a4bb6b743a1b9a9f70d3e805e30bc5d0ec7185e27d114629f35260733cbef52"


def state_summary(st):
    """What the state-trajectory pin hashes: each cluster's (root, sorted
    members, radius), then the alive edges, the spanner and the dead edges."""
    clusters = [(c.root, sorted(c.members), c.radius) for c in st.clustering.clusters]
    return clusters, sorted(st.alive_edges), sorted(st.spanner), sorted(st.dead_edges.items())


def test_state_trajectory_pinned(monkeypatch):
    # sha256 over the state after every iteration and after the final pass
    # of seeded and derandomized runs, recorded before the state moved onto
    # the parent forest; only `state_summary` may follow the state's shape.
    from sparsekit import baswana_sen

    h = hashlib.sha256()
    states = []

    def recorded(*args, **kwargs):
        st = run_iteration(*args, **kwargs)
        states.append(st)
        h.update(repr(state_summary(st)).encode())
        return st

    monkeypatch.setattr(baswana_sen, "run_iteration", recorded)
    graphs = (
        gnp_graph(48, 0.2, seed=3, weighted=True, max_weight=9),
        gnp_graph(48, 0.2, seed=4),
        gnp_graph(48, 0.05, seed=6, weighted=True, max_weight=5),
    )
    assert not graphs[2].is_connected()
    for g in graphs:
        for k in (2, 3, 4):
            for seed in (0, 1):
                spanner(g, k, seed)
            deterministic_spanner(g, k)
    assert len(states) == 81
    assert h.hexdigest() == "f0a938082b457a6fac817dc903d6c5e5e52794ad225e62ce2aa0639cb1dd8ef3"


def test_sampling_probability_pinned():
    # sha256 over sampling_probability on a grid of n and k, recorded while
    # the k-th root was still taken by Newton iteration.
    ns = [*range(1, 301), 1023, 1024, 1025, 2047, 2048, 4096, 10**6, 2**40 + 1]
    ks = [*range(1, 40), 64, 100, 257]
    got = repr([sampling_probability(n, k) for n in ns for k in ks])
    assert hashlib.sha256(got.encode()).hexdigest() == (
        "204dfe7c0ca5bcb273e5de52f67ad20a1bccd5b2f1e5e412aaf38ae05b1ce055"
    )


def test_sampling_probability_in_the_wide_band_is_fast():
    # Where k is large but below bitlen(n) * 2**16, p = 1 is decided by one
    # comparison, and p < 1 is bisected from a float guess checked exactly.
    # Each comparison is decided on a fixed-point bracket of the power, not
    # on 16k-bit numbers, which the last two cases, near p = 1, need.
    cases = [
        ((4, 100000), Fraction(1)),
        ((1000, 65535), Fraction(32768, 32771)),
        ((1000, 300000), Fraction(65536, 65537)),
        ((2**20, 10**6), Fraction(1)),
    ]
    for (n, k), expected in cases:
        t0 = time.perf_counter()
        assert sampling_probability(n, k) == expected
        assert time.perf_counter() - t0 < 1, (n, k)
    g = cycle_graph(4)
    t0 = time.perf_counter()
    assert spanner(g, 150000).ids == spanner(g, 1).ids
    assert time.perf_counter() - t0 < 1


def test_final_pass_raises_when_an_edge_survives():
    # An alive edge with no alive node at either end is touched by no
    # node's step, so the sample-nothing pass leaves it alive.
    g = Graph(2, [(0, 1, 1)])
    state = replace(initial_state(g), clustering=Clustering(g, [-1, -1]))
    with pytest.raises(InvariantViolation, match="survived the final iteration"):
        final_pass(state)
    assert final_pass(initial_state(g)).spanner == frozenset([0])


def test_p0_runs_only_the_final_pass(monkeypatch):
    # With n <= 1 the sampling probability is 0, so no iteration before
    # the final pass can do anything, and none runs whatever k is.
    from sparsekit import baswana_sen

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return run_iteration(*args, **kwargs)

    monkeypatch.setattr(baswana_sen, "run_iteration", counted)
    for n in (0, 1):
        assert spanner(Graph(n, []), 1000).ids == frozenset()
        assert deterministic_spanner(Graph(n, []), 1000).ids == frozenset()
    assert len(calls) == 4


def test_p1_iterations_change_nothing(monkeypatch):
    # At p = 1 every coin comes up 1, so an iteration samples every cluster
    # and returns its input state one iteration on.  The seeded and the
    # derandomized spanner therefore run only the final pass and return
    # spanner(g, 1).
    from sparsekit import baswana_sen

    g = gnp_graph(20, 0.3, seed=7, weighted=True)
    st = run_iteration(initial_state(g), random_samples(initial_state(g), Fraction(1, 2), 0))
    assert 0 < len(st.clustering.clusters) < g.n
    for _ in range(3):
        samples = random_samples(st, Fraction(1), seed=5)
        assert all(samples)
        nxt = run_iteration(st, samples)
        assert nxt.iteration == st.iteration + 1
        assert (nxt.clustering, nxt.alive_edges, nxt.spanner, nxt.dead_edges) == (
            st.clustering, st.alive_edges, st.spanner, st.dead_edges
        )
        st = nxt

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return run_iteration(*args, **kwargs)

    monkeypatch.setattr(baswana_sen, "run_iteration", counted)
    k = 10**8
    assert sampling_probability(g.n, k) == 1
    assert spanner(g, k, seed=3).ids == spanner(g, 1).ids
    assert len(calls) == 2
    assert deterministic_spanner(g, k).ids == spanner(g, 1).ids
    assert len(calls) == 4


def test_run_iteration_leaves_its_input_forest_alone():
    # The next state gets a new clustering and the input's parent list is
    # unchanged; each dying node holds parent -1 and sits in no cluster of
    # the new one.
    deaths = 0
    for seed in range(4):
        g = gnp_graph(30, 0.2, seed=200 + seed, weighted=bool(seed % 2), max_weight=9)
        st = initial_state(g)
        while st.clustering.clusters:
            before = st.clustering.parent
            nxt = run_iteration(st, random_samples(st, Fraction(1, 3), seed))
            assert st.clustering.parent == before and nxt.clustering is not st.clustering
            for v in nxt.stats.died:
                assert nxt.clustering.parent[v] == -1 and nxt.clustering.label[v] == -1
            deaths += len(nxt.stats.died)
            st = nxt
    assert deaths > 0


def test_sample_vector_length_checked():
    g = gnp_graph(5, 0.5, seed=3)
    with pytest.raises(ParameterError):
        run_iteration(initial_state(g), (True,) * 3)


def test_spanner_k1_is_whole_graph():
    g = gnp_graph(12, 0.4, seed=4, weighted=True)
    es = spanner(g, 1, seed=0)
    assert es.ids == frozenset(range(g.m))
    assert verify_stretch(g, es, 1).ok


def test_spanner_on_tree_keeps_every_edge():
    from sparsekit.generate import random_tree

    g = random_tree(20, seed=5, weighted=True, max_weight=9)
    for k in (2, 3):
        assert spanner(g, k, seed=k).ids == frozenset(range(g.m))


def test_dead_edge_stretch_and_friendliness():
    # dead edges at iteration i are covered with stretch 2i-1; intermediate
    # clusterings dominate their alive boundary/inside edges.
    for seed in range(6):
        g = connected_gnp(28, 0.25, seed=40 + seed, weighted=True, max_weight=20)
        for k in (2, 3):
            p = sampling_probability(g.n, k)
            history = [initial_state(g)]
            for _ in range(k - 1):
                history.append(run_iteration(history[-1], random_samples(history[-1], p, seed)))
            final = final_pass(history[-1])
            history.append(final)
            assert spanner(g, k, seed).ids == final.spanner
            dist = apsp(g, final.spanner)
            for eid, died_at in final.dead_edges.items():
                e = g.edges[eid]
                assert dist[e.u][e.v] <= (2 * died_at - 1) * e.w
            for st in history[1:-1]:
                clustering = st.clustering
                rep = verify_stretch_friendly(g, clustering, edge_ids=st.alive_edges)
                assert rep.ok
                assert clustering.max_radius() <= st.iteration - 1


def test_unweighted_survivors_add_at_most_one_edge():
    for seed in range(5):
        g = gnp_graph(40, 0.15, seed=70 + seed)
        st = initial_state(g)
        p = Fraction(1, 3)
        for i in (1, 2):
            st = run_iteration(st, random_samples(st, p, seed))
            stats = st.stats
            for v, count in stats.added_per_node.items():
                if v not in stats.died:
                    assert count <= 1


def test_high_degree_nodes_survive_sampling():
    # star with 49 leaves: the hub sees 49 singleton clusters, above the
    # high-degree threshold 10 ln(50)/0.9 ~ 43.5; across 10^4 seeded trials
    # at p = 9/10 it must never die in iteration 1.
    g = Graph(50, [(0, i, 1) for i in range(1, 50)], weighted=False)
    st0 = initial_state(g)
    views = build_adjacency(st0)
    assert views[0].d == 49
    p = Fraction(9, 10)
    deaths = 0
    for seed in range(10**4):
        samples = random_samples(st0, p, seed)
        nxt = run_iteration(st0, samples, views=views)
        deaths += 0 in nxt.stats.died
    assert deaths == 0


def test_run_g_iterations_g0_is_identity():
    g = gnp_graph(10, 0.4, seed=8)
    edges, clustering, state = run_g_iterations(g, 0, Fraction(1, 2))
    assert len(edges) == 0
    assert len(clustering.clusters) == g.n and clustering.max_radius() == 0


def test_run_g_iterations_p0_kills_all():
    g = gnp_graph(10, 0.4, seed=9)
    edges, clustering, state = run_g_iterations(g, 1, 0)
    assert len(clustering.clusters) == 0 and not alive(state)
    assert edges.ids == frozenset(range(g.m))


def test_run_g_iterations_p_range_validated():
    g = gnp_graph(10, 0.4, seed=9)
    with pytest.raises(ParameterError):
        run_g_iterations(g, 1, Fraction(1, 20))  # p <= 1/n


def test_run_g_iterations_cluster_counts_on_cycle():
    g = cycle_graph(16)
    # derandomized: surviving clusters <= n p^g = 16/4 = 4
    edges, clustering, _ = run_g_iterations(g, 2, Fraction(1, 2), deterministic=True)
    assert len(clustering.clusters) <= 4
    # randomized: mean survivors over 200 seeds matches n p^g within 3 SE
    counts = [
        len(run_g_iterations(g, 2, Fraction(1, 2), seed=s)[1].clusters)
        for s in range(200)
    ]
    mean = statistics.fmean(counts)
    se = statistics.stdev(counts) / math.sqrt(len(counts))
    assert abs(mean - 4.0) <= 3 * max(se, 0.05)


def test_distributed_matches_centralized_small():
    for seed in range(10):
        g = gnp_graph(24, 0.25, seed=110 + seed, weighted=True, max_weight=9)
        for k in (1, 2, 4):
            es_d, trace = run_distributed_spanner(g, k, seed=seed)
            assert es_d.ids == spanner(g, k, seed=seed).ids
            assert trace.rounds_used <= max(k - 1, 0) + 1


def test_distributed_spanner_derives_its_schedule_once(monkeypatch):
    # every node's init and the round cap share one sampling-probability call
    from sparsekit import baswana_sen

    calls = []

    def counted(n, k):
        calls.append((n, k))
        return sampling_probability(n, k)

    monkeypatch.setattr(baswana_sen, "sampling_probability", counted)
    for g in (gnp_graph(48, 0.2, seed=3, weighted=True, max_weight=9), cycle_graph(4)):
        calls.clear()
        es, _ = run_distributed_spanner(g, 3, seed=1)
        assert calls == [(g.n, 3)]
        assert es.ids == spanner(g, 3, seed=1).ids


def test_distributed_spanner_derives_each_coin_once(monkeypatch):
    # The nodes of a run share one coin table keyed (root, iteration), and
    # the program keeps it per (n, seed): a second graph on as many nodes
    # under the same seed reuses it, and a new seed derives its own.
    from sparsekit import baswana_sen, generate
    from sparsekit.congest import run

    first, second = generate.gnp(256, 16 / 256, seed=2), generate.gnp(256, 16 / 256, seed=3, weighted=True)
    runs = [(first, 1), (second, 1), (first, 2)]
    expected = [spanner(g, 3, seed).ids for g, seed in runs]  # before derived_coin is counted
    derive, calls = baswana_sen.derived_coin, []

    def counted(seed, root, i, p, salt=b""):
        calls.append((seed, root, i))
        return derive(seed, root, i, p, salt)

    monkeypatch.setattr(baswana_sen, "derived_coin", counted)
    program = BaswanaSenProgram(3)
    per_run = []
    for (g, seed), ids in zip(runs, expected):
        calls.clear()
        assert set().union(*run(g, program, seed=seed).outputs.values()) == ids
        per_run.append(list(calls))
    assert per_run[0] and len(set(per_run[0] + per_run[1])) == len(per_run[0]) + len(per_run[1])
    assert {i for _, _, i in per_run[1]} <= {2}  # every node's own iteration-1 coin is in the table
    assert len(set(per_run[2])) == len(per_run[2])
    assert {(2, v, 1) for v in range(256)} <= set(per_run[2])


def test_program_reused_over_many_seeds_holds_one_record():
    # The program keeps only its latest run's record, so reusing it over
    # many seeds does not grow it.
    import gc

    from sparsekit import baswana_sen
    from sparsekit.congest import run

    def records() -> int:
        gc.collect()
        return sum(isinstance(o, baswana_sen._BSRun) for o in gc.get_objects())

    g, before = gnp_graph(40, 0.2, seed=7), records()
    program = BaswanaSenProgram(3)
    for seed in range(1, 51):
        assert set().union(*run(g, program, seed=seed).outputs.values()) == spanner(g, 3, seed).ids
    assert records() == before + 1


def test_spanner_stretch_guarantee_random():
    for seed in range(8):
        weighted = seed % 2 == 0
        g = gnp_graph(36, 0.2, seed=130 + seed, weighted=weighted, max_weight=25)
        for k in (2, 3, 4):
            es = spanner(g, k, seed=seed)
            assert verify_stretch(g, es, 2 * k - 1).ok
