from __future__ import annotations

import json
import random

import pytest

from sparsekit.baswana_sen import BaswanaSenProgram, spanner
from sparsekit.clustering import Clustering
from sparsekit.congest import (
    Halt,
    RoundTrace,
    default_budget_bits,
    derive_randomness,
    derived_coin,
    run,
    run_on_cluster_graph,
)
from sparsekit.errors import BudgetViolationError, ParameterError, SimulationTimeout
from sparsekit.graph import Graph
from sparsekit.stretch_friendly import Color3Program

from conftest import connected_gnp, path_graph


class FloodMin:
    """Every node learns the minimum id within `rounds` hops, then halts."""

    def __init__(self, rounds: int):
        self.rounds = rounds

    @staticmethod
    def _enc(x: int) -> bytes:
        return x.to_bytes(4, "little")

    def init(self, view, seed):
        known = view.node
        out = {nb: self._enc(known) for _, nb, _ in view.incident}
        if self.rounds == 0:
            return None, {}, Halt(known)
        return known, out, None

    def step(self, state, view, round_no, inbox):
        known = min([state] + [int.from_bytes(m, "little") for m in inbox.values()])
        if round_no >= self.rounds:
            return None, {}, Halt(known)
        return known, {nb: self._enc(known) for _, nb, _ in view.incident}, None


class HaltImmediately:
    def init(self, view, seed):
        return None, {}, Halt("done")

    def step(self, state, view, round_no, inbox):  # pragma: no cover
        raise AssertionError("never stepped")


class GossipDigest:
    """Accumulates everything reachable; output = sorted knowledge set."""

    def __init__(self, rounds: int):
        self.rounds = rounds

    def init(self, view, seed):
        facts = {f"{view.node}:{sorted(nb for _, nb, _ in view.incident)}"}
        msg = json.dumps(sorted(facts)).encode()
        return facts, {nb: msg for _, nb, _ in view.incident}, None

    def step(self, facts, view, round_no, inbox):
        for m in inbox.values():
            facts |= set(json.loads(m.decode()))
        if round_no >= self.rounds:
            return None, {}, Halt(tuple(sorted(facts)))
        msg = json.dumps(sorted(facts)).encode()
        return facts, {nb: msg for _, nb, _ in view.incident}, None


class Chatterbox:
    """Sends an oversized message in round 1 (budget violation)."""

    def init(self, view, seed):
        return None, {}, None

    def step(self, state, view, round_no, inbox):
        return None, {nb: bytes(10**4) for _, nb, _ in view.incident}, None


class NeverHalts:
    def init(self, view, seed):
        return 0, {}, None

    def step(self, state, view, round_no, inbox):
        return state + 1, {}, None


def test_flood_min_on_path():
    g = path_graph(5)
    trace = run(g, FloodMin(4))
    assert set(trace.outputs.values()) == {0}
    assert trace.rounds_used <= 5


def test_halt_in_init_uses_zero_rounds():
    g = path_graph(4)
    trace = run(g, HaltImmediately())
    assert trace.rounds_used == 0
    assert trace.outputs == {v: "done" for v in range(4)}


def test_determinism_bit_identical():
    g = connected_gnp(20, 0.2, seed=3)
    t1 = run(g, FloodMin(5), seed=42)
    t2 = run(g, FloodMin(5), seed=42)
    assert t1.to_json() == t2.to_json()


def test_budget_violation_names_offender():
    g = path_graph(3)
    with pytest.raises(BudgetViolationError) as exc:
        run(g, Chatterbox(), budget_bits=64)
    assert exc.value.round_no == 1 and exc.value.bits == 8 * 10**4


class Recorder:
    """Node v sends its id over every edge until it halts in round 1 + v % 3,
    odd nodes as a bytearray, and records who sent each inbox, in order."""

    @staticmethod
    def _out(view):
        cls = bytearray if view.node % 2 else bytes
        return {nb: cls(view.node.to_bytes(2, "little")) for _, nb, _ in reversed(view.incident)}

    def init(self, view, seed):
        return [], self._out(view), None

    def step(self, log, view, round_no, inbox):
        assert all(type(m) is bytes and int.from_bytes(m, "little") == s for s, m in inbox.items())
        log.append(list(inbox))
        if round_no >= 1 + view.node % 3:
            return None, {}, Halt(log)
        return log, self._out(view), None


def test_inboxes_arrive_in_sender_order():
    # Round r delivers, in ascending sender order, the neighbours that
    # were still running in round r - 1; bytearrays arrive as bytes.
    for seed in range(6):
        g = connected_gnp(30, 0.2, seed=40 + seed)
        trace = run(g, Recorder())
        for v, log in trace.outputs.items():
            nbs = sorted(nb for _, nb, _ in g.neighbors(v))
            assert log == [[u for u in nbs if r - 1 < 1 + u % 3] for r in range(1, len(log) + 1)]


class SendOnce:
    """Node `sender` posts `outbox` in round 1; everyone halts then."""

    def __init__(self, sender, outbox):
        self.sender, self.outbox = sender, outbox

    def init(self, view, seed):
        return None, {}, None

    def step(self, state, view, round_no, inbox):
        return None, self.outbox if view.node == self.sender else {}, Halt()


def reference_post_error(sender, outbox, neighbors, budget, round_no):
    """The error of the per-message check loop: the first bad message in destination order."""
    for dst in sorted(outbox):
        msg = outbox[dst]
        if dst not in neighbors:
            return ParameterError(f"node {sender} sent to non-neighbor {dst}")
        if not isinstance(msg, (bytes, bytearray)):
            return ParameterError(f"node {sender} sent a non-bytes message")
        if len(msg) * 8 > budget:
            return BudgetViolationError(sender, round_no, len(msg) * 8, budget)
    return None


def test_outbox_errors_name_the_smallest_bad_destination():
    # Random outboxes, mostly to neighbours and mostly good, often with
    # several bad messages; the bulk checks must agree with the loop.
    rng = random.Random(23)
    good, bad = [b"ok", bytearray(b"ok"), b"", bytes(8)], [bytes(9), "str", 5]
    g = connected_gnp(12, 0.3, seed=8)
    for _ in range(400):
        sender = rng.randrange(g.n)
        neighbors = {nb for _, nb, _ in g.neighbors(sender)}
        dsts = rng.sample(sorted(neighbors), rng.randint(1, len(neighbors)))
        dsts += rng.sample(range(g.n), rng.randint(0, 2))
        outbox = {dst: rng.choice(bad if rng.random() < 0.15 else good) for dst in reversed(dsts)}
        expected = reference_post_error(sender, outbox, neighbors, 64, 1)
        if expected is None:
            trace = run(g, SendOnce(sender, outbox), budget_bits=64)
            assert trace.max_message_bits == 8 * max(map(len, outbox.values()))
            continue
        with pytest.raises(type(expected)) as exc:
            run(g, SendOnce(sender, outbox), budget_bits=64)
        assert str(exc.value) == str(expected)


def test_timeout():
    g = path_graph(3)
    with pytest.raises(SimulationTimeout):
        run(g, NeverHalts(), max_rounds=7)


def test_round_cap_boundary():
    # Round 0 (init) is not counted against max_rounds; round r is the
    # last one a cap of r allows, and a program that halts in init needs
    # a cap of 0 only.  per_round_messages has one entry per round, 0
    # included, also on a graph with no nodes.
    g, r = path_graph(5), 4  # diameter r
    trace = run(g, FloodMin(r), max_rounds=r)
    assert trace.rounds_used == r and len(trace.per_round_messages) == r + 1
    assert set(trace.outputs.values()) == {0}
    with pytest.raises(SimulationTimeout) as exc:
        run(g, FloodMin(r), max_rounds=r - 1)
    assert exc.value.max_rounds == r - 1 and exc.value.running == g.n
    assert run(g, HaltImmediately(), max_rounds=0).rounds_used == 0
    empty = run(Graph(0, []), FloodMin(r), max_rounds=0)
    assert empty.rounds_used == 0 and empty.per_round_messages == [0]


def test_budget_monotonicity():
    g = connected_gnp(16, 0.25, seed=4)
    lo = run(g, FloodMin(4), budget_bits=64)
    hi = run(g, FloodMin(4), budget_bits=2**20)
    assert lo.outputs == hi.outputs and lo.rounds_used == hi.rounds_used


def test_causality_graft_and_compare():
    # G2 grafts extra structure at node 4; nodes at hop distance > t from
    # the graft see identical round-t outputs.
    g1 = path_graph(5)
    g2 = Graph(7, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (4, 6, 1)])
    t = 2
    big = 10**6
    o1 = run(g1, GossipDigest(t), budget_bits=big).outputs
    o2 = run(g2, GossipDigest(t), budget_bits=big).outputs
    for v in (0, 1):  # distance from node 4 is 4 and 3, both > t
        assert o1[v] == o2[v]
    assert o1[4] != o2[4]  # sanity: the graft is visible where it should be


def test_distributed_spanner_round_bound():
    g = connected_gnp(64, 0.12, seed=9)
    program = BaswanaSenProgram(3)
    trace = run(g, program, seed=5)
    assert trace.rounds_used <= 3  # one decision phase per iteration, minus init
    assert trace.max_message_bits <= default_budget_bits(64)
    ids = set()
    for out in trace.outputs.values():
        ids.update(out)
    assert ids == spanner(g, 3, seed=5).ids


def test_program_reused_across_runs_matches_spanner():
    # One program object keeps its coin memo from run to run, so the memo
    # key must hold the seed (third run) and p, which depends on n (second
    # run), besides root and iteration.
    program = BaswanaSenProgram(3)
    small = connected_gnp(24, 0.3, seed=3, weighted=True, max_weight=9)
    large = connected_gnp(96, 0.08, seed=4, weighted=True, max_weight=9)
    for g, seed in ((small, 1), (large, 1), (small, 2)):
        ids = set().union(*run(g, program, seed=seed).outputs.values())
        assert ids == spanner(g, 3, seed=seed).ids


def test_round_trace_keeps_zero_round_counts():
    trace = RoundTrace(3, 8, [1], {}, 0, 0)
    assert trace.logical_rounds == 0 and trace.physical_rounds == 0


def test_run_on_cluster_graph_trivial_matches_run():
    g = connected_gnp(12, 0.3, seed=6)
    cl = Clustering.singletons(g)
    trace, cg = run_on_cluster_graph(g, cl, FloodMin(4), seed=1)
    direct = run(g, FloodMin(4), seed=1)
    assert trace.outputs == direct.outputs
    assert trace.physical_rounds == trace.logical_rounds == direct.rounds_used


def test_run_on_cluster_graph_single_cluster():
    g = path_graph(5)
    cl = Clustering(g, [0, 0, 1, 2, 3])
    trace, cg = run_on_cluster_graph(g, cl, HaltImmediately())
    r = cl.max_radius()
    assert trace.logical_rounds == 0 and trace.physical_rounds <= 2 * r + 1


def test_run_on_cluster_graph_requires_partition():
    g = path_graph(4)
    cl = Clustering(g, [0, 0, -1, -1])
    with pytest.raises(ParameterError):
        run_on_cluster_graph(g, cl, FloodMin(1))


def test_color3_program_on_two_cluster_path():
    # 6-node path split into two radius-1 clusters; the cluster graph is a
    # single mutual edge, so the program must 2-color it; each logical round
    # costs 2r+1 = 3 physical rounds.
    g = path_graph(6)
    cl = Clustering(g, [1, 1, 1, 4, 4, 4])
    trace, cg = run_on_cluster_graph(g, cl, Color3Program({0: 1, 1: 0}))
    colors = trace.outputs
    assert set(colors) == {0, 1} and colors[0] != colors[1]
    assert set(colors.values()) <= {0, 1, 2}
    assert trace.physical_rounds == 3 * trace.logical_rounds
    # hand trace: 2 reduction rounds + 3 x (shift, recolor) = 8 logical rounds
    assert trace.logical_rounds == 8


def test_color3_program_rejects_non_adjacent_out_neighbor():
    # node 0's out-neighbor 2 is not adjacent on the path 0-1-2
    with pytest.raises(ParameterError):
        run(path_graph(3), Color3Program({0: 2, 1: 0}))


def test_color3_program_reduces_large_ids_below_six():
    # ids below 1024 take four reduction rounds on this directed path; with
    # fewer, color 7 survives the shifts and ends as an output.
    p = [678, 669, 833, 245, 32, 378, 191, 447, 460]
    g = Graph(1024, [(a, b, 1) for a, b in zip(p, p[1:])])
    out = dict(zip(p, p[1:]))
    colors = run(g, Color3Program(out)).outputs
    assert set(colors.values()) <= {0, 1, 2}
    assert all(colors[a] != colors[b] for a, b in out.items())


def test_derived_randomness_is_stable():
    assert derive_randomness(1, 2, 3) == derive_randomness(1, 2, 3)
    assert derive_randomness(1, 2, 3) != derive_randomness(1, 2, 4)
    from fractions import Fraction

    hits = sum(derived_coin(7, v, 1, Fraction(1, 4)) for v in range(4000))
    assert 850 <= hits <= 1150  # unbiased within ~5 sigma


def test_trace_json_shape():
    g = path_graph(3)
    trace = run(g, FloodMin(2))
    payload = json.loads(trace.to_json())
    assert payload["rounds"] == trace.rounds_used
    assert set(payload) >= {"rounds", "max_message_bits", "per_round", "outputs"}
