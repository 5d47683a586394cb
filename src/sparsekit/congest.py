"""Synchronous message-passing simulator with per-edge bit budgets.

The model: nodes run in lockstep rounds.  In each round every running
node consumes the messages sent to it in the previous round and emits at
most one message per incident edge; a message is a `bytes` object whose
size in bits must stay within the budget (default ceil(64 * log2 n)
bits, covering ids-plus-weights payloads with room to spare).  Delivery
is reliable and takes exactly one round; there are no failures.

A program first runs `init` with its local view (no inbox); `init` may
already send and may halt.  One loop runs every round: its first pass,
round 0, calls `init` on every node, and each later pass calls `step` on
the nodes still running.  `rounds_used` counts the passes after round 0,
so a program that halts in `init` uses 0 rounds.  Nodes are stepped in
id order but cannot observe that order — all round-t messages are
delivered together at round t+1 — so any parallel execution of a round
is equivalent.  Each inbox is a dict in ascending sender order, the
order in which senders post.  An outbox is checked in bulk: its
destinations are neighbors, its messages `bytes`, the longest within
budget.  Only if a check fails, or a message is a `bytearray` (to be
copied to `bytes`), is it walked in destination order, so an error names
the smallest offending destination.

Randomness: one global seed; each node derives an independent-looking
stream as sha256(seed, node, round) via `derive_randomness` /
`derived_coin`, which keeps runs reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Protocol

from .clustering import ClusterGraph, Clustering, contract
from .errors import SEED_RANGE, BudgetViolationError, ParameterError, SimulationTimeout, check_int
from .graph import Graph
from .rational import ceil_log2


def default_budget_bits(n: int) -> int:
    """ceil(64 * log2 n) bits, computed exactly."""
    if n < 2:
        return 64
    return ceil_log2(n**64)


def derive_randomness(seed: int, node: int, round_no: int, salt: bytes = b"") -> int:
    """256-bit pseudo-random integer, deterministic in all arguments."""
    h = hashlib.sha256()
    h.update(salt)
    for x in (seed, node, round_no):
        h.update(int(x).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def derived_coin(seed: int, node: int, round_no: int, p: Fraction, salt: bytes = b"") -> bool:
    """Bernoulli(p) coin from the derived stream; exact for rational p."""
    h = derive_randomness(seed, node, round_no, salt) >> 128  # 128 uniform bits
    return h * p.denominator < p.numerator << 128


def pack_bits(value: int, bits: int) -> bytes:
    """Encode a nonnegative integer into ceil(bits/8) bytes."""
    if value < 0 or (bits and value >> bits):
        raise ValueError(f"value {value} does not fit in {bits} bits")
    return value.to_bytes(max(1, (bits + 7) // 8), "little")


def unpack_bits(data: bytes) -> int:
    return int.from_bytes(data, "little")


@dataclass(frozen=True)
class LocalView:
    """What a node is allowed to see at start-up."""

    node: int
    n: int
    incident: tuple[tuple[int, int, int], ...]  # (edge_id, neighbor, weight)


@dataclass(frozen=True)
class Halt:
    """Returned by a program step to stop this node with a final output."""

    output: Any = None


class NodeProgram(Protocol):
    """Behavioral interface for simulated nodes.

    Outputs must depend only on the node id, its local view, the shared
    seed, and received messages (locality); the simulator's causality
    tests exercise exactly this property.
    """

    def init(self, view: LocalView, seed: int) -> tuple[Any, dict[int, bytes], Halt | None]:
        ...

    def step(
        self, state: Any, view: LocalView, round_no: int, inbox: dict[int, bytes]
    ) -> tuple[Any, dict[int, bytes], Halt | None]:
        ...


@dataclass
class RoundTrace:
    rounds_used: int
    max_message_bits: int
    per_round_messages: list[int]
    outputs: dict[int, Any]
    logical_rounds: int
    physical_rounds: int

    def to_json(self) -> str:
        def enc(x: Any) -> Any:
            if isinstance(x, (frozenset, set, tuple)):
                return sorted(x) if isinstance(x, (frozenset, set)) else list(x)
            return x

        payload = {
            "rounds": self.rounds_used,
            "logical_rounds": self.logical_rounds,
            "physical_rounds": self.physical_rounds,
            "max_message_bits": self.max_message_bits,
            "per_round": self.per_round_messages,
            "outputs": {str(k): enc(v) for k, v in sorted(self.outputs.items())},
        }
        return json.dumps(payload, sort_keys=True)


def run(
    graph: Graph,
    program: NodeProgram,
    *,
    budget_bits: int | None = None,
    max_rounds: int | None = None,
    seed: int = 0,
) -> RoundTrace:
    """Execute `program` on every node of `graph` until all halt.

    Deterministic given (graph, program, seed): nodes are stepped in id
    order each round, and all messages sent in round t are delivered in
    round t+1.  Round 0 is the loop's first pass, which calls `init`
    instead of `step`.  Raises BudgetViolationError when a message
    exceeds the bit budget and SimulationTimeout when max_rounds passes
    with running nodes.
    """
    budget = default_budget_bits(graph.n) if budget_bits is None else check_int("budget_bits", budget_bits, lo=1)
    limit = max(16, 10 * graph.n) if max_rounds is None else check_int("max_rounds", max_rounds, lo=0)
    seed = check_int("seed", seed, **SEED_RANGE)

    views = [LocalView(v, graph.n, tuple(graph.neighbors(v))) for v in range(graph.n)]

    states: dict[int, Any] = dict.fromkeys(range(graph.n))  # the running nodes, in id order
    outputs: dict[int, Any] = {}
    max_bits = 0
    per_round: list[int] = []

    def post(sender: int, outbox: dict[int, bytes], round_no: int, nxt: list[dict[int, bytes]]):
        nonlocal max_bits
        msgs = outbox.values()
        if (outbox.keys() <= graph.adj[sender].keys() and all(type(msg) is bytes for msg in msgs)
                and (bits := 8 * max(map(len, msgs), default=0)) <= budget):
            max_bits = max(max_bits, bits)
            for dst, msg in outbox.items():
                nxt[dst][sender] = msg
            return
        for dst in sorted(outbox):  # a check failed, or a message is not `bytes`
            msg = outbox[dst]
            if dst not in graph.adj[sender]:
                raise ParameterError(f"node {sender} sent to non-neighbor {dst}")
            if not isinstance(msg, (bytes, bytearray)):
                raise ParameterError(f"node {sender} sent a non-bytes message")
            bits = len(msg) * 8
            if bits > budget:
                raise BudgetViolationError(sender, round_no, bits, budget)
            max_bits = max(max_bits, bits)
            nxt[dst][sender] = bytes(msg)

    rounds = 0
    while True:
        # Round 0 runs init (no inbox), later rounds step.  Senders post in
        # ascending id order, so each inbox is in sender order.
        nxt: list[dict[int, bytes]] = [{} for _ in range(graph.n)]
        sent = 0
        for v, state in list(states.items()):
            if rounds:
                state, outbox, halt = program.step(state, views[v], rounds, pending[v])
            else:
                state, outbox, halt = program.init(views[v], seed)
            sent += len(outbox)
            post(v, outbox, rounds, nxt)
            if halt is None:
                states[v] = state
            else:
                outputs[v] = halt.output
                del states[v]
        pending = nxt
        per_round.append(sent)
        if not states:
            return RoundTrace(rounds, max_bits, per_round, outputs, rounds, rounds)
        if rounds >= limit:
            raise SimulationTimeout(limit, len(states))
        rounds += 1


def run_on_cluster_graph(
    graph: Graph,
    clustering: Clustering,
    program: NodeProgram,
    *,
    budget_bits: int | None = None,
    max_rounds: int | None = None,
    seed: int = 0,
) -> tuple[RoundTrace, ClusterGraph]:
    """Run a program treating each cluster as one logical node.

    Communication between logical nodes happens on the contracted graph;
    each logical round is charged 2r+1 physical rounds (a convergecast
    plus a broadcast along cluster trees of radius <= r, plus the
    inter-cluster exchange).  The returned trace reports both logical
    and physical round counts; outputs are per cluster-graph node.
    """
    if not clustering.is_partition(graph):
        raise ParameterError("run_on_cluster_graph requires a partition")
    cg = contract(graph, clustering)
    trace = run(cg.graph, program, budget_bits=budget_bits, max_rounds=max_rounds, seed=seed)
    r = clustering.max_radius()
    trace.logical_rounds = trace.rounds_used
    trace.physical_rounds = trace.rounds_used * (2 * r + 1)
    return trace, cg
