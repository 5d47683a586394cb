"""Exception types shared across the toolkit, and the parameter contract: each public
entry point passes every scalar parameter through `check_int` or `check_rational` and
every edge-id argument through `check_edge_ids` (or, unsorted, `check_edge_set`), once
per call; a rejection is a ParameterError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class SparsekitError(Exception):
    """Base class for all toolkit errors."""


class InvalidGraphError(SparsekitError):
    """Malformed graph input (self-loop, duplicate edge, bad weight, ...)."""


class InvalidClusteringError(SparsekitError):
    """Clustering violates its invariants (overlap, broken tree, ...)."""


class ParameterError(SparsekitError):
    """An operation was called with out-of-range parameters."""


SEED_RANGE = {"lo": -(1 << 127), "hi": (1 << 127) - 1}  # seeds are hashed as 16 signed bytes


def check_int(name: str, value, *, lo=None, hi=None) -> int:
    """`value` as a plain int; ParameterError unless it is an integer in [lo, hi].
    bool is not an integer here (`spanner(g, True)` is a slip, not k = 1);
    numpy integers are, like anything else with `__index__`."""
    return _within(name, value, _as_int(value), "an int", lo, hi)


def check_rational(name: str, value, *, lo=None, hi=None, open_lo=False, open_hi=False) -> Fraction:
    """`value` as a Fraction; ParameterError unless it is a rational within the
    bounds, each closed unless `open_lo` / `open_hi`.  A rational is a Fraction,
    an integer by `check_int`'s rule, or a finite float, read as the decimal it
    prints as: 0.1 is 1/10, not the double nearest to it."""
    if isinstance(value, float):
        x = Fraction(str(value)) if math.isfinite(value) else None
    else:
        x = value if isinstance(value, Fraction) else _as_int(value)
    return _within(name, value, None if x is None else Fraction(x), "a rational", lo, hi, open_lo, open_hi)


def check_edge_ids(graph, ids) -> list[int]:
    """The distinct ids of the iterable `ids`, ascending: repeats read as a set.
    ParameterError unless each is an int by `check_int`'s rule in [0, graph.m)."""
    return _check_edges(graph, ids)[1]


def check_edge_set(graph, ids) -> frozenset[int]:
    """`check_edge_ids` as a frozenset: `ids` itself when it is a frozenset of plain ints."""
    return _check_edges(graph, ids)[0]


def _check_edges(graph, ids) -> tuple[frozenset[int], list[int]]:
    if type(ids) is not frozenset or not {int}.issuperset(map(type, ids)):  # one scan in C
        try:
            seq = list(ids)
        except TypeError:
            raise ParameterError(f"edge ids must be an iterable of ints, got {ids!r}") from None
        if not {int}.issuperset(map(type, seq)):
            seq = [check_int("edge id", x) for x in seq]
        ids = frozenset(seq)
    out = sorted(ids)  # a set of ints iterates nearly in order: cheaper than min and max
    for x in out[:1] + out[-1:]:
        check_int("edge id", x, lo=0, hi=graph.m - 1)
    return ids, out


def _as_int(value) -> int | None:
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _within(name, value, x, kind, lo, hi, open_lo=False, open_hi=False):
    """x, unless it is None or out of bounds: then a ParameterError naming the rule."""
    if (x is None or (lo is not None and (x <= lo if open_lo else x < lo))
            or (hi is not None and (x >= hi if open_hi else x > hi))):
        left = "" if lo is None else f"{lo} {'<' if open_lo else '<='} "
        right = "" if hi is None else f" {'<' if open_hi else '<='} {hi}"
        rule = f" with {left}{name}{right}" if left or right else ""
        raise ParameterError(f"{name} must be {kind}{rule}, got {value!r}")
    return x


class ConfigurationError(SparsekitError):
    """A tunable constant is too small for the requested guarantee."""


class InvariantViolation(SparsekitError):
    """A runtime-checked algorithm invariant failed.

    These checks are part of the deliverable: they turn proof obligations
    into executable assertions and are kept on in production code paths.
    """


class BudgetViolationError(SparsekitError):
    """A simulated node sent a message above the per-edge bit budget."""

    def __init__(self, node: int, round_no: int, bits: int, budget: int):
        super().__init__(
            f"node {node} sent a {bits}-bit message in round {round_no}"
            f" (budget {budget} bits)"
        )
        self.node = node
        self.round_no = round_no
        self.bits = bits
        self.budget = budget


class SimulationTimeout(SparsekitError):
    """The simulation hit max_rounds with nodes still running."""

    def __init__(self, max_rounds: int, running: int):
        super().__init__(
            f"{running} node(s) still running after {max_rounds} rounds"
        )
        self.max_rounds = max_rounds
        self.running = running
