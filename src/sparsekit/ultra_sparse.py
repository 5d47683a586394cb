"""Ultra-sparse spanners: n + n/t edges via reduction to sparse spanners.

`ultra_sparse_spanner` composes three pieces: a stretch-friendly
partition with parameter t' (clusters of >= t' nodes), the contraction
along it, and an inner sparse-spanner algorithm on the cluster graph;
the cluster trees plus the witnesses of the inner spanner form the
output.  The partition parameter is calibrated operationally: starting
at t' = t, double until the composed size lands under n + ceil(n/t)
(at most O(log n) retries; a single-cluster partition always fits).
The retries resume one `stretch_friendly.partitions` run, so all of
them together take ceil(log2 t_used) merge rounds.

`linear_size_spanner` is the O(n)-edge construction: a tower-of-logs
phase schedule where phase i runs g_i sampled clustering iterations at
probability 1/x_i on the current cluster graph, contracts the surviving
clustering, and recurses; the Baswana-Sen final pass kills whatever
remains and asserts that no node or edge survives it (a no-op once n is
astronomically large, but it makes the construction unconditionally
correct for every n and every alpha0).
The phase count is the largest P with log2^(P)(n) >= alpha0.  With the
default alpha0 = 2**16 every desk-scale input has P = 0; a smaller
alpha0 (>= 4) exercises the phase machinery and is used by the tests.

`x_seq_holds` checks the scheduling inequality

    x log x <= alpha <= y^z,
    x = alpha/log alpha, y = log alpha/log log alpha,
    z = y (1 + 2 log log y / log y)        (logs base 2)

which drives the phase accounting.  Both sides reduce to a closed
form (proved in `x_seq_holds`): the left inequality always holds for
alpha > 4, and the right one holds exactly from alpha = 2**16 upward
(with equality at 2**16, where y = 4 and z = 8) and fails below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .baswana_sen import final_pass, initial_state, run_g_iterations
from .clustering import compose_spanner, contract
from .errors import SEED_RANGE, InvariantViolation, ParameterError, check_int, check_rational
from .graph import EdgeSet, Graph
from .rational import ceil_log2, log_factor
# `partition` is not called here; perfbench's tracer still looks it up by this name.
from .stretch_friendly import partition, partitions  # noqa: F401
from .verify import measure_stretch

DEFAULT_ALPHA0 = 1 << 16


# ---------------------------------------------------------------------------
# The x log x <= alpha <= y^z inequality
# ---------------------------------------------------------------------------


def x_seq_holds(alpha) -> tuple[bool, bool]:
    """(x log x <= alpha, alpha <= y^z) for a rational alpha > 4, decided
    exactly: it is (True, alpha >= 2**16).

    Logs are base 2; let la = log alpha and L = log la, so L > 1.
    Left: x log x = alpha (la - L) / la < alpha.  Right: y = la / L,
    ly = log y = L - log L > 0 and log(y^z) = z ly = y (ly + 2 log ly).
    As la = y L, alpha <= y^z iff L <= ly + 2 log ly iff (L = ly + log L)
    log L <= 2 log ly iff sqrt(L) <= ly, i.e. g(L) >= 0 for
    g(u) = u - log u - sqrt(u).  g is strictly convex (g'' = 1/(u**2 ln 2)
    + u**(-3/2)/4 > 0) with g(1) = g(4) = 0, so for L > 1, g(L) >= 0
    exactly when L >= 4, i.e. alpha >= 2**16.
    """
    alpha = check_rational("alpha", alpha, lo=4, open_lo=True)
    return True, alpha >= 1 << 16


# ---------------------------------------------------------------------------
# Linear-size spanner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseReport:
    nodes: int
    x: float
    g: int
    p: Fraction
    added: int
    budget: Fraction | None  # derandomized mode only
    survivors: int


@dataclass(frozen=True)
class LinearSizeReport:
    phases: tuple[PhaseReport, ...]
    final_pass_added: int
    total: int


def _log_tower(n: int, alpha0: float) -> list[float]:
    """[n, log n, ..., log^(P) n, log^(P+1) n] where P is the largest
    index with log^(P) n >= alpha0; the extra level feeds the last
    x-sequence denominator."""
    vals = [float(n)]
    while vals[-1] > 1 and math.log2(vals[-1]) >= alpha0:
        vals.append(math.log2(vals[-1]))
    vals.append(math.log2(vals[-1]) if vals[-1] > 1 else 1.0)
    return vals


def linear_size_spanner(
    graph: Graph,
    *,
    mode: str = "derandomized",
    seed: int = 0,
    alpha0: float = DEFAULT_ALPHA0,
    iota: int = 64,
) -> EdgeSet:
    """O(n)-edge spanner for weighted and unweighted graphs.

    mode "randomized" samples clusters with derived coins; mode
    "derandomized" fixes the sample bits by conditional expectation and
    is bit-identical across runs.  In derandomized mode each phase's
    edge count is checked against its budget.  Stretch is certified
    empirically by the callers (measure_stretch / verify_stretch).  The
    result's `report` is a `LinearSizeReport`.
    """
    if mode not in ("randomized", "derandomized"):
        raise ParameterError(f"unknown mode {mode!r}")
    check_rational("alpha0", alpha0, lo=4)  # and read as a float by the log tower
    seed, iota = check_int("seed", seed, **SEED_RANGE), check_int("iota", iota, lo=1)
    deterministic = mode == "derandomized"
    i_w = 1 if graph.weighted else 0

    tower = _log_tower(max(graph.n, 2), alpha0)
    phase_count = len(tower) - 2  # largest P with log^(P)(n) >= alpha0
    # x_i = log^(P-i+1) n / log^(P-i+2) n, growing from iterated-log scale up
    # to log n / log log n in the last phase.
    xs = [tower[phase_count - i + 1] / tower[phase_count - i + 2] for i in range(1, phase_count + 1)]

    current = graph
    lineage: list[int] = list(range(graph.m))  # current edge id -> original edge id
    added: set[int] = set()
    phases: list[PhaseReport] = []

    for i, x in enumerate(xs, start=1):
        if current.n <= 1 or current.m == 0:
            break
        if x >= current.n:  # sampling probability would leave (1/n, 1)
            break
        g_i = math.ceil((1 + i_w) * x * (1 + 2 * math.log2(math.log2(x)) / math.log2(x)))
        p = Fraction(round((1 << 20) / x), 1 << 20)
        if not (Fraction(1, current.n) < p < 1):
            break
        edges_i, clustering, _ = run_g_iterations(
            current,
            g_i,
            p,
            seed,
            deterministic=deterministic,
            iota=iota,
            salt=f"linear-phase-{i}".encode(),
        )
        budget = None
        if deterministic:
            n_i = current.n
            if current.weighted:
                budget = g_i * iota * n_i / p
            else:
                ln_g = log_factor(g_i)
                budget = g_i * n_i + n_i * ln_g / p + iota * n_i * ln_g / p
            if len(edges_i) > budget:
                raise InvariantViolation(
                    f"phase {i}: added {len(edges_i)} edges, budget {budget}"
                )
        added.update(lineage[eid] for eid in edges_i.ids)
        phases.append(PhaseReport(current.n, x, g_i, p, len(edges_i), budget, len(clustering)))
        if len(clustering) == 0:
            current = None
            break
        cg = contract(current, clustering)
        lineage = [lineage[cg.witness[eid]] for eid in range(cg.graph.m)]
        current = cg.graph

    final_added = 0
    if current is not None and current.m > 0:
        final = final_pass(initial_state(current))
        final_added = len(final.spanner)
        added.update(lineage[eid] for eid in final.spanner)

    return EdgeSet(graph, frozenset(added), LinearSizeReport(tuple(phases), final_added, len(added)))


# ---------------------------------------------------------------------------
# Ultra-sparse reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UltraSparseReport:
    t: int
    t_used: int
    bound: int
    size: int
    cluster_count: int
    partition_radius: int
    inner_size: int
    retries: int
    inner_stretch: Fraction | float | None = None
    stretch: Fraction | float | None = None
    stretch_bound: Fraction | None = None


def ultra_sparse_spanner(
    graph: Graph,
    t: int,
    inner: Callable[[Graph], EdgeSet] | None = None,
    *,
    verify: bool = False,
) -> EdgeSet:
    """Spanner with at most n + ceil(n/t) edges (hard assertion).

    `inner` produces a sparse spanner of a cluster graph (default: the
    derandomized linear-size construction).  Composed stretch obeys
    (2r+1)(alpha+1)-1 for partition radius r and inner stretch alpha;
    with `verify=True` both stretches are measured exactly and the
    result's `report`, an `UltraSparseReport`, carries the certified bound.
    Each doubling of t' resumes the partition with one more merge round.
    """
    t = check_int("t", t, lo=1)
    if inner is None:
        inner = lambda g: linear_size_spanner(g, mode="derandomized")  # noqa: E731
    n = graph.n
    bound = n + math.ceil(n / t)
    for attempt, clustering in zip(range(ceil_log2(max(n, 2)) + 3), partitions(graph, t)):
        cg = contract(graph, clustering)
        inner_edges = inner(cg.graph)
        composed = compose_spanner(cg, inner_edges)
        if len(composed) <= bound:
            inner_stretch = stretch = stretch_bound = None
            if verify:
                inner_stretch, _ = measure_stretch(cg.graph, inner_edges.ids)
                stretch, _ = measure_stretch(graph, composed.ids)
                if not math.isinf(inner_stretch):
                    r = clustering.max_radius()
                    stretch_bound = (2 * r + 1) * (Fraction(inner_stretch) + 1) - 1
                    if not math.isinf(stretch) and stretch > stretch_bound:
                        raise InvariantViolation(
                            f"composed stretch {stretch} exceeds bound {stretch_bound}"
                        )
            report = UltraSparseReport(
                t=t,
                t_used=t << attempt,
                bound=bound,
                size=len(composed),
                cluster_count=len(clustering.clusters),
                partition_radius=clustering.max_radius(),
                inner_size=len(inner_edges),
                retries=attempt,
                inner_stretch=inner_stretch,
                stretch=stretch,
                stretch_bound=stretch_bound,
            )
            return replace(composed, report=report)
    raise InvariantViolation("partition parameter doubling did not converge")
