"""Deterministic cluster sampling via the method of conditional expectation.

Each sampling step of the clustering-based spanner is replaced by a
greedy bit-fixing pass over a utility function that simultaneously
penalizes (a) too many surviving clusters, (b) too many edges added this
iteration, and (c) any high-degree node dying:

    weighted:    U = iota/p^(i+1) * sum_j X_j + sum_v (b_v + n^5 h_v)
    unweighted:  U = iota*L/(g p^(i+1)) * sum_j X_j + sum_v (b_v + n^5 h_v)

where X_j is the per-cluster sample bit, b_v counts the edges node v
adds under the assignment (unweighted mode only counts dying nodes with
more than tau = L/p adjacent clusters; survivors add at most one edge
there, and small-degree deaths are within budget deterministically),
h_v flags a dying node with at least xi = 10 ln(n)/p adjacent clusters,
and L = max(1, ln g).  Expectations are taken against the product
measure that samples every unset bit independently with probability
q = p/4; fixing each bit to the side that does not increase the
conditional expectation yields an assignment whose utility is at most
the initial expectation, which is below the target budget when iota is
large enough — objectives (a)-(c) then all hold and are re-checked at
runtime.

All arithmetic is exact, in plain integers.  With q = a/b, every bit
marginal is scaled by b: an unset bit is (b-a, a), a bit fixed to 0 is
(b, 0), a bit fixed to 1 is (0, b).  Each node term is then the integer
b^K (E[b_v] + n^5 E[h_v]) with K = max d_v + 1, E[U] is one integer over
the fixed denominator coef.denominator * b^K, and the budget check
cross-multiplies.  Since E = (1-q) E0 + q E1, E0 <= E1 exactly when
E0 <= E, so fixing a bit evaluates only its 0-branch over the affected
nodes; when 1 wins, the new total and node terms follow from
b T = (b-a) T0 + a T1, a division that must leave no remainder.
Conditional expectations match brute-force enumeration over the unset
bits bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .baswana_sen import BSState, NodeAdjacency, SampleVector, _spanner, build_adjacency
from .errors import ConfigurationError, InvariantViolation, ParameterError, check_int, check_rational
from .graph import EdgeSet, Graph
from .rational import log_factor, rat_ln_upper

# A partial assignment maps each cluster bit to 0, 1, or None (unset).
PartialAssignment = Sequence["int | None"]


@dataclass(frozen=True)
class UtilityContext:
    """Fixed quantities of one derandomized sampling step."""

    n: int  # node count the run started with (cluster count of iteration 1)
    iteration: int  # 1-based index within the run
    p: Fraction  # sampling probability of the run
    g: int  # total sampled iterations of the run
    weighted: bool
    iota: int
    q: Fraction  # measure for unset bits: p/4
    ln_g: Fraction  # L = max(1, ln g), rational upper bound
    tau: Fraction  # unweighted ignore threshold L/p
    xi: Fraction  # high-degree cutoff, default 10 ln(n)/p
    coef: Fraction  # coefficient of the cluster-count term
    target: Fraction  # budget the initial expectation must stay under

    @classmethod
    def create(
        cls,
        n: int,
        iteration: int,
        p: Fraction | int,
        g: int,
        weighted: bool,
        iota: int = 64,
        xi: Fraction | None = None,
    ) -> "UtilityContext":
        p = check_rational("p", p, lo=0, hi=1, open_lo=True, open_hi=True)
        g, iota = check_int("g", g, lo=1), check_int("iota", iota, lo=1)
        iteration = check_int("iteration", iteration, lo=1, hi=g)
        ln_g = log_factor(g)
        tau = ln_g / p
        if xi is None:
            xi = 10 * rat_ln_upper(max(n, 2)) / p
        if weighted:
            coef = iota / p ** (iteration + 1)
            target = iota * n / p
        else:
            coef = iota * ln_g / (g * p ** (iteration + 1))
            target = iota * n * ln_g / (p * g)
        return cls(n, iteration, p, g, weighted, iota, p / 4, ln_g, tau, xi, coef, target)


class _ScaledUtility:
    """E[U | partial] as one integer over `den` = coef.denominator * b^K.

    See the module docstring for the scaling.  Nodes whose term is
    identically zero (nothing counted, no h penalty) are left out.
    """

    def __init__(
        self,
        views: Mapping[int, NodeAdjacency],
        ctx: UtilityContext,
        partial: PartialAssignment,
    ):
        a, b = ctx.q.numerator, ctx.q.denominator
        self.a, self.b = a, b
        self.weighted = ctx.weighted
        self.p0 = [b - a if x is None else (0 if x else b) for x in partial]
        self.p1 = [b - x for x in self.p0]
        top = max((view.d for view in views.values()), default=0)  # K - 1
        self.bpow = [b**e for e in range(top + 1)]
        self.coef_num, self.coef_den = ctx.coef.numerator, ctx.coef.denominator
        self.den = self.coef_den * b * self.bpow[top]
        n5 = ctx.n**5
        # node -> (own cluster, non-own clusters in scan order, their
        # adds_if_first, weight of the "nothing sampled" tail)
        self.nodes: dict[int, tuple[int, tuple[int, ...], tuple[int, ...], int]] = {}
        affected_sets: list[set[int]] = [set() for _ in partial]
        for v, view in views.items():
            d = view.d
            tail = (d if ctx.weighted or d > ctx.tau else 0) + (n5 if d >= ctx.xi else 0)
            if not tail:
                continue
            keep = [j for j, c in enumerate(view.clusters) if c != view.own]
            clusters = tuple(view.clusters[j] for j in keep)
            self.nodes[v] = (view.own, clusters, tuple(view.adds_if_first[j] for j in keep), tail)
            # a node depends on its own bit and on every adjacent cluster's
            affected_sets[view.own].add(v)
            for c in clusters:
                affected_sets[c].add(v)
        self.affected = [sorted(s) for s in affected_sets]
        self.terms = {v: self._term(node) for v, node in self.nodes.items()}
        self.total = (
            self.coef_num * sum(self.p1) * self.bpow[top] + self.coef_den * sum(self.terms.values())
        )

    def _term(self, node) -> int:
        """b^K * (E[b_v] + n^5 E[h_v]) under the current marginals.

        The whole contribution is gated by P[own bit = 0]; inside that
        world the own entry is a certain zero (left out of the scan).  The
        first-sampled sum is accumulated Horner-style in powers of b.
        """
        own, clusters, adds, tail = node
        gate = self.p0[own]
        if not gate:
            return 0
        p0, p1, b, bpow = self.p0, self.p1, self.b, self.bpow
        left = len(bpow) - 1  # powers of b still owed to reach b^(K-1)
        acc = 0
        pref = 1
        if self.weighted:
            for c, w in zip(clusters, adds):
                left -= 1
                acc = acc * b + pref * p1[c] * w
                pref *= p0[c]
                if not pref:
                    return gate * acc * bpow[left]
        else:
            for c in clusters:
                left -= 1
                pref *= p0[c]
                if not pref:
                    return 0
        return gate * (acc + pref * tail) * bpow[left]

    def value(self, total: int) -> Fraction:
        return Fraction(total, self.den)

    def zero_branch(self, j: int) -> tuple[int, dict[int, int]]:
        """Total and affected node terms with unset bit j fixed to 0."""
        p0, p1 = self.p0, self.p1
        saved = p0[j], p1[j]
        p0[j], p1[j] = self.b, 0
        terms = {v: self._term(self.nodes[v]) for v in self.affected[j]}
        p0[j], p1[j] = saved
        total = (
            self.total
            - self.coef_num * saved[1] * self.bpow[-1]
            + self.coef_den * sum(t - self.terms[v] for v, t in terms.items())
        )
        return total, terms

    def one_branch(self, j: int, total0: int, terms0: dict[int, int]) -> tuple[int, dict[int, int]]:
        """The bit-1 branch of unset bit j, from b*T = (b-a)*T0 + a*T1."""
        a, b = self.a, self.b

        def derive(t: int, t0: int) -> int:
            t1, rem = divmod(b * t - (b - a) * t0, a)
            if rem:
                raise InvariantViolation(f"bit {j}: b*T - (b-a)*T0 is not a multiple of a={a}")
            return t1

        return derive(self.total, total0), {v: derive(self.terms[v], t) for v, t in terms0.items()}

    def fix(self, j: int, bit: int, total: int, terms: dict[int, int]) -> None:
        self.p0[j], self.p1[j] = (0, self.b) if bit else (self.b, 0)
        self.terms.update(terms)
        self.total = total


def conditional_expectation(
    state: BSState, ctx: UtilityContext, partial: PartialAssignment
) -> Fraction:
    """E[U | fixed bits], exactly, under Bernoulli(q) for the unset bits.

    With every bit fixed this is a pure evaluation of the utility.
    """
    if len(partial) != len(state.clustering.clusters):
        raise ParameterError("partial assignment length mismatch")
    utility = _ScaledUtility(build_adjacency(state), ctx, partial)
    return utility.value(utility.total)


def fix_bits(
    state: BSState,
    ctx: UtilityContext,
    *,
    enforce_target: bool = True,
    views: Mapping[int, NodeAdjacency] | None = None,
) -> SampleVector:
    """Greedily fix every cluster bit without increasing E[U].

    Bits are fixed in ascending cluster order; each is set to the value
    whose conditional expectation is not larger (ties prefer 0).  The
    final assignment A satisfies U(A) <= E[U], so when the initial
    expectation is below the target budget, the three objectives hold:
    at most n*p^i clusters survive, the counted edge additions stay
    within budget, and no high-degree node dies.  Raises
    ConfigurationError when the initial expectation already exceeds the
    target (iota too small for this instance) unless `enforce_target`
    is off, in which case only the monotone-descent guarantee applies.
    `views` are the state's adjacency views if the caller has them.
    """
    if views is None:
        views = build_adjacency(state)
    utility = _ScaledUtility(views, ctx, [None] * len(state.clustering.clusters))
    target = ctx.target
    if enforce_target and utility.total * target.denominator > target.numerator * utility.den:
        raise ConfigurationError(
            f"initial E[U] = {utility.value(utility.total)} exceeds budget {ctx.target}; "
            f"raise iota (currently {ctx.iota})"
        )

    bits = []
    for j in range(len(state.clustering.clusters)):
        total = utility.total
        # E = (1-q) E0 + q E1, so E0 <= E1 exactly when E0 <= E; ties prefer 0.
        new_total, new_terms = utility.zero_branch(j)
        bit = int(new_total > total)
        if bit:
            new_total, new_terms = utility.one_branch(j, new_total, new_terms)
        if new_total > total:
            raise InvariantViolation(
                f"conditional expectation increased fixing bit {j}: "
                f"{utility.value(total)} -> {utility.value(new_total)}"
            )
        utility.fix(j, bit, new_total, new_terms)
        bits.append(bool(bit))

    return tuple(bits)


def check_objectives(after: BSState, ctx: UtilityContext) -> None:
    """Re-check objectives (a)-(c) on the executed iteration's stats."""
    stats = after.stats
    if stats is None:
        raise ParameterError("state carries no iteration stats")
    if len(after.clustering.clusters) > ctx.n * ctx.p**ctx.iteration:
        raise InvariantViolation(
            f"objective (a): {len(after.clustering.clusters)} clusters survive, "
            f"budget {ctx.n * ctx.p ** ctx.iteration}"
        )
    if ctx.weighted:
        added = sum(stats.added_per_node.values())
    else:
        added = sum(
            stats.added_per_node[v] for v in stats.died if stats.adjacent_counts[v] > ctx.tau
        )
    if added > ctx.target:
        raise InvariantViolation(
            f"objective (b): {added} edges added, budget {ctx.target}"
        )
    for v in stats.died:
        if stats.adjacent_counts[v] >= ctx.xi:
            raise InvariantViolation(f"objective (c): high-degree node {v} died")


def deterministic_spanner(
    graph: Graph, k: int, *, iota: int = 64, enforce_budget: bool = True
) -> EdgeSet:
    """(2k-1)-spanner with derandomized sampling; bit-identical across runs."""
    return _spanner(graph, k, deterministic=True, iota=check_int("iota", iota, lo=1), enforce_budget=enforce_budget)
