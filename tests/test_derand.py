from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from sparsekit.baswana_sen import initial_state, random_samples, run_iteration
from sparsekit.derand import (
    UtilityContext,
    check_objectives,
    conditional_expectation,
    deterministic_spanner,
    fix_bits,
)
from sparsekit.errors import ConfigurationError, InvariantViolation, ParameterError
from sparsekit.graph import Graph
from sparsekit.verify import verify_stretch

from conftest import gnp_graph


def enumerate_expectation(state, ctx, partial) -> Fraction:
    """Brute-force E[U | partial]: weight every completion by its q-measure."""
    q = ctx.q
    unset = [j for j, b in enumerate(partial) if b is None]
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(unset)):
        full = list(partial)
        prob = Fraction(1)
        for j, b in zip(unset, bits):
            full[j] = b
            prob *= q if b else 1 - q
        total += prob * conditional_expectation(state, ctx, full)
    return total


def mid_state(graph, p, seed=1):
    """One random iteration in, so clusters have real trees and inside edges."""
    st = initial_state(graph)
    return run_iteration(st, random_samples(st, p, seed))


def test_ce_fully_fixed_is_pure_evaluation():
    g = Graph(3, [(0, 1, 2), (1, 2, 3), (0, 2, 5)])
    st = initial_state(g)
    ctx = UtilityContext.create(n=3, iteration=1, p=Fraction(1, 2), g=1, weighted=True)
    # all clusters sampled: nobody acts, so U = coef * 3
    assert conditional_expectation(st, ctx, [1, 1, 1]) == ctx.coef * 3
    # none sampled: every node dies; node 0 adds 2 edges, node 1 adds 2,
    # node 2 adds 2 (each has two adjacent singleton clusters)
    assert conditional_expectation(st, ctx, [0, 0, 0]) == Fraction(6)


def test_ce_isolated_nodes_leave_cluster_term_only():
    g = Graph(4, [])
    st = initial_state(g)
    ctx = UtilityContext.create(n=4, iteration=1, p=Fraction(1, 3), g=2, weighted=True)
    assert conditional_expectation(st, ctx, [None] * 4) == ctx.coef * 4 * ctx.q


def test_ce_hand_computed_first_sampled_positions():
    # star center 0 with spokes of weight 1 < 2 < 3 to singleton clusters:
    # E[b_0] = P(own unsampled) * sum_j P(first sampled at j) * adds_j
    #        + P(nothing sampled) * 3, matching the 2^3 enumeration.
    g = Graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
    st = initial_state(g)
    ctx = UtilityContext.create(n=4, iteration=1, p=Fraction(2, 5), g=1, weighted=True)
    got = conditional_expectation(st, ctx, [None] * 4)
    assert got == enumerate_expectation(st, ctx, [None] * 4)


@pytest.mark.parametrize("weighted", [True, False])
def test_ce_matches_enumeration_random(weighted):
    rng = random.Random(99 if weighted else 98)
    for _ in range(20):
        n = rng.randint(4, 11)
        g = gnp_graph(n, 0.5, seed=rng.randrange(10**6), weighted=weighted, max_weight=9)
        p = Fraction(1, rng.randint(2, 3))
        st = mid_state(g, p, seed=rng.randrange(100))
        if not st.clustering.clusters:
            continue
        c = len(st.clustering.clusters)
        ctx = UtilityContext.create(n=n, iteration=2, p=p, g=3, weighted=weighted)
        partial = [rng.choice([None, None, 0, 1]) for _ in range(c)]
        assert conditional_expectation(st, ctx, partial) == enumerate_expectation(st, ctx, partial)


def test_fix_bits_dominates_enumeration_minimum():
    # greedy's final utility is sandwiched: min over the cube <= U(greedy) <= E[U]
    rng = random.Random(5)
    for _ in range(6):
        g = gnp_graph(9, 0.5, seed=rng.randrange(10**6), weighted=True, max_weight=7)
        st = initial_state(g)
        ctx = UtilityContext.create(n=9, iteration=1, p=Fraction(1, 2), g=1, weighted=True)
        e0 = conditional_expectation(st, ctx, [None] * 9)
        samples = fix_bits(st, ctx, enforce_target=False)
        u_greedy = conditional_expectation(st, ctx, [int(b) for b in samples])
        u_min = min(
            conditional_expectation(st, ctx, list(bits))
            for bits in itertools.product((0, 1), repeat=9)
        )
        assert u_min <= u_greedy <= e0


def test_fix_bits_single_cluster():
    g = Graph(2, [(0, 1, 4)])
    st = initial_state(g)
    ctx = UtilityContext.create(n=2, iteration=1, p=Fraction(1, 2), g=1, weighted=True)
    samples = fix_bits(st, ctx, enforce_target=False)
    u = conditional_expectation(st, ctx, [int(b) for b in samples])
    assert u <= conditional_expectation(st, ctx, [None, None])


def test_fix_bits_never_kills_high_degree_node():
    # Hub adjacent to 8 singleton clusters; an explicit small cutoff makes
    # it "high degree".  Raw sampling at p = 1/8 kills it for some seed,
    # but the n^5 penalty steers the greedy into a zero-death assignment
    # (one exists: sample anything near the hub).
    g = Graph(9, [(0, i, 1) for i in range(1, 9)], weighted=False)
    st = initial_state(g)
    p = Fraction(1, 8)
    ctx = UtilityContext.create(
        n=9, iteration=1, p=p, g=1, weighted=False, xi=Fraction(5)
    )
    killed_by_chance = any(
        0 in run_iteration(st, random_samples(st, p, seed)).stats.died
        for seed in range(50)
    )
    assert killed_by_chance  # raw sampling does kill it sometimes
    zero_h_exists = any(
        any(bits) for bits in itertools.product((0, 1), repeat=9)
    )
    assert zero_h_exists
    samples = fix_bits(st, ctx, enforce_target=False)
    after = run_iteration(st, samples)
    assert 0 not in after.stats.died


def test_fix_bits_target_enforcement():
    g = Graph(9, [(0, i, 1) for i in range(1, 9)], weighted=False)
    st = initial_state(g)
    ctx = UtilityContext.create(
        n=9, iteration=1, p=Fraction(1, 8), g=1, weighted=False, xi=Fraction(5)
    )
    # the hub's n^5 h-term pushes the initial expectation over the budget
    with pytest.raises(ConfigurationError):
        fix_bits(st, ctx)


def test_objectives_checked_after_iteration():
    g = gnp_graph(16, 0.4, seed=1, weighted=True)
    st = initial_state(g)
    p = Fraction(1, 2)
    ctx = UtilityContext.create(n=16, iteration=1, p=p, g=1, weighted=True)
    samples = fix_bits(st, ctx)
    after = run_iteration(st, samples)
    check_objectives(after, ctx)  # must not raise
    assert len(after.clustering.clusters) <= 16 * p


def test_context_validation():
    with pytest.raises(ParameterError):
        UtilityContext.create(n=5, iteration=1, p=Fraction(0), g=1, weighted=True)
    with pytest.raises(ParameterError):
        UtilityContext.create(n=5, iteration=3, p=Fraction(1, 2), g=2, weighted=True)


def test_deterministic_spanner_repeatable_and_correct():
    for seed in (0, 1):
        g = gnp_graph(30, 0.25, seed=200 + seed, weighted=bool(seed), max_weight=12)
        for k in (1, 2, 3):
            a = deterministic_spanner(g, k)
            b = deterministic_spanner(g, k)
            assert a.ids == b.ids
            assert verify_stretch(g, a, 2 * k - 1).ok
    assert deterministic_spanner(gnp_graph(10, 0.5, seed=7), 1).ids == frozenset(
        range(gnp_graph(10, 0.5, seed=7).m)
    )


# -- bit identity of the greedy across evaluator rewrites ------------------------

FIX_BITS_DIGEST = "88daa1986b98eb1e7be5a2494e867c00dcb777328fa06e85987ee663cdea31c3"


def fix_bits_transcript(monkeypatch) -> str:
    """Every sample vector fix_bits returns, per construction, in call order."""
    from sparsekit import derand, generate, ultra_sparse

    calls = []
    real = derand.fix_bits

    def recording(*args, **kwargs):
        samples = real(*args, **kwargs)
        calls.append(samples)
        return samples

    monkeypatch.setattr(derand, "fix_bits", recording)
    gu = generate.gnp(64, 0.25, seed=1)
    gw = generate.gnp(64, 0.25, seed=2, weighted=True)
    runs = [
        ("bs-det-u", lambda: derand.deterministic_spanner(gu, 3)),
        ("bs-det-w", lambda: derand.deterministic_spanner(gw, 3)),
        ("linear-det-u", lambda: ultra_sparse.linear_size_spanner(gu, mode="derandomized", alpha0=4)),
        # iota = 1 breaks the budget but makes the greedy pick many 1-bits
        ("bs-det-u-iota1", lambda: derand.deterministic_spanner(gu, 3, iota=1, enforce_budget=False)),
        ("bs-det-w-iota1", lambda: derand.deterministic_spanner(gw, 3, iota=1, enforce_budget=False)),
    ]
    lines = []
    for name, run in runs:
        calls.clear()
        run()
        assert calls, name
        lines.append(name + ":" + ",".join("".join("01"[b] for b in s) for s in calls))
    return "\n".join(lines)


def test_fix_bits_sample_vectors_pinned(monkeypatch):
    transcript = fix_bits_transcript(monkeypatch)
    assert hashlib.sha256(transcript.encode()).hexdigest() == FIX_BITS_DIGEST


def test_full_assignment_utility_matches_run_iteration():
    # With every bit fixed, E[U | A] is U(A), which must agree with what
    # run_iteration does under A: coef * sum(A), plus the edges counted in
    # added_per_node (every node when weighted, dying nodes with d > tau
    # otherwise), plus n^5 for each dying node with d >= xi.
    rng = random.Random(4242)
    boundary = 0  # dying nodes with d == xi, where >= and > disagree
    for _ in range(120):
        n = rng.randint(4, 12)
        weighted = rng.random() < 0.5
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=rng.randrange(10**6), weighted=weighted, max_weight=9)
        p = Fraction(rng.randint(1, 3), rng.randint(4, 7))
        st = initial_state(g) if rng.random() < 0.3 else mid_state(g, p, seed=rng.randrange(100))
        xi = rng.choice([None, Fraction(rng.randint(1, 4))])
        ctx = UtilityContext.create(
            n=n, iteration=st.iteration, p=p, g=st.iteration + 1, weighted=weighted, xi=xi
        )
        bits = [rng.choice([0, 0, 1]) for _ in st.clustering.clusters]
        stats = run_iteration(st, tuple(map(bool, bits))).stats
        d = stats.adjacent_counts
        counted = sum(
            added
            for v, added in stats.added_per_node.items()
            if weighted or (v in stats.died and d[v] > ctx.tau)
        )
        high = sum(1 for v in stats.died if d[v] >= ctx.xi)
        boundary += sum(1 for v in stats.died if d[v] == ctx.xi)
        assert conditional_expectation(st, ctx, bits) == ctx.coef * sum(bits) + counted + n**5 * high
    assert boundary > 0


def test_one_branch_derivation_matches_direct_evaluation():
    # Random mid-run states: a random iteration in (or none), then a random
    # partial assignment, as fix_bits sees it halfway through.  For every
    # unset bit, both branches must equal the directly evaluated utility.
    from sparsekit.baswana_sen import build_adjacency
    from sparsekit.derand import _ScaledUtility

    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 12)
        weighted = rng.random() < 0.5
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=rng.randrange(10**6), weighted=weighted, max_weight=9)
        p = Fraction(rng.randint(1, 3), rng.randint(4, 7))  # q = p/4 with numerator > 1 too
        st = initial_state(g) if rng.random() < 0.3 else mid_state(g, p, seed=rng.randrange(100))
        if not st.clustering.clusters:
            continue
        xi = rng.choice([None, Fraction(rng.randint(1, 4))])  # small xi engages the n^5 term
        ctx = UtilityContext.create(
            n=n, iteration=st.iteration, p=p, g=st.iteration + 1, weighted=weighted, xi=xi
        )
        c = len(st.clustering.clusters)
        partial = [rng.choice([None, None, 0, 1]) for _ in range(c)]
        views = build_adjacency(st)
        utility = _ScaledUtility(views, ctx, partial)
        assert utility.value(utility.total) == conditional_expectation(st, ctx, partial)
        for j in (j for j in range(c) if partial[j] is None):
            total0, terms0 = utility.zero_branch(j)
            total1, terms1 = utility.one_branch(j, total0, terms0)
            for bit, total, terms in ((0, total0, terms0), (1, total1, terms1)):
                fixed = list(partial)
                fixed[j] = bit
                assert utility.value(total) == conditional_expectation(st, ctx, fixed)
                direct = _ScaledUtility(views, ctx, fixed)
                assert terms == {v: direct.terms[v] for v in terms}
        checked += 1


def test_inexact_one_branch_is_an_invariant_violation():
    from sparsekit.baswana_sen import build_adjacency
    from sparsekit.derand import _ScaledUtility

    g = gnp_graph(8, 0.6, seed=3, weighted=True, max_weight=9)
    st = initial_state(g)
    ctx = UtilityContext.create(n=8, iteration=1, p=Fraction(3, 5), g=2, weighted=True)
    assert ctx.q.numerator > 1
    utility = _ScaledUtility(build_adjacency(st), ctx, [None] * 8)
    total0, terms0 = utility.zero_branch(0)
    with pytest.raises(InvariantViolation):
        utility.one_branch(0, total0 + 1, terms0)


@pytest.mark.parametrize("weighted", [True, False])
def test_bit_walk_matches_a_fresh_evaluation_after_every_step(weighted):
    # A whole bit sequence with random bits, as fix_bits walks it: after each
    # step the running total and node terms equal a utility built afresh on
    # the partial assignment so far.  A small xi engages the n^5 term.
    from sparsekit.baswana_sen import build_adjacency
    from sparsekit.derand import _ScaledUtility

    rng = random.Random(31 if weighted else 32)
    walks = high = 0
    while walks < 25:
        n = rng.randint(5, 14)
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.8]), seed=rng.randrange(10**6), weighted=weighted, max_weight=9)
        p = Fraction(rng.randint(1, 3), rng.randint(4, 7))
        st = initial_state(g) if rng.random() < 0.3 else mid_state(g, p, seed=rng.randrange(100))
        c = len(st.clustering.clusters)
        if not c:
            continue
        ctx = UtilityContext.create(
            n=n, iteration=st.iteration, p=p, g=st.iteration + 1, weighted=weighted, xi=Fraction(rng.randint(1, 3))
        )
        views = build_adjacency(st)
        utility = _ScaledUtility(views, ctx, [None] * c)
        high += any(view.d >= ctx.xi for view in views.values())
        partial: list[int | None] = [None] * c
        for j in range(c):
            bit = rng.randint(0, 1)
            total, terms = utility.zero_branch(j)
            if bit:
                total, terms = utility.one_branch(j, total, terms)
            utility.fix(j, bit, total, terms)
            partial[j] = bit
            fresh = _ScaledUtility(views, ctx, partial)
            assert (utility.total, utility.terms) == (fresh.total, fresh.terms), (walks, j)
        walks += 1
    assert high > 0


def test_inexact_zero_branch_is_an_invariant_violation():
    # A product term must be a multiple of the factor b-a that bit j
    # contributes; a term that is not makes T*b/(b-a) inexact.
    from sparsekit.baswana_sen import build_adjacency
    from sparsekit.derand import _ScaledUtility

    g = gnp_graph(8, 0.6, seed=3)
    st = initial_state(g)
    ctx = UtilityContext.create(n=8, iteration=1, p=Fraction(1, 2), g=2, weighted=False, xi=Fraction(1))
    utility = _ScaledUtility(build_adjacency(st), ctx, [None] * 8)
    v = next(v for v in utility.affected[0] if utility.terms[v])
    utility.terms[v] += 1
    with pytest.raises(InvariantViolation, match=f"node {v}'s term is not a multiple"):
        utility.zero_branch(0)


def test_fix_bits_rejects_an_increasing_step(monkeypatch):
    from sparsekit.derand import _ScaledUtility

    g = gnp_graph(12, 0.5, seed=4, weighted=True, max_weight=9)
    st = initial_state(g)
    ctx = UtilityContext.create(n=12, iteration=1, p=Fraction(1, 2), g=1, weighted=True, iota=1)
    assert any(fix_bits(st, ctx, enforce_target=False))  # the 1-branch is taken
    monkeypatch.setattr(
        _ScaledUtility, "one_branch", lambda self, j, total0, terms0: (self.total + 1, terms0)
    )
    with pytest.raises(InvariantViolation, match="conditional expectation increased"):
        fix_bits(st, ctx, enforce_target=False)
