from __future__ import annotations

import hashlib
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import ultra_sparse
from sparsekit.errors import ParameterError
from sparsekit.graph import EdgeSet
from sparsekit.ultra_sparse import linear_size_spanner, ultra_sparse_spanner, x_seq_holds
from sparsekit.verify import measure_stretch, verify_stretch

from conftest import SUBPROCESS_ENV, connected_gnp, gnp_graph


# -- the scheduling inequality -------------------------------------------------


def test_x_seq_exact_boundary_case():
    # alpha = 2^16: y = 4, z = 8, y^z = 65536 = alpha — equality on the
    # right, decided exactly (not by floating point).
    left, right = x_seq_holds(1 << 16)
    assert left and right
    # the chain in integers, each log exact: la = log alpha, L = log la, ly = log y
    la, L, ly = 16, 4, 2
    assert 1 << la == 1 << 16 and 1 << L == la
    y = la // L
    assert y * L == la and 1 << ly == y
    z = y * (ly + 2 * 1) // ly  # z = y (1 + 2 log ly / ly), log ly = 1
    assert y == 4 and z == 8 and 4**8 == 2**16 == y**z


@pytest.mark.parametrize("k", [30, 36, 45, 60, 100])
@pytest.mark.parametrize("sign", [-1, 1])
def test_x_seq_decides_next_to_the_boundary(k, sign):
    alpha = (1 << 16) + sign * Fraction(1, 10**k)
    assert x_seq_holds(alpha) == (True, alpha >= 1 << 16) == (True, sign > 0)


def _x_seq_margins(alpha: Fraction) -> tuple[float, float]:
    """log2(alpha) - log2(x log x) and log2(y^z) - log2(alpha), in floats."""
    la = math.log2(alpha.numerator) - math.log2(alpha.denominator)
    lx = la - math.log2(la)  # log2 x
    y = la / math.log2(la)
    ly = math.log2(y)
    return la - lx - math.log2(lx), y * (ly + 2 * math.log2(ly)) - la


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(5, 1 << 17),
    st.builds(lambda a, b: 4 + Fraction(a, b), st.integers(1, 2**80), st.integers(1, 2**40)),
    st.builds(lambda a, b: (1 << 16) + Fraction(a, b), st.integers(-(2**20), 2**20), st.integers(2**8, 2**100)),
))
def test_x_seq_closed_form_sweep(alpha):
    left, right = x_seq_holds(alpha)
    assert left and right == (alpha >= 1 << 16)
    # away from equality, a float evaluation of the chain agrees
    lmargin, rmargin = _x_seq_margins(alpha)
    assert lmargin > 0
    if abs(rmargin) > 1e-9:
        assert right == (rmargin > 0)


def test_x_seq_threshold_behavior():
    # The left inequality holds throughout the sweep; the right holds
    # exactly from 2^16 upward.
    for j in range(8, 65):
        left, right = x_seq_holds(1 << j)
        assert left, j
        assert right == (j >= 16), j


def test_x_seq_rejects_tiny_alpha():
    with pytest.raises(ParameterError):
        x_seq_holds(4)


def test_import_loads_no_mpmath():
    # mpmath is imported only by the exact-log helpers that use it.
    code = "import sys, sparsekit; assert 'mpmath' not in sys.modules, 'mpmath loaded'"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=120)
    assert out.returncode == 0, out.stderr


# -- linear-size spanner --------------------------------------------------------


def test_linear_size_degenerate_is_single_kill_pass():
    # below the alpha0 threshold there are no phases: the construction is
    # the direct sample-nothing pass, i.e. every edge of a simple graph.
    g = gnp_graph(30, 0.3, seed=2)
    es = linear_size_spanner(g)  # default alpha0 = 2^16
    assert es.ids == frozenset(range(g.m))


def test_linear_size_phases_engage_in_test_mode():
    g = connected_gnp(180, 0.1, seed=5)
    es = linear_size_spanner(g, alpha0=4)
    rep = es.report
    assert len(rep.phases) >= 1
    assert rep.phases[0].survivors < g.n
    ratio, _ = measure_stretch(g, es.ids)
    assert not math.isinf(ratio)
    assert len(es) < g.m  # actually sparsified


def test_linear_size_derandomized_budgets_and_determinism():
    g = connected_gnp(150, 0.12, seed=6, weighted=True, max_weight=30)
    a = linear_size_spanner(g, alpha0=4)
    rep = a.report
    b = linear_size_spanner(g, alpha0=4)
    assert a.ids == b.ids
    for ph in rep.phases:
        assert ph.budget is None or ph.added <= ph.budget


def test_linear_size_randomized_mode():
    g = connected_gnp(150, 0.12, seed=7)
    es = linear_size_spanner(g, mode="randomized", alpha0=4, seed=3)
    ratio, _ = measure_stretch(g, es.ids)
    assert not math.isinf(ratio)
    assert linear_size_spanner(g, mode="randomized", alpha0=4, seed=3).ids == es.ids


def test_linear_size_mode_validation():
    g = gnp_graph(10, 0.3, seed=8)
    with pytest.raises(ParameterError):
        linear_size_spanner(g, mode="magic")
    with pytest.raises(ParameterError):
        linear_size_spanner(g, alpha0=2)


# -- ultra-sparse reduction -----------------------------------------------------


def test_ultra_sparse_exact_bound():
    for t in (1, 2, 4, 8, 16):
        g = connected_gnp(96, 0.08, seed=40 + t)
        out = ultra_sparse_spanner(g, t)
        rep = out.report
        assert len(out) <= g.n + math.ceil(g.n / t)
        assert rep.size == len(out) and rep.bound == g.n + math.ceil(g.n / t)


def test_ultra_sparse_tree_input_is_the_tree():
    from sparsekit.generate import random_tree

    g = random_tree(40, seed=3, weighted=True, max_weight=12)
    out = ultra_sparse_spanner(g, 4)
    assert out.ids == frozenset(range(g.m))


def test_ultra_sparse_whole_cluster_graph_inner():
    # an inner that keeps every cluster-graph edge still lands under the
    # bound thanks to the calibration loop
    g = connected_gnp(60, 0.15, seed=9, weighted=True, max_weight=20)
    inner = lambda cg: EdgeSet(cg, frozenset(range(cg.m)))  # noqa: E731
    out = ultra_sparse_spanner(g, 1, inner=inner)
    rep = out.report
    assert len(out) <= 2 * g.n
    assert rep.inner_stretch is None  # verify off by default


def test_ultra_sparse_composition_stretch_certificate():
    for seed in (0, 1, 2):
        g = connected_gnp(72, 0.1, seed=60 + seed, weighted=bool(seed % 2), max_weight=15)
        out = ultra_sparse_spanner(g, 4, verify=True)
        rep = out.report
        assert rep.stretch is not None and rep.stretch_bound is not None
        assert Fraction(rep.stretch) <= rep.stretch_bound
        assert verify_stretch(g, out, rep.stretch_bound).ok


def test_ultra_sparse_verify_without_report(monkeypatch):
    calls = []
    measure = ultra_sparse.measure_stretch

    def spy(graph, sub_edges):
        calls.append(graph.n)
        return measure(graph, sub_edges)

    monkeypatch.setattr(ultra_sparse, "measure_stretch", spy)
    g = connected_gnp(48, 0.12, seed=8)
    out = ultra_sparse_spanner(g, 4, verify=True)
    assert isinstance(out, EdgeSet) and calls[-1] == g.n and len(calls) == 2


def test_ultra_sparse_rejects_bad_t():
    with pytest.raises(ParameterError):
        ultra_sparse_spanner(gnp_graph(8, 0.5, seed=1), 0)


def test_ultra_sparse_n512_unweighted_exact_count():
    g = connected_gnp(512, 0.02, seed=11)
    out = ultra_sparse_spanner(g, 8)
    assert len(out) <= 512 + 64
    ratio, _ = measure_stretch(g, out.ids)
    assert not math.isinf(ratio)


def test_linear_size_bench_scale_constants():
    # dense unweighted input at n=1024: the phase schedule sparsifies to
    # within the benchmark's pinned c = 10 (measured ~4.7n here); the
    # weighted variant runs twice the iterations per phase and stays within
    # its per-phase budgets (its measured constant is larger at this scale).
    g = connected_gnp(1024, 0.05, seed=33)
    es = linear_size_spanner(g, alpha0=4)
    rep = es.report
    assert len(es) <= 10 * g.n
    assert rep.phases and rep.phases[0].g >= 4

    gw = connected_gnp(512, 0.1, seed=33, weighted=True, max_weight=40)
    esw = linear_size_spanner(gw, alpha0=4)
    repw = esw.report
    g_uw = linear_size_spanner(connected_gnp(512, 0.1, seed=33), alpha0=4).report
    # weighted mode doubles the iteration count inside the ceiling
    assert 2 * g_uw.phases[0].g - 1 <= repw.phases[0].g <= 2 * g_uw.phases[0].g
    for ph in repw.phases:
        assert ph.budget is None or ph.added <= ph.budget


def test_ultra_sparse_reports_pinned():
    # sha256 over each UltraSparseReport's calibration fields and the
    # sorted output ids, on weighted and unweighted G(n, p) with 0 to 2
    # doubling retries, recorded before the partition rounds resumed
    # across retries.
    h = hashlib.sha256()
    for n, p, seed, weighted in [
        (64, 0.15, 1, True), (80, 0.1, 2, False), (96, 0.08, 3, True),
        (120, 0.06, 4, False), (100, 0.12, 5, True), (72, 0.2, 6, False),
    ]:
        g = gnp_graph(n, p, seed, weighted=weighted, max_weight=20)
        for t in (2, 4, 8):
            out = ultra_sparse_spanner(g, t)
            r = out.report
            fields = (r.t_used, r.retries, r.partition_radius, r.cluster_count, r.size, r.inner_size)
            h.update(repr((fields, sorted(out.ids))).encode())
    assert h.hexdigest() == "37625b02ab587e786cd58b8ddaede2d3541ef83abe51897d56ce9cf708253af1"


def test_ultra_sparse_resumes_partition_rounds(monkeypatch):
    # the doubling retries add one merge round each, and the graph's
    # components are computed once per call
    from sparsekit import stretch_friendly
    from sparsekit.graph import Graph
    from sparsekit.rational import ceil_log2

    rounds, comps = [], []
    merge_step, components = stretch_friendly.merge_step, Graph.components
    monkeypatch.setattr(stretch_friendly, "merge_step", lambda *a: rounds.append(a[2]) or merge_step(*a))
    monkeypatch.setattr(Graph, "components", lambda self: comps.append(self) or components(self))
    g = gnp_graph(512, 16 / 512, seed=1, weighted=True)
    rep = ultra_sparse_spanner(g, 8).report
    assert rep.retries >= 1
    assert rounds == list(range(1, ceil_log2(rep.t_used) + 1))
    assert comps == [g]
