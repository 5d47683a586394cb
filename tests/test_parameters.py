"""The parameter contract: every public construction, oracle and generator
answers a bad scalar parameter with a ParameterError, through `check_int` and
`check_rational`, and every bad edge-id argument likewise, through
`check_edge_ids`; no other exception escapes."""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import sparsekit as sk
from sparsekit import certificates, generate
from sparsekit.errors import InvalidGraphError, ParameterError, SparsekitError, check_int, check_rational

G = generate.gnp(8, 0.5, seed=1)
H = sk.spanner(G, 2)
HALF = Fraction(1, 2)
BIG = 2**127

BAD = [0, -1, 2.5, math.nan, math.inf, None, True, "3", BIG]

# parameter -> (call with the value, the values of BAD the parameter accepts).
# None stands for a default where the signature has one.  An accepted value may
# still fail the construction, with another SparsekitError.
CALLS = {
    "spanner.k": (lambda x: sk.spanner(G, x), {BIG}),
    "spanner.seed": (lambda x: sk.spanner(G, 2, x), {0, -1}),
    "deterministic_spanner.k": (lambda x: sk.deterministic_spanner(G, x), {BIG}),
    "deterministic_spanner.iota": (lambda x: sk.deterministic_spanner(G, 2, iota=x), {BIG}),
    "BaswanaSenProgram.k": (lambda x: sk.BaswanaSenProgram(x), {BIG}),
    "run_distributed_spanner.k": (lambda x: sk.run_distributed_spanner(G, x), {BIG}),
    "run_distributed_spanner.seed": (lambda x: sk.run_distributed_spanner(G, 2, x), {0, -1}),
    "run_distributed_spanner.budget_bits": (lambda x: sk.run_distributed_spanner(G, 2, budget_bits=x), {None, BIG}),
    "run_distributed_spanner.max_rounds": (lambda x: sk.run_distributed_spanner(G, 2, max_rounds=x), {None, 0, BIG}),
    "run_g_iterations.g": (lambda x: sk.run_g_iterations(G, x, HALF), {0, BIG}),
    "run_g_iterations.p": (lambda x: sk.run_g_iterations(G, 1, x), {0}),
    "run_g_iterations.seed": (lambda x: sk.run_g_iterations(G, 1, HALF, x), {0, -1}),
    "run_g_iterations.iota": (lambda x: sk.run_g_iterations(G, 1, HALF, deterministic=True, iota=x), {BIG}),
    "UtilityContext.create.p": (lambda x: sk.UtilityContext.create(8, 1, x, 1, True), set()),
    "UtilityContext.create.g": (lambda x: sk.UtilityContext.create(8, 1, HALF, x, True), {BIG}),
    "UtilityContext.create.iteration": (lambda x: sk.UtilityContext.create(8, x, HALF, 2, True), set()),
    "UtilityContext.create.iota": (lambda x: sk.UtilityContext.create(8, 1, HALF, 2, True, iota=x), {BIG}),
    "linear_size_spanner.seed": (lambda x: sk.linear_size_spanner(G, mode="randomized", seed=x, alpha0=4), {0, -1}),
    "linear_size_spanner.alpha0": (lambda x: sk.linear_size_spanner(G, alpha0=x), {BIG}),
    "linear_size_spanner.iota": (lambda x: sk.linear_size_spanner(G, alpha0=4, iota=x), {BIG}),
    "ultra_sparse_spanner.t": (lambda x: sk.ultra_sparse_spanner(G, x), {BIG}),
    "partition.t": (lambda x: sk.partition(G, x), {BIG}),
    "ldc_sparse_spanner.t": (lambda x: sk.ldc_sparse_spanner(G, x), {BIG}),
    "grow_and_cut.t": (lambda x: sk.grow_and_cut(G, x), {BIG}),
    "carve_clustering.t_sep": (lambda x: sk.carve_clustering(G, x), {BIG}),
    "skeleton_for.eps": (lambda x: certificates.skeleton_for(x)(G), {2.5, BIG}),
    "certificate_small_k.k": (lambda x: sk.certificate_small_k(G, x), {BIG}),
    "certificate_small_k.eps": (lambda x: sk.certificate_small_k(G, 2, x), {2.5, BIG}),
    "certificate_large_k.k": (lambda x: sk.certificate_large_k(G, x), {BIG}),
    "certificate_large_k.eps": (lambda x: sk.certificate_large_k(G, 2, x), set()),
    "certificate_large_k.seed": (lambda x: sk.certificate_large_k(G, 2, seed=x), {0, -1}),
    "certificate_large_k.c_k": (lambda x: sk.certificate_large_k(G, 2, c_k=x), {2.5, BIG}),
    "verify_certificate.k": (lambda x: sk.verify_certificate(G, H, x), {BIG}),
    "verify_stretch.alpha": (lambda x: sk.verify_stretch(G, H, x), {2.5, BIG}),
    "sssp.source": (lambda x: sk.sssp(G, x), {0}),
    "Graph.bfs.sources": (lambda x: G.bfs((x,)), {0}),
    "Graph.bfs.depth": (lambda x: G.bfs((0,), depth=x), {None, 0, BIG}),
    "karger_parts.q": (lambda x: certificates.karger_parts(G, x, 0), {BIG}),
    "karger_parts.seed": (lambda x: certificates.karger_parts(G, 2, x), {0, -1}),
    "x_seq_holds.alpha": (lambda x: sk.x_seq_holds(x), {BIG}),
    "run.budget_bits": (lambda x: sk.run(G, sk.BaswanaSenProgram(2), budget_bits=x), {None, BIG}),
    "run.max_rounds": (lambda x: sk.run(G, sk.BaswanaSenProgram(2), max_rounds=x), {None, 0, BIG}),
    "run.seed": (lambda x: sk.run(G, sk.BaswanaSenProgram(2), seed=x), {0, -1}),
    "run_on_cluster_graph.budget_bits": (
        lambda x: sk.run_on_cluster_graph(G, sk.Clustering.singletons(G), sk.BaswanaSenProgram(2), budget_bits=x),
        {None, BIG},
    ),
    "run_on_cluster_graph.max_rounds": (
        lambda x: sk.run_on_cluster_graph(G, sk.Clustering.singletons(G), sk.BaswanaSenProgram(2), max_rounds=x),
        {None, 0, BIG},
    ),
    "run_on_cluster_graph.seed": (
        lambda x: sk.run_on_cluster_graph(G, sk.Clustering.singletons(G), sk.BaswanaSenProgram(2), seed=x),
        {0, -1},
    ),
    "gnp.n": (lambda x: generate.KINDS["gnp"](x, 0.5), {0, BIG}),
    "gnp.p": (lambda x: generate.KINDS["gnp"](8, x), {0}),
    "gnp.seed": (lambda x: generate.KINDS["gnp"](8, 0.5, x), {0, -1, BIG}),
    "gnp.max_weight": (lambda x: generate.KINDS["gnp"](8, 0.5, weighted=True, max_weight=x), {BIG}),
    "cycle.n": (lambda x: generate.KINDS["cycle"](x), {BIG}),
    "cycle.seed": (lambda x: generate.KINDS["cycle"](5, x), {0, -1, BIG}),
    "grid.rows": (lambda x: generate.KINDS["grid"](x, 3), {BIG}),
    "grid.cols": (lambda x: generate.KINDS["grid"](3, x), {BIG}),
    "tree.n": (lambda x: generate.KINDS["tree"](x), {BIG}),
    "tree.max_weight": (lambda x: generate.KINDS["tree"](8, weighted=True, max_weight=x), {BIG}),
    "k-connected-random.n": (lambda x: generate.KINDS["k-connected-random"](x, 1), set()),
    "k-connected-random.k": (lambda x: generate.KINDS["k-connected-random"](10, x), set()),
    "k-connected-random.seed": (lambda x: generate.KINDS["k-connected-random"](10, 2, x), {0, -1, BIG}),
}

# Valid values whose run is legitimately too expensive for a unit test.
SKIPS = {
    ("run_g_iterations.g", BIG): "2^127 sampled iterations",
    ("gnp.n", BIG): "a graph on 2^127 nodes",
    ("cycle.n", BIG): "a graph on 2^127 nodes",
    ("grid.rows", BIG): "a graph on 3 * 2^127 nodes",
    ("grid.cols", BIG): "a graph on 3 * 2^127 nodes",
    ("tree.n", BIG): "a graph on 2^127 nodes",
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("param", sorted(CALLS))
def test_every_entry_point_answers_a_bad_scalar_with_a_sparsekit_error(param, value):
    if (param, value) in SKIPS:
        pytest.skip(SKIPS[param, value])
    call, accepted = CALLS[param]
    # `in` on the set would take True for 1 and nan for nothing: compare by type and value
    if any(type(value) is type(a) and value == a for a in accepted):
        try:
            call(value)
        except SparsekitError:
            pass
    else:
        with pytest.raises(ParameterError):
            call(value)


def test_exported_entry_points_with_scalar_parameters_are_all_called():
    covered = {name.split(".")[0] for name in CALLS}
    for name in ("spanner", "deterministic_spanner", "run_distributed_spanner", "run_g_iterations",
                 "linear_size_spanner", "ultra_sparse_spanner", "ldc_sparse_spanner", "partition",
                 "carve_clustering", "grow_and_cut", "certificate_small_k", "certificate_large_k",
                 "verify_certificate", "verify_stretch", "sssp", "x_seq_holds", "run", "run_on_cluster_graph"):
        assert hasattr(sk, name) and name in covered, name
    assert {name.split(".")[0] for name in CALLS if name.split(".")[0] in generate.KINDS} == set(generate.KINDS)


def test_bool_is_not_an_int():
    for call in (lambda: check_int("k", True), lambda: check_rational("eps", False), lambda: sk.spanner(G, True)):
        with pytest.raises(ParameterError, match=r"got (True|False)$"):
            call()
    with pytest.raises(sk.InvalidGraphError):
        sk.Graph(True, [])


def test_numpy_integers_are_ints():
    for x in (np.int64(3), np.int32(3), np.uint8(3)):
        assert check_int("k", x, lo=1) == 3 and type(check_int("k", x)) is int
        assert check_rational("eps", x) == 3 and type(check_rational("eps", x)) is Fraction
    assert sk.spanner(G, np.int64(2), np.uint16(5)).ids == sk.spanner(G, 2, 5).ids
    g = sk.Graph(np.int64(3), [(np.int64(0), np.int32(1), np.int64(7))])
    assert [type(x) for x in g.edges[0]] == [int] * 4 and g.to_text() == "3 1 weighted\n0 1 7\n"


def test_floats_are_read_as_the_decimal_they_print_as(monkeypatch):
    assert check_rational("eps", 0.1) == Fraction(1, 10) != Fraction(0.1)
    assert check_rational("eps", 0.25) == Fraction(0.25)  # a dyadic float reads the same either way
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            check_rational("eps", x)
    seen = []
    skeleton_for = certificates.skeleton_for
    monkeypatch.setattr(certificates, "skeleton_for", lambda eps: seen.append(eps) or skeleton_for(eps))
    sk.certificate_small_k(G, 2, 0.1)
    assert seen == [Fraction(str(0.1))] == [Fraction(1, 10)]


# The edge-id contract, on the graph of the probes that motivated it: m = 2,
# so [2] is one id past the end, and -1 would read as the last edge.
P = sk.Graph(3, [(0, 1, 5), (1, 2, 7)])

# callable.parameter -> (call with the ids, the error a bad value raises, whether
# None is the default that means every edge)
EDGE_ID_CALLS = {
    "sssp.edge_ids": (lambda x: sk.sssp(P, 1, x), ParameterError, True),
    "apsp.edge_ids": (lambda x: sk.apsp(P, x), ParameterError, True),
    "measure_stretch.sub_edges": (lambda x: sk.measure_stretch(P, x), ParameterError, False),
    "verify_stretch_friendly.edge_ids": (
        lambda x: sk.verify_stretch_friendly(P, sk.Clustering.singletons(P), x), ParameterError, True,
    ),
    "edge_connectivity.edge_ids": (lambda x: certificates.edge_connectivity(P, x), ParameterError, True),
    "cut_matrix.edge_ids": (lambda x: certificates.cut_matrix(P, x).tolist(), ParameterError, False),
    "Graph.edge_subgraph.edge_ids": (lambda x: (lambda s, e: (s.edges, e))(*P.edge_subgraph(x)), ParameterError, False),
    "EdgeSet.ids": (lambda x: sk.EdgeSet(P, x), InvalidGraphError, False),
}
BAD_IDS = [[-1], [2], [1.5], [True], ["0"], {1.5}, {True}, 7, None, [1, -1], [0, 2], [1, True], [0, 0.0]]
# Hot internals that take ids their callers have already checked.
UNCHECKED = {"Graph.matrix"}


@pytest.mark.parametrize("ids", BAD_IDS, ids=repr)
@pytest.mark.parametrize("param", sorted(EDGE_ID_CALLS))
def test_every_edge_id_argument_answers_a_bad_id_with_a_sparsekit_error(param, ids):
    call, error, none_is_every_edge = EDGE_ID_CALLS[param]
    if ids is None and none_is_every_edge:
        assert call(None) == call(range(P.m))
    else:
        with pytest.raises(error, match="edge id"):
            call(ids)


@pytest.mark.parametrize("param", sorted(EDGE_ID_CALLS))
def test_edge_ids_read_as_a_set_of_ints(param):
    call = EDGE_ID_CALLS[param][0]
    assert call([0, 0]) == call([0]) == call(iter([0])) == call(np.array([0])) == call((np.int32(0),))
    assert call([1, 0, 1]) == call({0, 1}) == call(range(2))
    assert call([]) == call(set())


def test_repeated_ids_count_once_in_the_matrix_oracles():
    assert sk.apsp(sk.Graph(2, [(0, 1, 5)]), [0, 0])[0][1] == 5 == sk.sssp(sk.Graph(2, [(0, 1, 5)]), 0, [0, 0])[1]
    bridged = sk.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], weighted=False)
    ids = list(range(bridged.m))
    assert certificates.edge_connectivity(bridged, ids + ids) == certificates.edge_connectivity(bridged, ids) == 1


def test_public_callables_with_edge_id_parameters_are_all_swept():
    swept = {name.rsplit(".", 1)[0] for name in EDGE_ID_CALLS}
    found = set()
    for info in pkgutil.iter_modules(sk.__path__):
        module = importlib.import_module(f"sparsekit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", f) for m, f in vars(obj).items() if not m.startswith("_")]
            for qualname, f in members:
                f = getattr(f, "__func__", f)
                try:
                    params = inspect.signature(f).parameters
                except (TypeError, ValueError):
                    continue
                if {"edge_ids", "sub_edges"} & set(params) or (qualname == "EdgeSet" and "ids" in params):
                    found.add(qualname)
    assert found - UNCHECKED == swept
