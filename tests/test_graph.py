from __future__ import annotations

import copy
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.errors import InvalidGraphError, ParameterError
from sparsekit.graph import EdgeSet, Graph

from conftest import gnp_graph


def test_basic_construction_and_accessors():
    g = Graph(4, [(0, 1, 2), (1, 2, 5), (2, 3, 1)])
    assert g.n == 4 and g.m == 3
    assert g.edge(1).w == 5
    assert g.edge_between(2, 1) == 1
    assert g.edge_between(0, 3) is None
    assert sorted(g.incident(1)) == [0, 1]
    assert {nb for _, nb, _ in g.neighbors(2)} == {1, 3}


def test_validation_errors():
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 0, 1)])  # self-loop
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 1, 1), (1, 0, 2)])  # duplicate pair
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 5, 1)])  # endpoint out of range
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 1, -1)])  # negative weight
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 1, 10**30)])  # above the poly(n) cap
    with pytest.raises(InvalidGraphError):
        Graph(3, [(0, 1, 2)], weighted=False)  # unweighted with weight != 1
    # check_int's rule, as for every scalar parameter: bool is not an int
    for n, edges in (
        (2.5, []), (None, []), (True, []), (2, [(0.0, 1)]), (2, [(0, "1")]),
        (2, [(0, 1, 1, 1)]), (2, [(0,)]), (2, [5]),  # neither (u, v) nor (u, v, w)
        (2, [(0, 1, True)]),  # would write `0 1 True`, which from_text rejects
        (2, [(0, 1, 2.0)]),
    ):
        with pytest.raises(InvalidGraphError):
            Graph(n, edges)


def test_duplicate_names_the_first_repeat_and_its_earlier_twin():
    with pytest.raises(InvalidGraphError, match="edge 2: duplicate of edge 0"):
        Graph(3, [(0, 1), (1, 2), (1, 0), (0, 1)], weighted=False)


@pytest.mark.parametrize(
    "g",
    [gnp_graph(9, 0.5, seed=3, weighted=True), Graph(4, [(3, 0, 2), (1, 2, 1), (0, 1, 5)]), Graph(2, [])],
    ids=["gnp", "edge-n-1-to-0", "no-edges"],
)
def test_edge_between_matches_a_scan_of_the_edges(g):
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            scan = [e.id for e in g.edges if {e.u, e.v} == {u, v}]
            assert g.edge_between(u, v) == (scan[0] if scan else None), (u, v)


def test_incident_and_neighbors_list_edges_by_ascending_id():
    g = Graph(5, [(3, 1, 4), (0, 1, 2), (1, 4, 7), (2, 0, 1), (4, 2, 3)])
    for v in range(g.n):
        scan = [e for e in g.edges if v in (e.u, e.v)]
        assert list(g.incident(v)) == [e.id for e in scan]
        assert list(g.neighbors(v)) == [(e.id, e.other(v), e.w) for e in scan]


def test_adj_maps_each_neighbour_to_its_edge_id_in_id_order():
    g = gnp_graph(10, 0.5, seed=4, weighted=True)
    for v in range(g.n):
        assert list(g.adj[v].items()) == [(nb, eid) for eid, nb, _ in g.neighbors(v)]
        assert tuple(g.adj[v].values()) == g.incident(v)


def test_adj_is_read_only():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    for v in range(g.n):
        for x in range(g.n):
            with pytest.raises(TypeError):
                g.adj[v][x] = 0  # type: ignore[index]


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_graph_survives_pickle_and_deepcopy(clone):
    g = Graph(4, [(2, 3, 10**30), (0, 1, 7)], weighted=True, weight_cap=10**40)
    h = clone(g)
    assert (h.n, h.edges, h.weighted, h.weight_cap) == (g.n, g.edges, g.weighted, g.weight_cap)
    assert h.adj == g.adj


def test_weight_cap_configurable():
    g = Graph(3, [(0, 1, 10**30)], weight_cap=10**40)
    assert g.edge(0).w == 10**30


@pytest.mark.parametrize(
    "g",
    [gnp_graph(12, 0.4, seed=2, weighted=True, max_weight=4), Graph(4, [(2, 3, 10**30), (0, 1, 7)], weight_cap=10**40),
     Graph(3, [])],
    ids=["gnp", "huge-weights", "no-edges"],
)
def test_edge_arrays_match_the_edges_and_are_read_only(g):
    # Every caller shares one cache, so a write in place would corrupt all later calls.
    a = g.arrays
    assert a is g.arrays  # built once
    assert a.ends.dtype == a.by_weight.dtype == np.int64 and a.ends.shape == (g.m, 2)
    assert a.ends.tolist() == [[e.u, e.v] for e in g.edges]
    assert a.w == tuple(e.w for e in g.edges)
    assert a.by_weight.tolist() == [e.id for e in sorted(g.edges, key=lambda e: (e.w, e.id))]
    for column in (a.ends, a.by_weight):
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = 0
    with pytest.raises(TypeError):
        a.w[0] = 0  # type: ignore[index]
    adj = g.matrix(None, 1).toarray()
    assert adj.tolist() == [[int(g.edge_between(x, y) is not None) for y in range(g.n)] for x in range(g.n)]


def test_text_roundtrip_weighted_and_unweighted(tmp_path):
    g = gnp_graph(17, 0.3, seed=5, weighted=True)
    path = tmp_path / "g.txt"
    g.write(path)
    back = Graph.read(path)
    assert back.n == g.n and back.weighted and [tuple(e) for e in back.edges] == [tuple(e) for e in g.edges]

    u = gnp_graph(9, 0.4, seed=6)
    text = u.to_text()
    assert text.splitlines()[0] == f"9 {u.m} unweighted"
    back = Graph.from_text(text)
    assert [tuple(e) for e in back.edges] == [tuple(e) for e in u.edges]


def test_text_format_errors():
    with pytest.raises(InvalidGraphError):
        Graph.from_text("")
    with pytest.raises(InvalidGraphError):
        Graph.from_text("3 1 directed\n0 1 2\n")
    with pytest.raises(InvalidGraphError):
        Graph.from_text("3 2 weighted\n0 1 2\n")  # edge count mismatch
    bad_fields = ("3 1 weighted\n0 1 x\n", "3 1 weighted\n0 1 1.5\n", "3 two weighted\n0 1 1\n", "2 1 unweighted\n0 y\n")
    for text in bad_fields:
        with pytest.raises(InvalidGraphError):
            Graph.from_text(text)


def test_edge_subgraph_remaps_densely():
    g = Graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
    sub, emap = g.edge_subgraph([3, 1])
    assert sub.m == 2 and sub.n == 5
    assert emap == (1, 3)
    assert sub.edge(0).w == 2 and sub.edge(1).w == 4


def test_components():
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (4, 5, 1)])
    assert g.components() == [[0, 1, 2], [3], [4, 5]]
    assert not g.is_connected()


def test_edgeset_serialization(tmp_path):
    g = gnp_graph(10, 0.5, seed=1)
    es = EdgeSet(g, frozenset([4, 0, 7]))
    path = tmp_path / "es.txt"
    es.write(path)
    assert path.read_text() == "0\n4\n7\n"
    assert EdgeSet.read(g, path).ids == es.ids


def test_edgeset_read_rejects_a_malformed_file(tmp_path):
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    path = tmp_path / "es.txt"
    for text, message in (("0\nx\n", "'x'"), ("0\n1.5\n", "'1.5'"), ("0\n2\n", "edge id"), ("-1\n", "edge id")):
        path.write_text(text)
        with pytest.raises(InvalidGraphError, match=message):
            EdgeSet.read(g, path)
    path.write_text("1\n0\n1\n")
    assert EdgeSet.read(g, path).ids == {0, 1}


def test_edgeset_rejects_bad_ids():
    g = Graph(3, [(0, 1, 1)])
    with pytest.raises(InvalidGraphError):
        EdgeSet(g, frozenset([5]))


@st.composite
def bfs_cases(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [], weighted=False)
    sources = draw(st.sets(st.integers(0, n - 1), min_size=1))
    nodes = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    edges = draw(st.none() | st.frozensets(st.integers(0, g.m)))
    depth = draw(st.none() | st.integers(0, n))
    return g, sources, nodes, edges, depth


@settings(deadline=None, max_examples=300)
@given(bfs_cases())
def test_bfs_matches_networkx(case):
    # Graph.bfs against networkx from a super-source joined to every
    # source, on the subgraph the node and edge restrictions leave.
    g, sources, nodes, edges, depth = case
    keep = set(range(g.n)) if nodes is None else nodes | sources
    h = nx.Graph()
    h.add_nodes_from(keep)
    h.add_edges_from(
        (e.u, e.v) for e in g.edges if (edges is None or e.id in edges) and e.u in keep and e.v in keep
    )
    h.add_edges_from(("s", v) for v in sources)
    cutoff = None if depth is None else depth + 1
    reach = nx.single_source_shortest_path_length(h, "s", cutoff=cutoff)
    expected = {v: d - 1 for v, d in reach.items() if v != "s"}
    dist = g.bfs(sources, nodes=nodes, edges=edges, depth=depth)
    assert dist == expected
    assert list(dist.values()) == sorted(dist.values())  # level by level


@pytest.mark.parametrize("sources", [5, None])
def test_bfs_rejects_sources_that_are_not_iterable(sources):
    with pytest.raises(ParameterError, match="sources must be an iterable"):
        Graph(3, [(0, 1, 1)]).bfs(sources)


def test_edgeset_keeps_a_frozenset_of_ints_as_given():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    ids = frozenset([1, 0])
    assert EdgeSet(g, ids).ids is ids
    assert EdgeSet(g, frozenset([np.int64(1)])).ids == {1}  # numpy ints are read as ints
    assert type(next(iter(EdgeSet(g, frozenset([np.int64(1)])).ids))) is int
