"""Immutable undirected graphs with stable node and edge identifiers.

Nodes are the integers 0..n-1.  Edges carry dense ids 0..m-1 (their
position in the edge list), which every other structure in the toolkit
refers to.  Graphs are simple (no self-loops, no parallel edges) with
nonnegative integer weights bounded by a configurable polynomial cap.
`Graph.adj[v]` is the one pair index: a read-only map from each
neighbour of v to the id of the edge joining them, in ascending edge-id
order.  `edge_between`, `incident`, `neighbors`, `bfs` and the
clustering link check all read it.  `Graph.bfs` is the one hop
traversal: multi-source, level by level, optionally restricted to a
node set, an edge-id set and a depth.

`Graph.arrays` is the one array form of the edge list, built on first
use and read-only; `Graph.matrix` builds every symmetric sparse matrix
of the edges.  Every "first edge per key" choice lists its candidate
edges in a fixed order and keeps the first per key with `first_per_key`.

Text format (one graph per file)::

    n m weighted|unweighted
    u v w          # weighted: one line per edge, ids assigned in order
    u v            # unweighted variant, weight 1 implied
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Any, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InvalidGraphError, ParameterError, SparsekitError, check_edge_ids, check_edge_set, check_int


def _graph_input(check, *args, **kwargs):
    """A parameter check's rule applied to graph input, failing with InvalidGraphError."""
    try:
        return check(*args, **kwargs)
    except ParameterError as ex:
        raise InvalidGraphError(str(ex)) from None


def read_text(path: str | Path, error: type[SparsekitError] = InvalidGraphError) -> str:
    """The file at `path` as UTF-8 text; undecodable bytes raise `error`, naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as ex:
        raise error(f"{path} is not UTF-8 text: {ex}") from None


class Edge(NamedTuple):
    id: int
    u: int
    v: int
    w: int

    def other(self, x: int) -> int:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"node {x} is not an endpoint of edge {self.id}")


class EdgeArrays(NamedTuple):
    """Edges by id: int64 ends (row i = u, v), exact weights (beyond int64 too); ids in (w, id) order."""

    ends: np.ndarray
    w: tuple[int, ...]
    by_weight: np.ndarray


def first_per_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the position of each one's first
    occurrence in `keys`: with candidates in a fixed order, the first per key."""
    perm = np.argsort(keys)  # unstable, so a key's first position is the least in its run
    run = keys[perm]
    starts = np.flatnonzero(np.diff(run, prepend=run[:1] - 1))
    return run[starts], np.minimum.reduceat(perm, starts)


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("n", "edges", "weighted", "weight_cap", "adj", "_arrays")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]] | Iterable[tuple[int, int]],
        *,
        weighted: bool = True,
        weight_cap: int | None = None,
    ):
        self.n = n = _graph_input(check_int, "n", n, lo=0)
        self.weighted = weighted
        self.weight_cap = weight_cap if weight_cap is not None else max(4, n) ** 4
        built: list[Edge] = []
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for eid, e in enumerate(edges):
            try:
                if len(e) == 2:
                    (u, v), w = e, 1
                else:
                    u, v, w = e  # type: ignore[misc]
            except (TypeError, ValueError):
                raise InvalidGraphError(f"edge {eid}: {e!r} is not (u, v) or (u, v, w)") from None
            if type(u) is not int or type(v) is not int or type(w) is not int:  # one cheap test per field
                u, v = (_graph_input(check_int, f"edge {eid}: endpoint", x) for x in (u, v))
                w = _graph_input(check_int, f"edge {eid}: weight", w)
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise InvalidGraphError(f"edge {eid}: self-loop at node {u}")
            if w < 0 or w > self.weight_cap:
                raise InvalidGraphError(f"edge {eid}: weight {w} outside [0, {self.weight_cap}]")
            if not weighted and w != 1:
                raise InvalidGraphError(f"edge {eid}: unweighted graph with weight {w}")
            if v in adj[u]:
                raise InvalidGraphError(f"edge {eid}: duplicate of edge {adj[u][v]}")
            built.append(Edge(eid, u, v, w))
            adj[u][v] = adj[v][u] = eid
        self.edges: tuple[Edge, ...] = tuple(built)
        self.adj: tuple[Mapping[int, int], ...] = tuple(map(MappingProxyType, adj))
        self._arrays: EdgeArrays | None = None  # built on first use

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to node v, ascending; ParameterError unless v is an int in [0, n)."""
        return tuple(self.adj[check_int("v", v, lo=0, hi=self.n - 1)].values())

    def neighbors(self, v: int) -> Iterator[tuple[int, int, int]]:
        """(edge_id, neighbor, weight) per edge at node v, by ascending id; v checked as in `incident`."""
        adj = self.adj[check_int("v", v, lo=0, hi=self.n - 1)]
        return ((eid, y, self.edges[eid].w) for y, eid in adj.items())

    def edge_between(self, u: int, v: int) -> int | None:
        u, v = check_int("u", u), check_int("v", v)
        return self.adj[u].get(v) if 0 <= u < self.n else None

    # -- derived structure ----------------------------------------------

    @property
    def arrays(self) -> EdgeArrays:
        """The edges as arrays, built once; every caller shares them, so they are read-only."""
        if self._arrays is None:
            _, u, v, w = zip(*self.edges) if self.edges else ((),) * 4
            ends = np.array([u, v], np.int64).T.copy()
            order = np.array(sorted(range(self.m), key=w.__getitem__), np.int64)  # stable: (w, id), exact
            ends.flags.writeable = order.flags.writeable = False
            self._arrays = EdgeArrays(ends, w, order)
        return self._arrays

    def matrix(self, edge_ids: Sequence[int] | None, values) -> csr_matrix:
        """The symmetric n x n CSR matrix with values[i], or a scalar, on both
        arcs of the i-th edge of `edge_ids` (None: every edge)."""
        u, v = self.arrays.ends[slice(None) if edge_ids is None else np.asarray(edge_ids, np.int64)].T
        data = np.broadcast_to(values, u.shape)
        return csr_matrix((np.r_[data, data], (np.r_[u, v], np.r_[v, u])), shape=(self.n, self.n))

    def bfs(
        self,
        sources: Iterable[int],
        *,
        nodes: Container[int] | None = None,
        edges: Container[int] | None = None,
        depth: int | None = None,
    ) -> dict[int, int]:
        """Hop distances from the nodes `sources`, which are all at distance 0.

        Steps only into `nodes` and only along edge ids in `edges` (None
        means no restriction) and expands no node at distance `depth` >= 0.
        """
        try:
            sources = tuple(sources)
        except TypeError:
            raise ParameterError(f"sources must be an iterable of nodes, got {sources!r}") from None
        if not {int}.issuperset(map(type, sources)) or min(sources, default=0) < 0 or max(sources, default=0) >= self.n:
            sources = [check_int("source", s, lo=0, hi=self.n - 1) for s in sources]
        depth = depth if depth is None else check_int("depth", depth, lo=0)
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        d = 0
        while frontier and d != depth:
            d += 1
            nxt = []
            for x in frontier:
                for y, eid in self.adj[x].items():
                    if y not in dist and (nodes is None or y in nodes) and (edges is None or eid in edges):
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        return dist

    def components(self) -> list[list[int]]:
        """Connected components as sorted node lists, ordered by minimum node."""
        seen: set[int] = set()
        out: list[list[int]] = []
        for s in range(self.n):
            if s not in seen:
                out.append(sorted(self.bfs((s,))))
                seen.update(out[-1])
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.bfs((0,))) == self.n

    def edge_subgraph(self, edge_ids: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph keeping all nodes and the given edges.

        Edge ids are re-densified in ascending original order; returns the
        new graph plus the map new_edge_id -> original_edge_id.
        """
        keep = check_edge_ids(self, edge_ids)
        sub = Graph(self.n, [self.edges[i][1:] for i in keep], weighted=self.weighted, weight_cap=self.weight_cap)
        return sub, tuple(keep)

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        mode = "weighted" if self.weighted else "unweighted"
        lines = [f"{self.n} {self.m} {mode}"]
        for e in self.edges:
            lines.append(f"{e.u} {e.v} {e.w}" if self.weighted else f"{e.u} {e.v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
        if not lines:
            raise InvalidGraphError("empty graph file")
        head = lines[0].split()
        if len(head) != 3 or head[2] not in ("weighted", "unweighted"):
            raise InvalidGraphError(f"bad header line: {lines[0]!r}")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            raise InvalidGraphError(f"bad header line: {lines[0]!r}") from None
        weighted = head[2] == "weighted"
        if len(lines) - 1 != m:
            raise InvalidGraphError(f"header says {m} edges, file has {len(lines) - 1}")
        edges: list[tuple[int, ...]] = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != (3 if weighted else 2):
                raise InvalidGraphError(f"bad {head[2]} edge line: {ln!r}")
            try:
                edges.append(tuple(int(x) for x in parts))
            except ValueError:
                raise InvalidGraphError(f"non-integer field in edge line: {ln!r}") from None
        return cls(n, edges, weighted=weighted)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "Graph":
        return cls.from_text(read_text(path))

    def __reduce__(self):  # pickle and deepcopy rebuild from the edges: a mapping proxy does not pickle
        return partial(Graph, weighted=self.weighted, weight_cap=self.weight_cap), (self.n, [e[1:] for e in self.edges])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "weighted" if self.weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {mode})"


@dataclass(frozen=True)
class EdgeSet:
    """A subgraph identified by edge ids (spanners, certificates, ...)."""

    graph: Graph
    ids: frozenset[int] = field(default_factory=frozenset)
    # output only: how the construction that returned it ran
    report: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", _graph_input(check_edge_set, self.graph, self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, eid: int) -> bool:
        return eid in self.ids

    def sorted_ids(self) -> list[int]:
        return sorted(self.ids)

    def to_text(self) -> str:
        return "".join(f"{eid}\n" for eid in self.sorted_ids())

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def read(cls, graph: Graph, path: str | Path) -> "EdgeSet":
        try:
            return cls(graph, [int(ln) for ln in read_text(path).split()])
        except ValueError as ex:  # from int(): EdgeSet itself raises InvalidGraphError
            raise InvalidGraphError(f"bad edge id line in {path}: {ex}") from None
