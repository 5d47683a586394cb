"""Immutable undirected graphs with stable node and edge identifiers.

Nodes are the integers 0..n-1.  Edges carry dense ids 0..m-1 (their
position in the edge list), which every other structure in the toolkit
refers to.  Graphs are simple (no self-loops, no parallel edges) with
nonnegative integer weights bounded by a configurable polynomial cap.
`Graph.bfs` is the one hop traversal: multi-source, level by level,
optionally restricted to a node set, an edge-id set and a depth.

Text format (one graph per file)::

    n m weighted|unweighted
    u v w          # weighted: one line per edge, ids assigned in order
    u v            # unweighted variant, weight 1 implied
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Container, Iterable, Iterator, NamedTuple

from .errors import InvalidGraphError


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


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("n", "edges", "weighted", "weight_cap", "adj", "_pair_index")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]] | Iterable[tuple[int, int]],
        *,
        weighted: bool = True,
        weight_cap: int | None = None,
    ):
        if n < 0:
            raise InvalidGraphError("negative node count")
        self.n = n
        self.weighted = weighted
        self.weight_cap = weight_cap if weight_cap is not None else max(4, n) ** 4
        built: list[Edge] = []
        pair_index: dict[tuple[int, int], int] = {}
        adj: list[list[int]] = [[] for _ in range(n)]
        for eid, e in enumerate(edges):
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1
            else:
                u, v, w = e  # type: ignore[misc]
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge {eid}: endpoint out of range")
            if u == v:
                raise InvalidGraphError(f"edge {eid}: self-loop at node {u}")
            if not isinstance(w, int):
                raise InvalidGraphError(f"edge {eid}: non-integer weight {w!r}")
            if w < 0 or w > self.weight_cap:
                raise InvalidGraphError(
                    f"edge {eid}: weight {w} outside [0, {self.weight_cap}]"
                )
            if not weighted and w != 1:
                raise InvalidGraphError(f"edge {eid}: unweighted graph with weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in pair_index:
                raise InvalidGraphError(f"edge {eid}: duplicate of edge {pair_index[key]}")
            pair_index[key] = eid
            built.append(Edge(eid, u, v, w))
            adj[u].append(eid)
            adj[v].append(eid)
        self.edges: tuple[Edge, ...] = tuple(built)
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(a) for a in adj)
        self._pair_index = pair_index

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> Edge:
        return self.edges[eid]

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v."""
        return self.adj[v]

    def neighbors(self, v: int) -> Iterator[tuple[int, int, int]]:
        """Yield (edge_id, neighbor, weight) for each edge at v."""
        for eid in self.adj[v]:
            e = self.edges[eid]
            yield eid, e.other(v), e.w

    def edge_between(self, u: int, v: int) -> int | None:
        key = (u, v) if u < v else (v, u)
        return self._pair_index.get(key)

    # -- derived structure ----------------------------------------------

    def bfs(
        self,
        sources: Iterable[int],
        *,
        nodes: Container[int] | None = None,
        edges: Container[int] | None = None,
        depth: int | None = None,
    ) -> dict[int, int]:
        """Hop distances from `sources`, which are all at distance 0.

        Steps only into `nodes` and only along edge ids in `edges` (None
        means no restriction) and expands no node at distance `depth`.
        """
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        d = 0
        while frontier and d != depth:
            d += 1
            nxt = []
            for x in frontier:
                for eid in self.adj[x]:
                    if edges is not None and eid not in edges:
                        continue
                    e = self.edges[eid]
                    y = e.v if e.u == x else e.u
                    if y not in dist and (nodes is None or y in nodes):
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
        keep = sorted(set(edge_ids))
        sub = Graph(
            self.n,
            [(self.edges[i].u, self.edges[i].v, self.edges[i].w) for i in keep],
            weighted=self.weighted,
            weight_cap=self.weight_cap,
        )
        return sub, tuple(keep)

    def max_weight(self) -> int:
        return max((e.w for e in self.edges), default=0)

    def to_networkx(self, edge_ids: Iterable[int] | None = None):
        """Export to networkx (only the tests use it; networkx is a test dependency)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        ids = range(self.m) if edge_ids is None else edge_ids
        for eid in ids:
            e = self.edges[eid]
            g.add_edge(e.u, e.v, weight=e.w, id=eid)
        return g

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
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

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
        object.__setattr__(self, "ids", frozenset(self.ids))
        for eid in self.ids:
            if not (0 <= eid < self.graph.m):
                raise InvalidGraphError(f"edge id {eid} not in graph (m={self.graph.m})")

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
        ids = [int(ln) for ln in Path(path).read_text(encoding="utf-8").split()]
        return cls(graph, frozenset(ids))
