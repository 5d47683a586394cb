"""Seeded graph generators for tests, benchmarks, and the CLI.

Everything is deterministic in the seed (Mersenne Twister via
random.Random, platform independent).  Weighted variants draw integer
weights uniformly from [1, max_weight].
"""

from __future__ import annotations

import math
import random

from .certificates import edge_connectivity
from .errors import ParameterError, check_int, check_rational
from .graph import Graph

K_CONNECTED_NODE_LIMIT = 300


def _stream(seed: int, weighted: bool, max_weight: int):
    """The generator's stream and its weight draw, once the seed and max_weight pass their checks."""
    rng = random.Random(check_int("seed", seed))  # any int: random.Random takes seeds of any size
    max_weight = check_int("max_weight", max_weight, lo=1)
    return rng, (lambda: rng.randint(1, max_weight)) if weighted else (lambda: 1)


def gnp(n: int, p: float, seed: int = 0, *, weighted: bool = False, max_weight: int = 100) -> Graph:
    n = check_int("n", n, lo=0)
    check_rational("p", p, lo=0, hi=1)  # and compared with rng.random() as given
    rng, w = _stream(seed, weighted, max_weight)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, w()))
    return Graph(n, edges, weighted=weighted)


def cycle(n: int, seed: int = 0, *, weighted: bool = False, max_weight: int = 100) -> Graph:
    n = check_int("n", n, lo=3)
    rng, w = _stream(seed, weighted, max_weight)
    return Graph(n, [(i, (i + 1) % n, w()) for i in range(n)], weighted=weighted)


def grid(rows: int, cols: int, seed: int = 0, *, weighted: bool = False, max_weight: int = 100) -> Graph:
    rows, cols = check_int("rows", rows, lo=1), check_int("cols", cols, lo=1)
    rng, w = _stream(seed, weighted, max_weight)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, w()))
            if r + 1 < rows:
                edges.append((v, v + cols, w()))
    return Graph(rows * cols, edges, weighted=weighted)


def random_tree(n: int, seed: int = 0, *, weighted: bool = False, max_weight: int = 100) -> Graph:
    """Random recursive tree: node i attaches to a uniform earlier node."""
    n = check_int("n", n, lo=1)
    rng, w = _stream(seed, weighted, max_weight)
    edges = [(i, rng.randrange(i), w()) for i in range(1, n)]
    return Graph(n, edges, weighted=weighted)


def k_connected_random(n: int, k: int, seed: int = 0, *, weighted: bool = False, max_weight: int = 100) -> Graph:
    """G(n, p) resampled (with growing p) until lambda(G) >= k, checked exactly."""
    n = check_int("n", n, lo=2, hi=K_CONNECTED_NODE_LIMIT)
    k, seed = check_int("k", k, lo=1, hi=n - 1), check_int("seed", seed)
    p = min(1.0, (k + 2 * math.log(max(n, 2))) / max(n - 1, 1))
    for attempt in range(64):
        g = gnp(n, p, seed=seed * 977 + attempt, weighted=weighted, max_weight=max_weight)
        if edge_connectivity(g) >= k:
            return g
        p = min(1.0, p * 1.3)
    raise ParameterError(f"could not reach edge connectivity {k} at n={n}")


KINDS = {
    "gnp": gnp,
    "cycle": cycle,
    "grid": grid,
    "tree": random_tree,
    "k-connected-random": k_connected_random,
}
