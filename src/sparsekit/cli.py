"""Command-line surface: generate graphs, build/verify spanners and
certificates, and emit benchmark tables.

Commands are byte-reproducible given identical inputs and seeds.  Exit 0:
every requested verification passed; 1: one failed; 2: bad input, such as
a file that is not UTF-8.  Reports are JSON, bench tables CSV.  Every path
option takes '-' for stdout, where an edge list comes before the report.
`ALGOS` gives each algorithm's parameter, certified stretch bound and bench
size bound.  Bench configs are key=value lines over the keys of `BENCH_KEYS`,
each at most once, with defaults algos=bs ns=32 ks=2 ts=4 seeds=1 p=0.2
weighted=0 linear_alpha0=65536.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .baswana_sen import run_distributed_spanner, spanner
from .certificates import certificate_large_k, certificate_small_k, verify_certificate
from .derand import deterministic_spanner
from .errors import ParameterError, SparsekitError, check_rational
from .generate import KINDS, gnp
from .graph import Graph, read_text
from .ldc import ldc_sparse_spanner, stretch_bound_ldc
from .ultra_sparse import DEFAULT_ALPHA0, linear_size_spanner, ultra_sparse_spanner
from .verify import measure_stretch


class Algo(NamedTuple):
    param: str | None  # "k" or "t": the parameter the builder reads and the bench sweeps
    build: Callable  # (graph, param, seed, alpha0) -> EdgeSet; alpha0 is linear_size_spanner's
    stretch: Callable | None  # (n, param) -> certified stretch bound; None where none is certified
    size: Callable  # (n, param) -> the edge count the bench table pins


def _bs_size(n: int, k: int) -> int:  # mean spanner size <= 4 * (nk + n^(1+1/k) log2 k)
    return math.ceil(4 * (n * k + n ** (1 + 1 / k) * max(1, math.log2(k))))


def _cap(n: int, t: int) -> int:  # the ultra-sparse and ball-carving spanners' exact cap
    return n + math.ceil(n / t)


# Builders look their functions up at call time, so that a tracer may rebind them here.
ALGOS = {
    "bs": Algo("k", lambda g, k, seed, _: spanner(g, k, seed), lambda n, k: 2 * k - 1, _bs_size),
    "bs-det": Algo("k", lambda g, k, seed, _: deterministic_spanner(g, k), lambda n, k: 2 * k - 1, _bs_size),
    "linear": Algo(None, lambda g, _, seed, a0: linear_size_spanner(g, mode="randomized", seed=seed, alpha0=a0),
                   None, lambda n, _: 10 * n),  # linear-size spanner <= 10 n at bench scale
    "linear-det": Algo(None, lambda g, _, seed, a0: linear_size_spanner(g, mode="derandomized", alpha0=a0),
                       None, lambda n, _: 10 * n),
    "ultra": Algo("t", lambda g, t, seed, _: ultra_sparse_spanner(g, t), None, _cap),
    "ldc": Algo("t", lambda g, t, seed, _: ldc_sparse_spanner(g, t), lambda n, t: stretch_bound_ldc(n, t), _cap),
}


def _check_stretch(algo: Algo, graph: Graph, edges, param):
    """(bound, worst ratio, worst edge, ok): `measure_stretch` of `edges` against the
    algorithm's certified bound (None: none), ok when the ratio is finite and within it."""
    bound = algo.stretch(graph.n, param) if algo.stretch else None
    ratio, worst = measure_stretch(graph, edges.ids)
    return bound, ratio, worst, not math.isinf(ratio) and (bound is None or ratio <= bound)


def _write_output(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _finish(args, edges, report: dict, ok: bool) -> int:
    """Write the edge list (if asked for) and then the JSON report; exit code 0 if `ok`, else 1."""
    if args.output:
        _write_output(args.output, edges.to_text())
    _write_output(args.json, json.dumps(report, sort_keys=True) + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    sizes = {"gnp": ("n", "p"), "grid": ("rows", "cols"), "k-connected-random": ("n", "k")}.get(args.kind, ("n",))
    g = KINDS[args.kind](*(getattr(args, a) for a in sizes), args.seed, weighted=args.weighted,
                         max_weight=args.max_weight)
    _write_output(args.output, g.to_text())
    return 0


# ---------------------------------------------------------------------------
# spanner
# ---------------------------------------------------------------------------


def cmd_spanner(args) -> int:
    graph = Graph.read(args.input)
    algo = ALGOS[args.algo]
    param = getattr(args, algo.param) if algo.param else None
    edges = algo.build(graph, param, args.seed, DEFAULT_ALPHA0)
    report: dict = {"algo": args.algo, "n": graph.n, "m": graph.m, "edges": len(edges)}
    ok = True
    if args.verify:
        bound, ratio, worst, ok = _check_stretch(algo, graph, edges, param)
        if bound is not None:
            report["stretch_bound"], report["stretch_ok"] = str(bound), ok
        report["measured_stretch"], report["worst_edge"] = str(ratio), worst
    if args.simulate:
        if args.algo != "bs":
            raise SparsekitError(f"--simulate is only available for algo 'bs', not {args.algo!r}")
        dist_edges, trace = run_distributed_spanner(
            graph, args.k, args.seed, budget_bits=args.budget_bits, max_rounds=args.max_rounds
        )
        report["rounds"] = trace.rounds_used
        report["message_bits"] = trace.max_message_bits
        report["distributed_matches"] = dist_edges.ids == edges.ids
        ok = ok and dist_edges.ids == edges.ids
    return _finish(args, edges, report, ok)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def cmd_certificate(args) -> int:
    graph = Graph.read(args.input)
    if args.variant == "small":
        cert = certificate_small_k(graph, args.k, eps=args.eps)
    else:
        cert = certificate_large_k(graph, args.k, eps=args.eps, seed=args.seed)
    report: dict = {
        "variant": args.variant,
        "k": args.k,
        "eps": args.eps,
        "n": graph.n,
        "m": graph.m,
        "edges": len(cert),
        "edge_cap": math.floor(graph.n * args.k * (1 + check_rational("eps", args.eps))),
    }
    ok = True
    if args.verify:
        rep = verify_certificate(graph, cert, args.k)
        report["verify_mode"] = rep.mode
        report["verify_ok"] = rep.ok
        report["verify_detail"] = {k: str(v) for k, v in rep.detail.items()}
        ok = rep.ok
    return _finish(args, cert, report, ok)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def parse_bench_config(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in cfg:
            raise ParameterError(f"bench config: repeated key {key}={value!r}")
        cfg[key] = value
    return cfg


def _ints(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def _algos(s: str) -> list[str]:
    names = [a.strip() for a in s.split(",")]
    if not set(names) <= ALGOS.keys():
        raise ValueError(s)
    return names


# key -> (default, parser).  Linear-size rows only pin a meaningful size
# constant once the phase schedule engages, hence the test-mode
# linear_alpha0 in the baseline config.
BENCH_KEYS = {
    "algos": ("bs", _algos),
    "ns": ("32", _ints),
    "ks": ("2", _ints),
    "ts": ("4", _ints),
    "seeds": ("1", _ints),
    "p": ("0.2", float),
    "weighted": ("0", lambda s: ("0", "1").index(s) == 1),
    "linear_alpha0": (str(DEFAULT_ALPHA0), float),
}


def _setting(cfg: dict[str, str], key: str, default: str, parse):
    """`parse` of cfg[key] (or `default`); a bad or empty value is a ParameterError naming the key."""
    value = cfg.get(key, default)
    try:
        parsed = parse(value)
        if parsed != []:
            return parsed
    except ValueError:
        pass
    raise ParameterError(f"bench config: bad value {key}={value!r}")


def run_bench(cfg: dict[str, str]) -> str:
    if unknown := [key for key in cfg if key not in BENCH_KEYS]:
        raise ParameterError(f"bench config: unknown key {unknown[0]}={cfg[unknown[0]]!r}")
    s = {key: _setting(cfg, key, *spec) for key, spec in BENCH_KEYS.items()}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["algo", "n", "param", "edges", "edges_bound", "stretch", "stretch_bound", "rounds", "seeds",
                     "pass"])
    for name in s["algos"]:
        algo = ALGOS[name]
        for n in s["ns"]:
            for param in s[algo.param + "s"] if algo.param else [0]:
                sizes, stretches, rounds, ok = [], [], 0, True
                for seed in s["seeds"]:
                    g = gnp(n, s["p"], seed=seed * 1009 + n, weighted=s["weighted"] and name != "ldc")
                    edges = algo.build(g, param, seed, s["linear_alpha0"])
                    sizes.append(len(edges))
                    bound, ratio, _, within = _check_stretch(algo, g, edges, param)
                    stretches.append(ratio)
                    ok = ok and within
                    if name == "bs":  # pinned: distributed rounds <= 1 * k
                        _, trace = run_distributed_spanner(g, param, seed)
                        rounds = max(rounds, trace.rounds_used)
                        ok = ok and trace.rounds_used <= param
                size = algo.size(n, param)
                ok = ok and max(sizes) <= size
                writer.writerow([name, n, param, max(sizes), size, max(stretches), bound,  # csv writes None as ""
                                 rounds if name == "bs" else "", len(s["seeds"]), int(ok)])
    return out.getvalue()


def cmd_bench(args) -> int:
    table = run_bench(parse_bench_config(read_text(args.config, ParameterError)))
    _write_output(args.csv, table)
    return 0 if all(row.rsplit(",", 1)[-1] == "1" for row in table.strip().splitlines()[1:]) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sparsekit", description=__doc__)
    p.add_argument("--version", action="version", version=f"sparsekit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a graph file")
    g.add_argument("--kind", choices=sorted(KINDS), required=True)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--p", type=float, default=0.2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--rows", type=int, default=4)
    g.add_argument("--cols", type=int, default=4)
    g.add_argument("--weighted", action="store_true")
    g.add_argument("--max-weight", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", default="-")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("spanner", help="build a spanner and optionally verify/simulate")
    s.add_argument("--input", "-i", required=True)
    s.add_argument("--algo", choices=ALGOS, required=True)
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--t", type=int, default=4)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--verify", action="store_true")
    s.add_argument("--simulate", action="store_true")
    s.add_argument("--budget-bits", type=int, default=None)
    s.add_argument("--max-rounds", type=int, default=None)
    s.add_argument("--output", "-o", default=None, help="edge-id list path ('-' = stdout)")
    s.add_argument("--json", default=None, help="JSON report path ('-' = stdout)")
    s.set_defaults(func=cmd_spanner)

    c = sub.add_parser("certificate", help="build a k-connectivity certificate")
    c.add_argument("--input", "-i", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--eps", type=float, default=0.25)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--variant", choices=("small", "large"), default="small")
    c.add_argument("--verify", action="store_true")
    c.add_argument("--output", "-o", default=None, help="edge-id list path ('-' = stdout)")
    c.add_argument("--json", default=None, help="JSON report path ('-' = stdout)")
    c.set_defaults(func=cmd_certificate)

    b = sub.add_parser("bench", help="run a benchmark config, emit CSV")
    b.add_argument("--config", required=True)
    b.add_argument("--csv", default="-")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparsekitError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
