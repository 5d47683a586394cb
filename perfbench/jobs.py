"""The benchmark's workloads: seeded inputs and the job list of each.

A workload builder generates one input set from a seed (or reads the
pinned bench table) and returns the jobs that use it.  A run of the
benchmark uses ``INPUT_SETS`` input sets drawn from its seed, so that its
figures average over several random graphs; building them, after
importing sparsekit, is the set-up that ``setup_s`` times.  A job calls public sparsekit functions through their
modules, so that the traced run sees each call, and times each call on the
clock it is given: constructions as ``build``, oracles as ``verify``.  It
returns its output edge set (``None`` when the output is not an edge set)
and whether every check on it passed.

Sizes are chosen so that one job list takes a few seconds; ``toy`` scale
runs the same jobs on graphs small enough for the benchmark's tests.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

BUILD, VERIFY = "build", "verify"


def load_sparsekit():
    """Import sparsekit from this checkout's ``src`` with library thread pools pinned to one thread.

    Raises ImportError when the checkout has no sparsekit sources, so the
    benchmark never measures some other installed copy.
    """
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "sparsekit" / "__init__.py").is_file():
        raise ImportError(f"no sparsekit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sparsekit

    if Path(sparsekit.__file__).resolve().parent != src / "sparsekit":
        raise ImportError(f"sparsekit imported from {sparsekit.__file__}, not from {src}")
    return sparsekit


@dataclass(frozen=True)
class Job:
    name: str
    # run(clock, done) -> (EdgeSet | None, ok); `done` maps the names of the
    # jobs already run in this job list to their outputs.
    run: Callable


def _spanner_job(build: Callable, graph, alpha: int, clock, done):
    """A construction checked edge-wise against stretch `alpha` by verify_stretch."""
    from sparsekit import verify

    h = clock.call(BUILD, build, graph)
    return h, clock.call(VERIFY, verify.verify_stretch, graph, h, alpha).ok


def _connected_job(build: Callable, graph, max_edges: int | None, clock, done):
    """A construction with no closed-form stretch: measure_stretch must be finite."""
    from sparsekit import verify

    h = clock.call(BUILD, build, graph)
    ratio, _ = clock.call(VERIFY, verify.measure_stretch, graph, h.ids)
    return h, not math.isinf(ratio) and (max_edges is None or len(h) <= max_edges)


def derand_spanners(seed: int, scale: str = "full") -> list[Job]:
    """Derandomized constructions: bit fixing by conditional expectation in exact rationals."""
    from sparsekit import derand, generate, ultra_sparse

    n = 512 if scale == "full" else 48
    gu = generate.gnp(n, 16 / n, seed=100 * seed + 1)
    gw = generate.gnp(n, 16 / n, seed=100 * seed + 2, weighted=True)
    bs_det = lambda g: derand.deterministic_spanner(g, 3)  # noqa: E731
    linear = lambda g: ultra_sparse.linear_size_spanner(g, mode="derandomized", alpha0=4)  # noqa: E731
    return [
        Job(f"bs-det-u{n}", partial(_spanner_job, bs_det, gu, 5)),
        Job(f"bs-det-w{n}", partial(_spanner_job, bs_det, gw, 5)),
        Job(f"linear-det-u{n}", partial(_connected_job, linear, gu, None)),
    ]


def ldc_carving(seed: int, scale: str = "full") -> list[Job]:
    """Ball-carving spanners on two gnp sizes and a grid, checked against stretch_bound_ldc."""
    from sparsekit import generate, ldc

    t = 8
    n1, n2, side = (512, 768, 24) if scale == "full" else (48, 64, 6)
    graphs = [
        (f"ldc-gnp{n1}", generate.gnp(n1, 8 / n1, seed=100 * seed + 1)),
        (f"ldc-gnp{n2}", generate.gnp(n2, 8 / n2, seed=100 * seed + 2)),
        (f"ldc-grid{side}", generate.grid(side, side, seed=seed)),
    ]

    def job(g, clock, done):
        build = lambda graph: ldc.ldc_sparse_spanner(graph, t)  # noqa: E731
        h, ok = _spanner_job(build, g, ldc.stretch_bound_ldc(g.n, t), clock, done)
        return h, ok and len(h) <= g.n + math.ceil(g.n / t)

    return [Job(name, partial(job, g)) for name, g in graphs]


def verify_heavy(seed: int, scale: str = "full") -> list[Job]:
    """Oracle-bound jobs: all-pairs stretch on a large graph and exact certificate checks."""
    from sparsekit import baswana_sen, certificates, generate, ultra_sparse

    n, nc, ns = (2048, 256, 18) if scale == "full" else (96, 32, 10)
    gw = generate.gnp(n, 16 / n, seed=100 * seed + 1, weighted=True)
    gc = generate.gnp(nc, 16 / nc, seed=100 * seed + 2)
    gs = generate.gnp(ns, 0.5, seed=100 * seed + 3)
    bs_name = f"bs-w{n}"

    def replay(clock, done):
        # The message-passing run must reproduce the centralized spanner bit for bit.
        h, _ = clock.call(BUILD, baswana_sen.run_distributed_spanner, gw, 3, seed)
        return h, h.ids == done[bs_name].ids

    def certificate(g, mode, clock, done):
        c = clock.call(BUILD, certificates.certificate_small_k, g, 3)
        rep = clock.call(VERIFY, certificates.verify_certificate, g, c, 3)
        return c, rep.ok and rep.mode == mode

    return [
        Job(bs_name, partial(_spanner_job, lambda g: baswana_sen.spanner(g, 3, seed), gw, 5)),
        Job(f"bs-sim-w{n}", replay),
        Job(f"ultra-w{n}", partial(_connected_job, lambda g: ultra_sparse.ultra_sparse_spanner(g, 8), gw,
                                   n + math.ceil(n / 8))),
        Job(f"cert-k3-gnp{nc}", partial(certificate, gc, "mincut")),
        Job(f"cert-k3-gnp{ns}", partial(certificate, gs, "cuts")),
    ]


def baseline_table(seed: int, scale: str = "full") -> list[Job]:
    """``cli.run_bench`` on the pinned bench config, one job per algorithm, compared byte for byte.

    The rows do not depend on the seed: the config pins its own seeds, and
    the table is the repository's byte-identity gate.  Only the rows of the
    ``ns`` below run; each is compared with the same row of the pinned CSV.
    """
    from sparsekit import cli

    cfg = cli.parse_bench_config((ROOT / "bench" / "baseline.cfg").read_text(encoding="utf-8"))
    header, *rows = (ROOT / "bench" / "baseline.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    ns = ("32", "64") if scale == "full" else ("32",)

    def job(algo, expected, clock, done):
        # run_bench runs its own stretch oracle; time it as verify, not build.
        measure = cli.measure_stretch
        cli.measure_stretch = partial(clock.call, VERIFY, measure)
        try:
            text = clock.call(BUILD, cli.run_bench, dict(cfg, algos=algo, ns=",".join(ns)))
        finally:
            cli.measure_stretch = measure
        return None, text == expected

    jobs = []
    for algo in cfg["algos"].split(","):
        expected = [r for r in rows if r.split(",")[0] == algo and r.split(",")[1] in ns]
        if not expected:
            raise ValueError(f"bench/baseline.csv has no {algo} rows for n in {ns}")
        jobs.append(Job(f"table-{algo}", partial(job, algo, header + "".join(expected))))
    return jobs


INPUT_SETS = 3

# name -> (builder, number of input sets); the bench table has one input.
WORKLOADS = {
    "derand-spanners": (derand_spanners, INPUT_SETS),
    "ldc-carving": (ldc_carving, INPUT_SETS),
    "verify-heavy": (verify_heavy, INPUT_SETS),
    "baseline-table": (baseline_table, 1),
}


def input_sets(workload: str, seed: int, scale: str = "full") -> list[list[Job]]:
    """The job lists of one run: input set k is built from seed INPUT_SETS * seed + k."""
    build, sets = WORKLOADS[workload]
    return [build(INPUT_SETS * seed + k, scale) for k in range(sets)]
