"""Timing benchmark for sparsekit.

    python3 perfbench/run.py --workload derand-spanners --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

The measurement runs in one process and one thread, as a closed loop:
after set-up, the workload's job list (see jobs.py) runs again and again,
each repetition after the previous one has finished.  Repetitions cycle
through the run's input sets, which are drawn from ``--seed``.  The loop
stops before a repetition that would end after ``--seconds``, but not
before every input set has run once.  Every output is checked on every
repetition: by its oracle, by the simulator-equals-centralized check, by
the pinned bench CSV, by agreement with the first repetition on the same
input set and, on the default seed, by the edge-list digests pinned in
digests.json.  A failed check or a job that raises counts in ``failed``;
it never stops the run.

Each time metric is the median over the repetitions of each input set,
averaged over the input sets.  ``--trace 0`` reports the end-to-end
metrics: ``wall_s`` (the whole job list, wall clock), ``build_s`` and
``verify_s`` (process CPU time in construction and in oracle calls),
``setup_s`` (the median wall time of several fresh processes that each
import sparsekit and build the run's inputs) and the process's
``peak_rss_mib``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of layers.py per job list,
``trace_overhead_frac`` (traced over untraced ``wall_s``, minus 1) and
``graph.init_setup_s`` (graph construction in one traced set-up).

The last line of standard output is the JSON result; the line before it
records the environment, the repetitions, the per-job times and the
digests.  ``--workload all`` runs every workload, each in its own
process, and prints each metric by name with its unit.  The benchmark
exits 2 without a result when it cannot set up, for instance in a
directory without the sparsekit sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import jobs
from layers import SelfTimer, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
SETUP_PROBE_TIMEOUT_S = 60

# A fresh interpreter that times `import sparsekit` plus the workload's set-up.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import jobs
jobs.load_sparsekit()
jobs.input_sets(sys.argv[2], int(sys.argv[3]), sys.argv[4])
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str, seed: int, scale: str) -> float:
    """Median wall time of fresh interpreters that import sparsekit and build
    the run's inputs; one process can time its first import only once."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(HERE), workload, str(seed), scale],
            capture_output=True, text=True, check=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def digest(edges) -> str | None:
    if edges is None:
        return None
    return hashlib.sha256(",".join(map(str, sorted(edges.ids))).encode()).hexdigest()[:16]


@dataclass
class Rep:
    wall_s: float
    build_s: float
    verify_s: float
    per_job: dict[str, tuple[float, float]]  # job -> (build_s, verify_s)
    digests: dict[str, str | None]
    ok: dict[str, bool]
    layers: dict[str, tuple[float, str]] | None  # traced repetitions only


def run_jobs(job_list: list[jobs.Job], tracer: Tracer | None = None) -> Rep:
    """Run the job list once, traced by `tracer` if one is given."""
    gc.collect()  # start each repetition without the previous one's garbage
    clock = SelfTimer()
    done: dict[str, object] = {}
    ok: dict[str, bool] = {}
    per_job: dict[str, tuple[float, float]] = {}
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        for job in job_list:
            b0, v0 = clock.seconds(jobs.BUILD), clock.seconds(jobs.VERIFY)
            try:
                done[job.name], ok[job.name] = job.run(clock, done)
            except Exception:  # a failing job is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                done[job.name], ok[job.name] = None, False
            per_job[job.name] = (clock.seconds(jobs.BUILD) - b0, clock.seconds(jobs.VERIFY) - v0)
        wall = perf_counter() - t0
    digests = {name: digest(out) for name, out in done.items()}
    layers = layer_metrics(tracer) if tracer else None
    return Rep(wall, clock.seconds(jobs.BUILD), clock.seconds(jobs.VERIFY), per_job, digests, ok, layers)


def pinned_digests(workload: str) -> dict[str, str]:
    """Pinned digests of the default seed's outputs, keyed "input set/job"."""
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return {key.partition("/")[2]: d for key, d in pins.items() if key.partition("/")[0] == workload}


def count_failures(reps: list[tuple[int, Rep]], pins: dict[str, str] | None) -> int:
    """Failed job runs: a failed check, a raise, an edge list that differs from
    the one of the first repetition on the same input set or, when `pins` is
    given, from its pinned digest."""
    failed = 0
    first: dict[int, dict[str, str | None]] = {}
    for k, rep in reps:
        ref = first.setdefault(k, rep.digests)
        for name, ok in rep.ok.items():
            d = rep.digests[name]
            failed += not ok or d != ref[name] or (pins is not None and d is not None and pins.get(f"{k}/{name}") != d)
    return failed


def environment() -> dict:
    """What the figures depend on besides the code: with gmpy2 present,
    rational.RAT is gmpy2.mpq and derand-spanners runs many times faster."""
    from sparsekit import __version__, rational

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "networkx")},
        "gmpy2": rational.HAVE_GMPY2,
        "sparsekit": __version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def across_sets(reps: list[tuple[int, Rep]], value) -> float:
    """Median over the repetitions of each input set, averaged over the input sets."""
    by_set: dict[int, list[float]] = {}
    for k, rep in reps:
        by_set.setdefault(k, []).append(value(rep))
    return statistics.fmean(statistics.median(v) for v in by_set.values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> Result:
    """Set up `workload` and measure it for `seconds`; see the module docstring."""
    setup_s = None if trace else setup_seconds(workload, seed, scale)
    sets = jobs.input_sets(workload, seed, scale)
    untraced: list[tuple[int, Rep]] = []  # (input set, repetition)
    traced: list[tuple[int, Rep]] = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        k = len(untraced) % len(sets)
        untraced.append((k, run_jobs(sets[k])))
        if trace:
            traced.append((k, run_jobs(sets[k], Tracer())))
        step = perf_counter() - t0
        if len(untraced) >= len(sets) and perf_counter() - t_start + step > seconds:
            break
    reps = untraced + traced
    failed = count_failures(reps, pinned_digests(workload) if seed == DEFAULT_SEED else None)
    attempted = sum(len(rep.ok) for _, rep in reps)

    if trace:
        setup_tracer = Tracer()
        with setup_tracer.installed():
            jobs.input_sets(workload, seed, scale)
        metrics = {name: (across_sets(traced, lambda r: r.layers[name][0]), unit)
                   for name, (_, unit) in traced[0][1].layers.items()}
        metrics["graph.init_setup_s"] = (setup_tracer.timer.seconds("graph.init"), "s")
        overhead = across_sets(traced, lambda r: r.wall_s) / across_sets(untraced, lambda r: r.wall_s) - 1
        metrics["trace_overhead_frac"] = (overhead, "frac")
    else:
        metrics = {
            "wall_s": (across_sets(untraced, lambda r: r.wall_s), "s"),
            "build_s": (across_sets(untraced, lambda r: r.build_s), "s"),
            "verify_s": (across_sets(untraced, lambda r: r.verify_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    per_job = {}
    for name in untraced[0][1].per_job:
        for i, part in enumerate(("build_s", "verify_s")):
            per_job[f"{workload}.{name}.{part}"] = across_sets(untraced, lambda r: r.per_job[name][i])
    info = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "failed_frac": failed / attempted,
        "env": environment(),
        "jobs": per_job,
        "digests": {f"{workload}/{k}/{name}": d for k, rep in untraced[:len(sets)]
                    for name, d in rep.digests.items() if d is not None},
    }
    return Result(failed == 0, attempted, failed, metrics, info)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a fresh process, as a single run would be, and
    print each metric by name with its unit."""
    ok = True
    for workload in jobs.WORKLOADS:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload}: exit code {out.returncode}")
            ok = False
            continue
        *_, info, result = out.stdout.splitlines()
        res = json.loads(result)
        print(info)
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
              f" failed_frac={json.loads(info)['failed_frac']:.4g}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        ok = ok and res["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*jobs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        jobs.load_sparsekit()
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, ValueError, subprocess.SubprocessError) as ex:
        print(f"error: cannot set up the benchmark: {ex}", file=sys.stderr)
        return 2
    print(json.dumps(res.info, sort_keys=True))
    print(res.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
