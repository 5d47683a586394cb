"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criterion 10 is implemented faithfully and is expected to fail for
alpha in {2^8 .. 2^15}: with base-2 logs the right side of
x log x <= alpha <= y^z is simply false there (e.g. alpha = 2^8 gives
y = 8/3, z ~ 4.55, y^z ~ 87 < 256), and no alternative log base makes
the whole sweep true.  The first valid value is 2^16, where y = 4 and
z = 8 give y^z = alpha exactly; from there on the inequality holds with
growing margin.  The criterion is kept as stated rather than weakened;
everything else must pass.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from sparsekit.baswana_sen import (
    initial_state,
    run_distributed_spanner,
    run_iteration,
    random_samples,
    spanner,
)
from sparsekit.certificates import (
    certificate_large_k,
    certificate_small_k,
    edge_connectivity,
    verify_certificate,
)
from sparsekit.derand import UtilityContext, conditional_expectation, deterministic_spanner, fix_bits
from sparsekit.generate import k_connected_random
from sparsekit.ldc import grow_and_cut, ldc_sparse_spanner
from sparsekit.stretch_friendly import partition
from sparsekit.ultra_sparse import ultra_sparse_spanner, x_seq_holds
from sparsekit.verify import verify_stretch, verify_stretch_friendly

from conftest import connected_gnp, cycle_graph, gnp_graph, grid_graph

REPO = Path(__file__).resolve().parent.parent


def report(criterion: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violation(s); first: {failures[0]})"
    print(f"\nACCEPTANCE {criterion:2d} {name}: {status}")
    assert not failures, f"criterion {criterion}: {failures[:3]}"


# -- 1: stretch exactness ------------------------------------------------------


def test_criterion_01_stretch_exactness():
    start = time.monotonic()
    rng = random.Random(20260810)
    failures = []
    cells = 0
    for i in range(25):
        n = int(32 * (256 / 32) ** (i / 24))
        p = rng.choice([0.12, 0.2, 0.35]) if n <= 96 else rng.choice([6.6, 9.0, 13.5]) / n
        g = connected_gnp(n, p, seed=9000 + i, weighted=(i % 2 == 0), max_weight=60)
        for k in (1, 2, 3, 4):
            for algo in ("randomized", "derandomized"):
                es = spanner(g, k, seed=i * 4 + k) if algo == "randomized" else deterministic_spanner(g, k)
                rep = verify_stretch(g, es, 2 * k - 1)
                cells += 1
                if not rep.ok:
                    failures.append((i, n, k, algo, str(rep.worst_ratio)))
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s >= 120s")
    print(f"\n  [criterion 1: {cells} cells in {elapsed:.1f}s]")
    report(1, "stretch exactness (2k-1, zero tolerance)", failures)


# -- 2: ultra-sparsity exactness ------------------------------------------------


def test_criterion_02_ultra_sparsity_exactness():
    failures = []
    inputs = [
        connected_gnp(64, 0.12, seed=21),
        connected_gnp(128, 0.06, seed=22),
        connected_gnp(200, 0.035, seed=23),
        cycle_graph(96),
        grid_graph(10, 10),
        connected_gnp(96, 0.1, seed=24, weighted=True, max_weight=40),
    ]
    for t in (2, 4, 8, 16):
        for gi, g in enumerate(inputs):
            cap = g.n + math.ceil(g.n / t)
            out = ultra_sparse_spanner(g, t)
            if len(out) > cap:
                failures.append(("ultra", gi, t, len(out), cap))
            if not g.weighted:
                out2 = ldc_sparse_spanner(g, t)
                if len(out2) > cap:
                    failures.append(("ldc", gi, t, len(out2), cap))
    report(2, "ultra-sparsity |E| <= n + ceil(n/t)", failures)


# -- 3: determinism -------------------------------------------------------------


def _determinism_fingerprint() -> str:
    g = gnp_graph(48, 0.25, seed=314, weighted=True, max_weight=31)
    payload = []
    payload.append(sorted(deterministic_spanner(g, 3).ids))
    cl = partition(g, 4)
    rep = cl.report
    payload.append([(c.root, sorted(c.members)) for c in cl.clusters])
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def test_criterion_03_determinism():
    failures = []
    prints = {_determinism_fingerprint() for _ in range(5)}
    if len(prints) != 1:
        failures.append(f"in-process runs diverged: {prints}")
    code = (
        "import sys; sys.path.insert(0, 'tests'); "
        "from test_acceptance import _determinism_fingerprint; "
        "print(_determinism_fingerprint())"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
        ).stdout.strip()
        for _ in range(2)
    }
    if len(outs) != 1 or outs != prints:
        failures.append(f"cross-process runs diverged: {outs} vs {prints}")
    report(3, "bit-identical determinism across runs and restarts", failures)


# -- 4: derandomization soundness ------------------------------------------------


def _enumerate_expectation(state, ctx, partial) -> Fraction:
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


def test_criterion_04_derandomization_soundness():
    failures = []
    rng = random.Random(41)
    checked = 0
    while checked < 500:
        n = rng.randint(4, 10)
        weighted = rng.random() < 0.5
        g = gnp_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(10**6), weighted=weighted, max_weight=9)
        p = Fraction(1, rng.randint(2, 3))
        st = initial_state(g)
        if rng.random() < 0.5:
            st = run_iteration(st, random_samples(st, p, rng.randrange(100)))
            if not st.alive:
                continue
        c = len(st.clustering.clusters)
        ctx = UtilityContext.create(
            n=n, iteration=st.iteration, p=p, g=max(st.iteration, 2), weighted=weighted
        )
        budget = rng.choice([4, 6, 8, 10, 12]) if checked % 25 else 12
        partial: list = [None] * c
        for j in rng.sample(range(c), max(0, c - budget)):
            partial[j] = rng.choice([0, 1])
        got = conditional_expectation(st, ctx, partial)
        want = _enumerate_expectation(st, ctx, partial)
        if got != want:
            failures.append((checked, n, weighted, str(got), str(want)))
            if len(failures) > 3:
                break
        checked += 1
    # CE monotonicity is asserted inside fix_bits (raises on violation);
    # exercise it across fresh instances to cover this criterion directly.
    for seed in range(40):
        g = gnp_graph(14, 0.4, seed=7000 + seed, weighted=bool(seed % 2), max_weight=15)
        st = initial_state(g)
        ctx = UtilityContext.create(n=14, iteration=1, p=Fraction(1, 2), g=2, weighted=bool(seed % 2))
        fix_bits(st, ctx, enforce_target=False)
    report(4, "conditional expectation exact + monotone", failures)


# -- 5: stretch-friendly partition ------------------------------------------------


def test_criterion_05_stretch_friendly_partition():
    failures = []
    rng = random.Random(55)
    for i in range(100):
        n = rng.randint(24, 96)
        g = connected_gnp(n, rng.choice([2.6, 3.4, 5.0]) / n * 2, seed=5500 + i, weighted=True, max_weight=50)
        for t in (2, 4, 8):
            cl = partition(g, t)
            rep = cl.report
            if min(rep.cluster_sizes) < t:
                failures.append((i, t, "size", min(rep.cluster_sizes)))
            if rep.max_radius > 3 * t:
                failures.append((i, t, "radius", rep.max_radius))
            if len(cl.clusters) > n / t:
                failures.append((i, t, "count", len(cl.clusters)))
            if not verify_stretch_friendly(g, cl).ok:
                failures.append((i, t, "stretch-friendly"))
    report(5, "partition size/radius/count/friendliness", failures)


# -- 6: grow-and-cut invariants ----------------------------------------------------


def test_criterion_06_grow_and_cut_invariants():
    failures = []
    rng = random.Random(66)
    for i in range(100):
        n = rng.randint(24, 120)
        g = gnp_graph(n, rng.choice([0.04, 0.1, 0.25]), seed=6600 + i)
        t = rng.choice([2, 4])
        try:
            cl, ledger = grow_and_cut(g, t)
            steps = cl.report
        except Exception as ex:  # any invariant violation surfaces here
            failures.append((i, n, t, repr(ex)))
            continue
        if not cl.is_partition(g):
            failures.append((i, n, t, "not a partition"))
        if any(5 * s.bad_mass > s.unclustered_before for s in steps):
            failures.append((i, n, t, "bad mass"))
    report(6, "grow-and-cut five invariants + 1/5 bad mass", failures)


# -- 7: certificates ------------------------------------------------------------


def test_criterion_07_certificates():
    failures = []
    rng = random.Random(77)
    eps_cycle = [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]
    # mode A: exhaustive cuts, 100 instances with n <= 16, k in 1..4
    for i in range(100):
        n = rng.randint(6, 16)
        k = 1 + i % 4
        eps = eps_cycle[i % 3]
        if i % 3 == 0:
            g = connected_gnp(n, 0.5, seed=7700 + i)
        else:
            g = gnp_graph(n, rng.choice([0.3, 0.6]), seed=7700 + i)
        cert = certificate_small_k(g, k, eps=eps)
        if len(cert) > g.n * k * (1 + eps):
            failures.append(("A-size", i, len(cert)))
        rep = verify_certificate(g, cert, k)
        if not (rep.ok and rep.mode == "cuts"):
            failures.append(("A", i, n, k, rep.detail))
    # mode B: exact min-cut comparison, 20 seeds per variant
    cases = [(60, 6), (100, 12), (140, 16), (200, 16)]
    for variant in ("small", "large"):
        for s in range(20):
            n, k = cases[s % len(cases)]
            eps = eps_cycle[s % 3]
            g = k_connected_random(n, k, seed=770 + s)
            if variant == "small":
                cert = certificate_small_k(g, k, eps=eps)
            else:
                cert = certificate_large_k(g, k, eps=eps, seed=s)
            if len(cert) > g.n * k * (1 + eps):
                failures.append(("B-size", variant, s, len(cert)))
            lam_g = edge_connectivity(g)
            lam_h = edge_connectivity(g, cert.ids)
            if lam_h < min(lam_g, k):
                failures.append(("B", variant, s, lam_g, lam_h))
    report(7, "certificates: exhaustive cuts + min-cut + size caps", failures)


# -- 8: size statistics ------------------------------------------------------------


def test_criterion_08_size_statistics():
    failures = []
    seeds = range(50)
    for k in (1, 2, 3, 4):
        means = {}
        for n in (64, 128):
            sizes = [len(spanner(gnp_graph(n, 0.5, seed=800 + s), k, seed=s)) for s in seeds]
            means[n] = statistics.fmean(sizes)
        ratio = means[128] / means[64]
        cap = 2 ** (1 + 1 / k) * 1.2
        if ratio > cap:
            failures.append((k, ratio, cap))
    report(8, "size shape: doubling n scales mean by <= 2^(1+1/k) * 1.2", failures)


# -- 9: simulator fidelity -----------------------------------------------------------


def _baseline_round_caps() -> dict[int, int]:
    rows = (REPO / "bench" / "baseline.csv").read_text().strip().splitlines()[1:]
    caps: dict[int, int] = {}
    for row in rows:
        cols = row.split(",")
        if cols[0] == "bs":
            k = int(cols[2])
            caps[k] = max(caps.get(k, 0), int(cols[7]))
    return caps


def test_criterion_09_simulator_fidelity():
    failures = []
    caps = _baseline_round_caps()
    rng = random.Random(99)
    for i in range(50):
        n = rng.randint(8, 32)
        g = gnp_graph(n, rng.choice([0.2, 0.35, 0.6]), seed=9900 + i, weighted=bool(i % 2), max_weight=20)
        k = 2 + i % 3
        es_d, trace = run_distributed_spanner(g, k, seed=i)
        es_c = spanner(g, k, seed=i)
        if es_d.ids != es_c.ids:
            failures.append(("mismatch", i, n, k))
        if trace.rounds_used > 1 * k:
            failures.append(("rounds", i, trace.rounds_used, k))
        if k in caps and trace.rounds_used > caps[k]:
            failures.append(("baseline regression", i, trace.rounds_used, caps[k]))
        if trace.max_message_bits > 64 * math.ceil(math.log2(max(n, 2))):
            failures.append(("bits", i, trace.max_message_bits))
    report(9, "distributed == centralized, rounds <= c*k, bit budget", failures)


# -- 10: the scheduling inequality sweep ------------------------------------------------


def test_criterion_10_x_seq_sweep():
    failures = []
    for j in range(8, 65):
        left, right = x_seq_holds(1 << j)
        if not (left and right):
            failures.append((f"2^{j}", "left" if not left else "right side fails"))
    # Expected outcome: FAIL for 2^8..2^15 — the inequality's right side is
    # false below 2^16 (see notes); this criterion is kept faithful rather
    # than weakened.
    report(10, "x log x <= alpha <= y^z for alpha = 2^8..2^64", failures)
