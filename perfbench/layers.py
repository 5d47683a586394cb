"""Self-time accounting and the traced run's per-layer metrics.

The traced run wraps public functions of sparsekit's modules by rebinding
module attributes, and only while a traced repetition runs.  A function
that another module imported by name is rebound in that module too (for
example ``derand.build_adjacency`` or ``cli.measure_stretch``), because the
caller looks the name up there.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import process_time_ns
from typing import Callable


class SelfTimer:
    """Self CPU time and call count per key.

    A timed call's self time is its duration minus the time of the timed
    calls nested inside it, so the keys of one timer add up to the time
    covered by its outermost calls.  Durations are process CPU time, so
    time that other processes take from this one on a shared machine does
    not count.
    """

    def __init__(self) -> None:
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self._open: list[int] = []  # nested time per open call

    def call(self, key: str, fn: Callable, /, *args, **kwargs):
        self._open.append(0)
        t0 = process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = process_time_ns() - t0
            self.self_ns[key] += dt - self._open.pop()
            self.calls[key] += 1
            if self._open:
                self._open[-1] += dt

    def seconds(self, key: str) -> float:
        return self.self_ns[key] / 1e9


# -- counters taken from a wrapped call's arguments and result --------------


def _graph_arg(args, kwargs):
    return args[0] if args else kwargs["graph"]


def _count_clusters_in(counts, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    counts["clusters_in"] += len(state.clustering.clusters)


def _count_bits(counts, args, kwargs, result):
    counts["bits_fixed"] += len(result)
    counts["bits_one"] += sum(result)


def _count_carve(counts, args, kwargs, result):
    counts["clusters_carved"] += len(result.clustering.clusters)
    counts["demoted"] += result.demoted


def _count_edges_checked(counts, args, kwargs, result):
    counts["edges_checked"] += _graph_arg(args, kwargs).m


def _count_cuts(counts, args, kwargs, result):
    counts["cuts_checked"] += result.detail.get("cuts_checked", 0)


def _count_rounds(counts, args, kwargs, result):
    counts["rounds"] += result.rounds_used
    counts["messages"] += sum(result.per_round_messages)
    counts["max_message_bits"] = max(counts["max_message_bits"], result.max_message_bits)


def _count_rows(counts, args, kwargs, result):
    counts["rows"] += len(result.splitlines()) - 1


@dataclass(frozen=True)
class Span:
    module: str
    attr: str  # "name", or "Class.method" for a method
    key: str
    count: Callable | None = None


SPANS = (
    Span("sparsekit.graph", "Graph.__init__", "graph.init"),
    Span("sparsekit.graph", "Graph.edge_subgraph", "graph.edge_subgraph"),
    Span("sparsekit.baswana_sen", "spanner", "baswana_sen.spanner"),
    Span("sparsekit.baswana_sen", "run_distributed_spanner", "baswana_sen.run_distributed_spanner"),
    Span("sparsekit.baswana_sen", "build_adjacency", "baswana_sen.build_adjacency"),
    Span("sparsekit.baswana_sen", "run_iteration", "baswana_sen.run_iteration", _count_clusters_in),
    Span("sparsekit.baswana_sen", "random_samples", "baswana_sen.random_samples"),
    Span("sparsekit.baswana_sen", "run_g_iterations", "baswana_sen.run_g_iterations"),
    Span("sparsekit.derand", "deterministic_spanner", "derand.deterministic_spanner"),
    Span("sparsekit.derand", "fix_bits", "derand.fix_bits", _count_bits),
    Span("sparsekit.derand", "check_objectives", "derand.check_objectives"),
    Span("sparsekit.ultra_sparse", "linear_size_spanner", "ultra_sparse.linear_size"),
    Span("sparsekit.ultra_sparse", "ultra_sparse_spanner", "ultra_sparse.ultra_sparse"),
    Span("sparsekit.stretch_friendly", "partition", "stretch_friendly.partition"),
    Span("sparsekit.clustering", "contract", "clustering.contract"),
    Span("sparsekit.clustering", "compose_spanner", "clustering.compose_spanner"),
    Span("sparsekit.ldc", "ldc_sparse_spanner", "ldc.ldc_sparse_spanner"),
    Span("sparsekit.ldc", "grow_and_cut", "ldc.grow_and_cut"),
    Span("sparsekit.ldc", "carve_clustering", "ldc.carve_clustering", _count_carve),
    Span("sparsekit.verify", "measure_stretch", "verify.measure_stretch", _count_edges_checked),
    Span("sparsekit.certificates", "certificate_small_k", "certificates.certificate"),
    Span("sparsekit.certificates", "verify_certificate", "certificates.verify_certificate", _count_cuts),
    Span("sparsekit.certificates", "edge_connectivity", "certificates.edge_connectivity"),
    Span("sparsekit.congest", "run", "congest.run", _count_rounds),
    Span("sparsekit.cli", "run_bench", "cli.run_bench", _count_rows),
)


class Tracer:
    """Collects spans and counters from the wrapped sparsekit functions."""

    def __init__(self) -> None:
        self.timer = SelfTimer()
        self.counts: defaultdict[str, int] = defaultdict(int)

    def _wrap(self, span: Span, fn: Callable) -> Callable:
        timer, counts = self.timer, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = timer.call(span.key, fn, *args, **kwargs)
            if span.count is not None:
                span.count(counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every wrapped function in every sparsekit module; restore on exit."""
        # Import every module first: one imported while others are rebound
        # would keep a wrapper after they are restored.
        owners = {span.module: importlib.import_module(span.module) for span in SPANS}
        modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "sparsekit"]
        undo: list[tuple[object, str, object]] = []
        try:
            for span in SPANS:
                owner = owners[span.module]
                cls_name, _, method = span.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[method]
                    undo.append((cls, method, orig))
                    setattr(cls, method, self._wrap(span, orig))
                    continue
                orig = getattr(owner, span.attr)
                wrapper = self._wrap(span, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, name, orig))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for target, name, orig in reversed(undo):
                setattr(target, name, orig)


# -- per-layer metrics -------------------------------------------------------
#
# (name, unit, better, value); times are self CPU times.


def _s(key):
    return lambda tr: tr.timer.seconds(key)


def _calls(key):
    return lambda tr: tr.timer.calls[key]


def _n(key):
    return lambda tr: tr.counts[key]


def _ratio(num, den):
    return lambda tr: num(tr) / den(tr) if den(tr) else 0.0


LAYER_METRICS = (
    ("graph.init_s", "s", "lower", _s("graph.init")),
    ("graph.init_calls", "count", "lower", _calls("graph.init")),
    ("graph.edge_subgraph_s", "s", "lower", _s("graph.edge_subgraph")),
    ("baswana_sen.spanner_s", "s", "lower", _s("baswana_sen.spanner")),
    ("baswana_sen.run_distributed_spanner_s", "s", "lower", _s("baswana_sen.run_distributed_spanner")),
    ("baswana_sen.build_adjacency_s", "s", "lower", _s("baswana_sen.build_adjacency")),
    ("baswana_sen.build_adjacency_calls", "count", "lower", _calls("baswana_sen.build_adjacency")),
    ("baswana_sen.run_iteration_s", "s", "lower", _s("baswana_sen.run_iteration")),
    ("baswana_sen.run_iteration_calls", "count", "lower", _calls("baswana_sen.run_iteration")),
    ("baswana_sen.clusters_in", "count", "lower", _n("clusters_in")),
    ("baswana_sen.random_samples_s", "s", "lower", _s("baswana_sen.random_samples")),
    ("baswana_sen.run_g_iterations_s", "s", "lower", _s("baswana_sen.run_g_iterations")),
    ("derand.deterministic_spanner_s", "s", "lower", _s("derand.deterministic_spanner")),
    ("derand.fix_bits_s", "s", "lower", _s("derand.fix_bits")),
    ("derand.bits_fixed", "count", "lower", _n("bits_fixed")),
    ("derand.bits_one_frac", "frac", "lower", _ratio(_n("bits_one"), _n("bits_fixed"))),
    ("derand.check_objectives_s", "s", "lower", _s("derand.check_objectives")),
    ("ultra_sparse.linear_size_s", "s", "lower", _s("ultra_sparse.linear_size")),
    ("ultra_sparse.linear_size_calls", "count", "lower", _calls("ultra_sparse.linear_size")),
    ("ultra_sparse.ultra_sparse_s", "s", "lower", _s("ultra_sparse.ultra_sparse")),
    (
        "ultra_sparse.partition_attempts_per_call", "count", "lower",
        _ratio(_calls("stretch_friendly.partition"), _calls("ultra_sparse.ultra_sparse")),
    ),
    ("stretch_friendly.partition_s", "s", "lower", _s("stretch_friendly.partition")),
    ("stretch_friendly.partition_calls", "count", "lower", _calls("stretch_friendly.partition")),
    ("clustering.contract_s", "s", "lower", _s("clustering.contract")),
    ("clustering.contract_calls", "count", "lower", _calls("clustering.contract")),
    ("clustering.compose_spanner_s", "s", "lower", _s("clustering.compose_spanner")),
    ("ldc.ldc_sparse_spanner_s", "s", "lower", _s("ldc.ldc_sparse_spanner")),
    ("ldc.grow_and_cut_s", "s", "lower", _s("ldc.grow_and_cut")),
    ("ldc.carve_clustering_s", "s", "lower", _s("ldc.carve_clustering")),
    ("ldc.carve_calls", "count", "lower", _calls("ldc.carve_clustering")),
    ("ldc.clusters_carved", "count", "higher", _n("clusters_carved")),
    (
        "ldc.demoted_frac", "frac", "lower",
        _ratio(_n("demoted"), lambda tr: tr.counts["demoted"] + tr.counts["clusters_carved"]),
    ),
    ("verify.measure_stretch_s", "s", "lower", _s("verify.measure_stretch")),
    ("verify.measure_stretch_calls", "count", "lower", _calls("verify.measure_stretch")),
    ("verify.edges_checked", "count", "lower", _n("edges_checked")),
    ("certificates.certificate_s", "s", "lower", _s("certificates.certificate")),
    ("certificates.verify_certificate_s", "s", "lower", _s("certificates.verify_certificate")),
    ("certificates.edge_connectivity_s", "s", "lower", _s("certificates.edge_connectivity")),
    ("certificates.edge_connectivity_calls", "count", "lower", _calls("certificates.edge_connectivity")),
    ("certificates.cuts_checked", "count", "lower", _n("cuts_checked")),
    ("congest.run_s", "s", "lower", _s("congest.run")),
    ("congest.rounds", "count", "lower", _n("rounds")),
    ("congest.messages", "count", "lower", _n("messages")),
    ("congest.max_message_bits", "bit", "lower", _n("max_message_bits")),
    ("cli.run_bench_s", "s", "lower", _s("cli.run_bench")),
    ("cli.rows", "count", "higher", _n("rows")),
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of what `tracer` saw, as (value, unit) by name."""
    return {name: (value(tracer), unit) for name, unit, _, value in LAYER_METRICS}
