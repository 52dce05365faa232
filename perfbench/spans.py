"""In-memory span recorder that wraps navsteer's public functions.

Each wrapped call records one span: name, start, end, parent span and the
id of the benchmark operation (sweep call or CLI command) it belongs to.
Wrappers are installed on the module attribute each *caller* looks up
(``navsteer.cli.load_edge_list``, ``navsteer.experiment.stationary``, ...),
so the package itself is not modified. Counts needed for per-layer ratios
are read from arguments and results after the span has ended; anything
more costly than an attribute read is kept by reference and evaluated
after the traced pass (see :func:`finish_counts`).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field

# Bytes one power-iteration step streams besides the matrix arrays: the
# loop body in navsteer.surfer.stationary makes 11 passes over length-n
# float64 vectors (SpMV read + write, sum, in-place divide read + write,
# subtract read x2 + write, abs read + write, final sum).
_VECTOR_PASSES_PER_ITERATION = 11


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans for calls made through installed wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._deferred: list[tuple[int, dict]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def root(self, name: str, run_id: int):
        """Span of one benchmark operation, which starts a new run id."""
        self.run_id = run_id
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if count is not None:
                count(tracer, index, span, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, count))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def defer(self, index: int, refs: dict) -> None:
        self._deferred.append((index, refs))

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        kids = self.children()
        return [s.duration - sum(self.spans[k].duration for k in kids.get(i, ()))
                for i, s in enumerate(self.spans)]


# -- counts read at span boundaries ----------------------------------------

def _count_stationary(tracer, index, span, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    m = p.entries
    span.counts.update(
        iterations=result.iterations,
        nnz=int(m.nnz),
        bytes_per_iter_computed=int(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            + _VECTOR_PASSES_PER_ITERATION * 8 * p.n))


def _count_load(tracer, index, span, args, kwargs, result):
    span.counts["edges"] = result.edge_count()


def _count_write(tracer, index, span, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    span.counts["edges"] = g.edge_count()


def _count_combine(tracer, index, span, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    tracer.defer(index, {"original": g.adjacency.data, "final": result[0]})


def _count_insert(tracer, index, span, args, kwargs, result):
    # Inside combine, insert_links receives the partially biased graph: same
    # sparsity as the original, so the biased entries are a data comparison.
    if span.parent >= 0 and tracer.spans[span.parent].name == "modify.combine":
        g = args[0] if args else kwargs["g"]
        tracer.defer(span.parent, {"partial": g.adjacency.data})


def finish_counts(tracer: Tracer) -> None:
    """Evaluate deferred counts after the traced pass, outside any span."""
    merged: dict[int, dict] = {}
    for index, refs in tracer._deferred:
        merged.setdefault(index, {}).update(refs)
    for index, refs in merged.items():
        partial = refs.get("partial")
        if partial is None:
            partial = refs["final"].adjacency.data
        tracer.spans[index].counts["biased_links"] = int(
            (partial != refs["original"]).sum())
    tracer._deferred.clear()


def install(tracer: Tracer, navsteer) -> None:
    """Wrap every layer boundary the measured operations cross.

    ``synth`` is wrapped separately, around set-up only.
    """
    cli, experiment, modify = navsteer.cli, navsteer.experiment, navsteer.modify
    for caller in (experiment, cli):
        tracer.patch(caller, "stationary", "surfer.stationary", _count_stationary)
        tracer.patch(caller, "transition_matrix", "surfer.transition")
        tracer.patch(caller, "sample_target_sets", "targets.sample")
    tracer.patch(cli, "cmd_stationary", "cli.stationary")
    tracer.patch(cli, "cmd_modify", "cli.modify")
    tracer.patch(cli, "load_edge_list", "graph.load", _count_load)
    tracer.patch(cli, "largest_scc", "graph.scc")
    tracer.patch(cli, "write_edge_list", "graph.write", _count_write)
    tracer.patch(cli, "run_single_detailed", "experiment.run_single")
    tracer.patch(experiment, "run_single_detailed", "experiment.run_single")
    tracer.patch(experiment, "_enumerate_tasks", "experiment.enumerate")
    tracer.patch(experiment, "apply_modification", "modify.apply")
    tracer.patch(experiment, "weight_budget", "modify.weight_budget")
    tracer.patch(experiment, "target_vector", "targets.vector")
    tracer.patch(experiment, "target_metrics", "metrics.target_metrics")
    tracer.patch(modify, "click_bias", "modify.bias")
    tracer.patch(modify, "insert_links", "modify.insert", _count_insert)
    tracer.patch(modify, "combine", "modify.combine", _count_combine)


# -- aggregation -----------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def layer_report(tracer: Tracer, traced_wall: float) -> dict:
    """Per-layer and per-span-name summaries of a traced pass."""
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)

    names = {}
    for name, idx in sorted(by_name.items()):
        durs = [tracer.spans[i].duration for i in idx]
        selfs = [self_t[i] for i in idx]
        names[name] = {"calls": len(idx), "median_s": _median(durs),
                       "total_s": sum(durs), "median_self_s": _median(selfs),
                       "self_total_s": sum(selfs)}

    # Set-up spans (run id -1) appear per name but not in the layer totals.
    layers: dict[str, float] = {}
    for i, s in enumerate(tracer.spans):
        if s.run_id >= 0:
            layers[layer_of(s.name)] = layers.get(layer_of(s.name), 0.0) + self_t[i]
    layer_self = {k: {"self_s": v, "share_of_traced_wall": v / traced_wall}
                  for k, v in sorted(layers.items())}
    return {"spans": names, "layers": layer_self}


def per_layer_metrics(tracer: Tracer, report: dict) -> dict:
    """Named per-layer metrics; a metric whose layer was not crossed is None."""
    spans = report["spans"]

    def med(name, key="median_s"):
        return spans[name][key] if name in spans else None

    def by(name):
        return [s for s in tracer.spans if s.name == name]

    solves = by("surfer.stationary")
    solve_time = sum(s.duration for s in solves)
    combines = by("modify.combine")
    sweeps = by("experiment.sweep")
    loads, writes = by("graph.load"), by("graph.write")
    return {
        "surfer.stationary_s": med("surfer.stationary"),
        "surfer.transition_s": med("surfer.transition"),
        "surfer.iterations": _median([s.counts["iterations"] for s in solves]),
        "surfer.edge_updates_per_s": (
            sum(s.counts["iterations"] * s.counts["nnz"] for s in solves)
            / solve_time if solves else None),
        "surfer.bytes_per_iter_computed": _median(
            [s.counts["bytes_per_iter_computed"] for s in solves]),
        "modify.combine_s": med("modify.combine"),
        "modify.combine_biased_links": _median(
            [s.counts["biased_links"] for s in combines]),
        "modify.insert_s": med("modify.insert"),
        "modify.bias_s": med("modify.bias"),
        "graph.load_s": med("graph.load"),
        "graph.load_edges_per_s": (
            sum(s.counts["edges"] for s in loads)
            / sum(s.duration for s in loads) if loads else None),
        "graph.scc_s": med("graph.scc"),
        "graph.write_s": med("graph.write"),
        "graph.write_edges_per_s": (
            sum(s.counts["edges"] for s in writes)
            / sum(s.duration for s in writes) if writes else None),
        "experiment.run_single_s": med("experiment.run_single"),
        "experiment.run_self_s": med("experiment.run_single", "median_self_s"),
        "experiment.enumerate_s": med("experiment.enumerate"),
        "experiment.worker_busy_frac": (
            spans["experiment.run_single"]["total_s"]
            / sum(s.duration for s in sweeps) if sweeps else None),
        "targets.sample_s": med("targets.sample"),
        "metrics.target_metrics_s": med("metrics.target_metrics"),
        "cli.stationary_self_s": med("cli.stationary", "median_self_s"),
        "cli.modify_self_s": med("cli.modify", "median_self_s"),
        "synth.graph_s": med("synth.graph"),
    }


def span_dump(tracer: Tracer) -> list[dict]:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run_id": s.run_id, **({"counts": s.counts} if s.counts else {})}
            for s in tracer.spans]
