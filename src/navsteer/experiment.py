"""Monte-Carlo sweeps over strategies, target fractions and strengths.

A sweep is a deterministic function of (graph, config): target sets and
combined-strategy draws are seeded from the master seed per
(phi, sample_id) substream, runs are enumerated in sorted key order, and
failures are isolated into a manifest instead of aborting the sweep. The
worker count changes wall time only, never output bytes.
"""

from __future__ import annotations

import concurrent.futures
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .graph import WeightedDigraph
from .metrics import target_metrics
from .modify import (
    ModificationSpec,
    Strategy,
    apply_modification,
    check_bias_strength,
    weight_budget,
)
from .surfer import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    StationaryResult,
    check_solver_settings,
    stationary,
    transition_matrix,
)
from .targets import TargetSet, sample_target_sets, target_vector
from .util import derive_seed, write_csv

logger = logging.getLogger(__name__)

REALISTIC_BIAS_STRENGTHS = tuple(float(b) for b in range(2, 16))
SATURATION_BIAS_STRENGTHS = (2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 100.0, 150.0, 200.0)
DEFAULT_PHI_VALUES = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2)
DEFAULT_ALPHA_VALUES = tuple(i / 10 for i in range(11))

COMBINE_STREAM = "combine"


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep definition (everything that affects output)."""

    graph_id: str = "graph"
    strategies: tuple[Strategy, ...] = (Strategy.CLICK_BIAS, Strategy.LINK_INSERTION)
    phi_values: tuple[float, ...] = DEFAULT_PHI_VALUES
    bias_strengths: tuple[float, ...] = REALISTIC_BIAS_STRENGTHS
    alpha_values: tuple[float, ...] = DEFAULT_ALPHA_VALUES
    samples_per_phi: int = 100
    master_seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        object.__setattr__(self, "strategies",
                           tuple(Strategy(s) for s in self.strategies))
        for name in ("strategies", "phi_values", "bias_strengths", "alpha_values"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValidationError(f"{name} must not repeat a value")
        if not self.strategies:
            raise ValidationError("sweep needs at least one strategy")
        if not self.phi_values or not all(0 < p <= 1 for p in self.phi_values):
            raise ValidationError("phi values must lie in (0, 1]")
        if not self.bias_strengths:
            raise ValidationError("sweep needs at least one bias strength")
        for b in self.bias_strengths:
            check_bias_strength(b)
        if any(not (0.0 <= a <= 1.0) for a in self.alpha_values):
            raise ValidationError("alpha values must lie in [0, 1]")
        if Strategy.COMBINED in self.strategies and not self.alpha_values:
            raise ValidationError("combined strategy needs alpha values")
        if Strategy.COMBINED in self.strategies and 1.0 in self.bias_strengths:
            raise ValidationError("combined strategy needs bias strengths > 1")
        if self.samples_per_phi < 1:
            raise ValidationError("samples_per_phi must be at least 1")
        check_solver_settings(self.tolerance, self.max_iterations)


@dataclass(frozen=True)
class RunRecord:
    """One (strategy, phi, sample, b[, alpha]) experiment outcome.

    ``phi`` is the requested grid value; the realized fraction follows from
    the target-set size. ``target_hash`` identifies the sampled member set
    (used to assert reuse across strategies); the other fields are the
    records CSV columns in their fixed order, so do not reorder them.
    """

    graph_id: str
    strategy: str
    phi: float
    sample_id: int
    b: float
    alpha: float | None
    pi_t: float
    pi_t_prime: float
    tau: float
    d_in: float
    d_out: float
    degree_ratio: float
    l_b: float
    inserted_count: int
    biased_weight: float
    iters_before: int
    iters_after: int
    wall_time_ms: float
    target_hash: str = ""


CSV_HEADER = ",".join(f.name for f in fields(RunRecord) if f.name != "target_hash")


@dataclass(frozen=True)
class RunFailure:
    """A run that errored; the sweep continues without it."""

    graph_id: str
    strategy: str
    phi: float
    sample_id: int
    b: float
    alpha: float | None
    error: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    records: list[RunRecord]
    failures: list[RunFailure]


def run_single_detailed(
    g: WeightedDigraph,
    target_set: TargetSet,
    spec: ModificationSpec,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    baseline: StationaryResult | None = None,
    graph_id: str = "graph",
    phi: float | None = None,
) -> tuple[RunRecord, WeightedDigraph]:
    """Execute one full pipeline run: modify, solve, measure.

    ``baseline`` lets sweeps share the unmodified stationary solve; it must
    belong to ``g``. The modified graph is solved with the baseline's plan
    alone, as no strategy removes a link. The record's ``l_b`` is exactly
    ``(b - 1) * d_in``, and its phi is ``phi``, the requested grid value, or
    else the realized fraction ``len(members) / g.n``. Returns the record
    plus the modified graph for callers that want to export it.
    """
    t = target_vector(target_set, g.n)
    if baseline is None:
        baseline = stationary(transition_matrix(g), tolerance, max_iterations)
    started = time.perf_counter()
    modified, budget = apply_modification(g, spec, t, baseline.pi)
    after = stationary(transition_matrix(modified), tolerance, max_iterations,
                       plan=baseline.plan)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    pi_after, iters_after = after.pi, after.iterations
    del after  # frees its plan before the metrics, which lowers peak RSS
    m = target_metrics(g, t, baseline.pi, pi_after)
    record = RunRecord(
        graph_id=graph_id,
        strategy=spec.strategy.value,
        phi=len(target_set.members) / g.n if phi is None else phi,
        sample_id=target_set.sample_id,
        b=float(spec.bias_strength),
        alpha=spec.alpha,
        pi_t=m.energy_before,
        pi_t_prime=m.energy_after,
        tau=m.influence_potential,
        d_in=m.in_degree,
        d_out=m.out_degree,
        degree_ratio=m.degree_ratio,
        l_b=weight_budget(g, t, spec.bias_strength),
        inserted_count=budget.inserted_count,
        biased_weight=budget.biased_weight,
        iters_before=baseline.iterations,
        iters_after=iters_after,
        wall_time_ms=elapsed_ms,
        target_hash=target_set.member_hash,
    )
    return record, modified


@dataclass(frozen=True)
class _Task:
    """One run of a sweep: a modification of a sampled target set.

    ``phi`` is the requested grid value the record reports.
    """

    phi: float
    spec: ModificationSpec
    targets: TargetSet


@dataclass(frozen=True)
class _SweepContext:
    """What every run of one sweep shares, sent once to each pool worker."""

    g: WeightedDigraph
    baseline: StationaryResult
    config: SweepConfig

    def run(self, task: _Task) -> RunRecord | RunFailure:
        config, spec, ts = self.config, task.spec, task.targets
        try:
            return run_single_detailed(
                self.g, ts, spec,
                tolerance=config.tolerance,
                max_iterations=config.max_iterations,
                baseline=self.baseline,
                graph_id=config.graph_id,
                phi=task.phi,
            )[0]
        except Exception as exc:  # isolate the run, keep the sweep going
            return RunFailure(
                graph_id=config.graph_id, strategy=spec.strategy.value,
                phi=task.phi, sample_id=ts.sample_id, b=spec.bias_strength,
                alpha=spec.alpha, error=type(exc).__name__, message=str(exc))


# Set once per pool worker by the initializer, so the graph is pickled once
# per worker rather than once per chunk of tasks.
_worker_context: _SweepContext | None = None


def _init_worker(context: _SweepContext) -> None:
    global _worker_context
    _worker_context = context


def _run_in_worker(task: _Task) -> RunRecord | RunFailure:
    return _worker_context.run(task)


def _make_spec(strategy: Strategy, b: float, alpha: float | None,
               master_seed: int, phi: float, sample_id: int) -> ModificationSpec:
    seed = (derive_seed(master_seed, COMBINE_STREAM, float(phi), sample_id,
                        float(b), float(alpha))
            if strategy is Strategy.COMBINED else None)
    return ModificationSpec(strategy=strategy, bias_strength=b, alpha=alpha, seed=seed)


def _enumerate_tasks(g: WeightedDigraph, config: SweepConfig) -> list[_Task]:
    """All run keys in their canonical sorted order.

    Target sets are drawn once per (phi, sample) and reused by every
    strategy and strength, so comparisons across strategies see identical
    targets.
    """
    targets_by_phi = {
        phi: sample_target_sets(g, phi, config.samples_per_phi, config.master_seed)
        for phi in config.phi_values
    }
    tasks: list[_Task] = []
    for strategy in sorted(config.strategies, key=lambda s: s.value):
        alphas: tuple[float | None, ...]
        alphas = (tuple(sorted(config.alpha_values))
                  if strategy is Strategy.COMBINED else (None,))
        for phi in sorted(config.phi_values):
            for ts in targets_by_phi[phi]:
                for b in sorted(config.bias_strengths):
                    for alpha in alphas:
                        spec = _make_spec(strategy, float(b), alpha, config.master_seed,
                                          float(phi), ts.sample_id)
                        tasks.append(_Task(float(phi), spec, ts))
    return tasks


def sweep(g: WeightedDigraph, config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run the full experiment grid; returns records plus failure manifest.

    Output is identical for any ``workers`` value: substream seeds depend
    only on run keys and results are gathered in enumeration order. No more
    processes start than there are runs or CPUs this process may use. A
    pool takes the runs one at a time in reverse enumeration order, which
    puts the costliest (link insertion, and the largest phi) first.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    baseline = stationary(transition_matrix(g), config.tolerance,
                          config.max_iterations)
    tasks = _enumerate_tasks(g, config)
    context = _SweepContext(g, baseline, config)
    # a fork-based pool starts all its workers at the first submit
    workers = min(workers, len(tasks), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers == 1:
        outcomes = map(context.run, tasks)
    else:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(context,))
        # the grid ends with its slowest runs: hand them out first, one at a
        # time, so the runs handed out last are short ones
        with pool:
            outcomes = list(pool.map(_run_in_worker, tasks[::-1], chunksize=1))[::-1]
    records: list[RunRecord] = []
    failures: list[RunFailure] = []
    for outcome in outcomes:
        (records if isinstance(outcome, RunRecord) else failures).append(outcome)
    if failures:
        logger.warning("%d of %d runs failed; see failure manifest",
                       len(failures), len(tasks))
    return SweepResult(records=records, failures=failures)


def write_records_csv(
    records: Iterable[RunRecord],
    path: str | Path,
    include_timing: bool = False,
) -> None:
    """Write records in the fixed CSV schema (RFC 4180, UTF-8).

    ``alpha`` is empty for pure strategies. ``wall_time_ms`` is empty
    unless ``include_timing`` is set: measured time varies run to run and
    would break the byte-for-byte reproducibility of sweep outputs.
    """
    columns = CSV_HEADER.split(",")
    rows = ([getattr(r, c) for c in columns] for r in records)
    if not include_timing:                        # wall_time_ms is the last column
        rows = (row[:-1] + [None] for row in rows)
    write_csv(path, columns, rows)


def write_records_jsonl(records: Iterable[RunRecord], path: str | Path,
                        include_timing: bool = False) -> None:
    """JSON-lines record dump, one object per run, all fields included; a
    non-finite float, which JSON lacks, is written as its ``str``, and
    ``wall_time_ms`` is null unless ``include_timing`` is set."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            d = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in asdict(r).items()}
            d["wall_time_ms"] = d["wall_time_ms"] if include_timing else None
            fh.write(json.dumps(d, sort_keys=True) + "\n")
