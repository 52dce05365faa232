"""Monte-Carlo sweeps over strategies, target fractions and strengths.

A sweep is a deterministic function of (graph, config): target sets and
combined-strategy draws are seeded from the master seed per
(phi, sample_id) substream, runs are enumerated in sorted key order, and
failures are isolated into a manifest instead of aborting the sweep. The
worker count changes wall time only, never output bytes.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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

_COMBINE_STREAM = "combine"


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
        if self.samples_per_phi < 1:
            raise ValidationError("samples_per_phi must be at least 1")


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


@dataclass(frozen=True)
class BinnedSummary:
    """Mean modified energy grouped by target degree ratio."""

    method: str
    bin_edges: np.ndarray
    counts: tuple[int, ...]
    mean_energy: np.ndarray
    dropped_infinite: int
    requested_bins: int
    notice: str | None = None


def _hash_members(members: Sequence[int]) -> str:
    payload = ",".join(str(i) for i in members).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


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
    belong to ``g``. The record's phi is ``phi``, the requested grid value,
    or else the realized fraction ``len(members) / g.n``. Returns the
    record plus the modified graph for callers that want to export it.
    """
    t = target_vector(target_set, g.n)
    if baseline is None:
        baseline = stationary(transition_matrix(g), tolerance, max_iterations)
    started = time.perf_counter()
    modified, budget = apply_modification(g, spec, t, baseline.pi)
    after = stationary(transition_matrix(modified), tolerance, max_iterations)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    m = target_metrics(g, t, baseline.pi, after.pi)
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
        iters_after=after.iterations,
        wall_time_ms=elapsed_ms,
        target_hash=_hash_members(target_set.members),
    )
    return record, modified


@dataclass(frozen=True)
class _Task:
    """One run of a sweep: a strategy and strength on a sampled target set.

    ``phi`` is the requested grid value the record reports.
    """

    strategy: Strategy
    phi: float
    b: float
    alpha: float | None
    targets: TargetSet


@dataclass(frozen=True)
class _SweepContext:
    """What every run of one sweep shares, sent once to each pool worker."""

    g: WeightedDigraph
    baseline: StationaryResult
    config: SweepConfig

    def run(self, task: _Task) -> RunRecord | RunFailure:
        config, ts = self.config, task.targets
        try:
            spec = _make_spec(task.strategy, task.b, task.alpha,
                              config.master_seed, task.phi, ts.sample_id)
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
                graph_id=config.graph_id, strategy=task.strategy.value,
                phi=task.phi, sample_id=ts.sample_id, b=task.b,
                alpha=task.alpha, error=type(exc).__name__, message=str(exc))


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
    if strategy is Strategy.COMBINED:
        seed = derive_seed(master_seed, _COMBINE_STREAM, float(phi),
                           sample_id, float(b), float(alpha))
        return ModificationSpec(strategy=strategy, bias_strength=b,
                                alpha=alpha, seed=seed)
    return ModificationSpec(strategy=strategy, bias_strength=b)


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
                        tasks.append(_Task(strategy, float(phi), float(b),
                                           alpha, ts))
    return tasks


def sweep(g: WeightedDigraph, config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run the full experiment grid; returns records plus failure manifest.

    Output is identical for any ``workers`` value: substream seeds depend
    only on run keys and results are gathered in enumeration order. No more
    processes start than there are runs or CPUs.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    baseline = stationary(transition_matrix(g), config.tolerance,
                          config.max_iterations)
    tasks = _enumerate_tasks(g, config)
    context = _SweepContext(g, baseline, config)
    # a fork-based pool starts all its workers at the first submit
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        outcomes = map(context.run, tasks)
    else:
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(context,))
        with pool:
            chunk = max(1, len(tasks) // (workers * 8))
            outcomes = list(pool.map(_run_in_worker, tasks, chunksize=chunk))
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


def write_records_jsonl(records: Iterable[RunRecord], path: str | Path) -> None:
    """JSON-lines record dump, one object per run, all fields included."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            d = asdict(r)
            if math.isinf(d["degree_ratio"]):
                d["degree_ratio"] = "inf"
            fh.write(json.dumps(d, sort_keys=True) + "\n")


def bin_by_degree_ratio(
    records: Sequence[RunRecord],
    n_bins: int = 6,
    method: str = "equal_width",
) -> BinnedSummary:
    """Group runs by target degree ratio and average the modified energy.

    Rows whose ratio is flagged infinite (or undefined) are dropped and
    counted. If fewer distinct finite ratios than requested bins exist, the
    bin count shrinks to that number and the reduction is reported in the
    notice.
    """
    if n_bins < 1:
        raise ValidationError("n_bins must be at least 1")
    if method not in ("equal_width", "quantile"):
        raise ValidationError(f"unknown binning method {method!r}")
    ratios = np.array([r.degree_ratio for r in records], dtype=np.float64)
    energies = np.array([r.pi_t_prime for r in records], dtype=np.float64)
    finite = np.isfinite(ratios)
    dropped = int((~finite).sum())
    ratios, energies = ratios[finite], energies[finite]
    if ratios.size == 0:
        raise ValidationError("no finite degree ratios to bin")

    distinct = np.unique(ratios)
    notice = None
    used_bins = n_bins
    if distinct.size < n_bins:
        used_bins = int(distinct.size)
        notice = (f"only {distinct.size} distinct ratio values; "
                  f"reduced bins from {n_bins} to {used_bins}")
        logger.warning("%s", notice)

    lo, hi = float(ratios.min()), float(ratios.max())
    if method == "equal_width":
        edges = np.linspace(lo, hi, used_bins + 1)
        if hi > lo:
            idx = np.minimum(((ratios - lo) / (hi - lo) * used_bins).astype(int),
                             used_bins - 1)
        else:
            idx = np.zeros(ratios.size, dtype=int)
    else:
        edges = np.quantile(ratios, np.linspace(0.0, 1.0, used_bins + 1))
        idx = np.minimum(np.searchsorted(edges[1:-1], ratios, side="right"),
                         used_bins - 1)

    counts = np.bincount(idx, minlength=used_bins)
    sums = np.bincount(idx, weights=energies, minlength=used_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return BinnedSummary(method=method, bin_edges=edges,
                         counts=tuple(int(c) for c in counts),
                         mean_energy=means, dropped_infinite=dropped,
                         requested_bins=n_bins, notice=notice)
