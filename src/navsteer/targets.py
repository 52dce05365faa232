"""Sampling and bookkeeping of target page sets."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyGraphError, ValidationError
from .graph import WeightedDigraph
from .util import derive_seed, round_half_up, write_csv

# Domain tag keeping target sampling independent from other seeded streams
# derived from the same master seed.
_TARGET_STREAM = "targets"


@dataclass(frozen=True)
class TargetSet:
    """A sampled set of target nodes.

    ``phi`` stores the realized fraction ``len(members) / n`` (the requested
    fraction is rounded to a whole set size first). ``seed`` is the exact
    substream seed used, kept for replay.
    """

    members: tuple[int, ...]
    phi: float
    sample_id: int
    seed: int

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValidationError("a target set must contain at least one node")
        if list(self.members) != sorted(set(self.members)):
            raise ValidationError("target members must be sorted and unique")


def target_set_size(phi: float, n: int) -> int:
    """Number of targets for a requested fraction: max(1, round-half-up(phi*n))."""
    if not 0.0 < phi <= 1.0:
        raise ValidationError(f"phi must lie in (0, 1], got {phi!r}")
    return max(1, round_half_up(phi * n))


def sample_targets(
    g: WeightedDigraph,
    phi: float,
    rng: np.random.Generator,
    *,
    sample_id: int = 0,
    seed: int = 0,
) -> TargetSet:
    """Sample targets uniformly without replacement.

    ``rng`` must be a seeded generator; ``seed`` is recorded on the result
    for provenance and should be the value used to create ``rng`` (see
    :func:`sample_target_sets` for the derivation used in sweeps).
    """
    if g.n == 0:
        raise EmptyGraphError("cannot sample targets from an empty graph")
    size = target_set_size(phi, g.n)
    members = np.sort(rng.choice(g.n, size=size, replace=False))
    return TargetSet(members=tuple(int(i) for i in members),
                     phi=size / g.n, sample_id=sample_id, seed=seed)


def sample_target_sets(
    g: WeightedDigraph,
    phi: float,
    n_samples: int,
    master_seed: int,
) -> list[TargetSet]:
    """Draw ``n_samples`` independent target sets for one phi value.

    Each sample gets its own substream seeded from
    (master_seed, phi, sample_id), so sample k is identical no matter how
    many samples are drawn, in what order, or on which worker.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    sets = []
    for sample_id in range(n_samples):
        seed = derive_seed(master_seed, _TARGET_STREAM, float(phi), sample_id)
        rng = np.random.default_rng(seed)
        sets.append(sample_targets(g, phi, rng, sample_id=sample_id, seed=seed))
    return sets


def target_vector(ts: TargetSet | Sequence[int], n: int) -> np.ndarray:
    """Indicator vector t with t[i] = 1 for targets, 0 elsewhere."""
    members = ts.members if isinstance(ts, TargetSet) else tuple(ts)
    t = np.zeros(n, dtype=np.float64)
    idx = np.asarray(members, dtype=np.int64)
    if idx.size == 0:
        raise ValidationError("target vector needs at least one member")
    if idx.min() < 0 or idx.max() >= n:
        raise ValidationError("target index out of range")
    t[idx] = 1.0
    return t


def write_targets_csv(
    target_sets: Iterable[TargetSet],
    g: WeightedDigraph,
    path: str | Path,
) -> None:
    """Write sampled target sets as CSV rows of sample_id,node_index,label."""
    write_csv(path, ["sample_id", "node_index", "label"],
              ([ts.sample_id, i, g.node_labels[i]]
               for ts in target_sets for i in ts.members))
