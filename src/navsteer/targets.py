"""Sampling and bookkeeping of target page sets."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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
    """Target nodes (sorted unique indices) and the sample they were drawn
    as, 0 for a named set. The realized fraction is ``len(members) / n``.
    ``member_hash``, computed once, identifies the members."""

    members: tuple[int, ...]
    sample_id: int
    member_hash: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValidationError("a target set must contain at least one node")
        if list(self.members) != sorted(set(self.members)):
            raise ValidationError("target members must be sorted and unique")
        payload = ",".join(str(i) for i in self.members).encode()
        object.__setattr__(self, "member_hash", hashlib.sha256(payload).hexdigest()[:16])


def target_set_size(phi: float, n: int) -> int:
    """Number of targets for a requested fraction: max(1, round-half-up(phi*n))."""
    if not 0.0 < phi <= 1.0:
        raise ValidationError(f"phi must lie in (0, 1], got {phi!r}")
    return max(1, round_half_up(phi * n))


def sample_target_sets(
    g: WeightedDigraph,
    phi: float,
    n_samples: int,
    master_seed: int,
) -> list[TargetSet]:
    """Draw ``n_samples`` target sets of :func:`target_set_size` nodes each,
    uniformly without replacement, with sample ids 0, 1, ... in order.

    Sample k draws from its own generator, seeded from (master_seed, phi,
    k), so it is identical no matter how many samples are drawn, in what
    order, or on which worker.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be at least 1")
    if g.n == 0:
        raise EmptyGraphError("cannot sample targets from an empty graph")
    size = target_set_size(phi, g.n)
    sets = []
    for k in range(n_samples):
        seed = derive_seed(master_seed, _TARGET_STREAM, float(phi), k)
        members = np.random.default_rng(seed).choice(g.n, size=size, replace=False)
        sets.append(TargetSet(members=tuple(np.sort(members).tolist()), sample_id=k))
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


def target_mask(t: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask of the pages that indicator vector ``t`` selects (t > 0.5)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (n,):
        raise ValidationError("target vector length must equal the node count")
    mask = t > 0.5
    if not mask.any():
        raise ValidationError("target vector selects no nodes")
    return mask


def write_targets_csv(
    target_sets: Iterable[TargetSet],
    g: WeightedDigraph,
    path: str | Path,
) -> None:
    """Write sampled target sets as CSV rows of sample_id,node_index,label."""
    write_csv(path, ["sample_id", "node_index", "label"],
              ([ts.sample_id, i, g.node_labels[i]]
               for ts in target_sets for i in ts.members))
