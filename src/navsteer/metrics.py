"""Scalar measures of how much a modification favors the target set."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import WeightedDigraph
from .targets import target_mask


@dataclass(frozen=True)
class TargetMetrics:
    """Per-run summary of target energy and degree structure.

    ``degree_ratio`` is ``+inf`` when the targets have no incoming weight;
    that is a flagged value, not an error.
    """

    energy_before: float
    energy_after: float
    influence_potential: float
    in_degree: float
    out_degree: float
    degree_ratio: float


def energy(pi: np.ndarray, t: np.ndarray) -> float:
    """Total stationary probability sitting on the targets: sum(pi * t)."""
    pi = np.asarray(pi, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if pi.shape != t.shape:
        raise ValidationError("pi and t must have the same length")
    return float((pi * t).sum())


def influence_potential(energy_before: float, energy_after: float) -> float:
    """Multiplicative gain of target energy, tau = after / before."""
    if energy_before <= 0:
        raise ValidationError(
            f"baseline target energy must be positive, got {energy_before!r}")
    return energy_after / energy_before


def target_degrees(g: WeightedDigraph, t: np.ndarray) -> tuple[float, float, float]:
    """Weighted in-degree, out-degree and their ratio for the target set.

    In-degree sums the targets' in-weights (weight flowing into them),
    out-degree their out-weights; no other page's weight is summed, and a
    sum past float64 reads inf. A ``t`` that selects no page is an error.
    """
    mask = target_mask(t, g.n)
    with np.errstate(over="ignore"):
        d_in, d_out = (float(w[mask].sum()) for w in (g.in_weights(), g.out_weights()))
    ratio = d_out / d_in if d_in > 0 else math.inf
    return d_in, d_out, ratio


def target_metrics(
    g: WeightedDigraph,
    t: np.ndarray,
    pi_before: np.ndarray,
    pi_after: np.ndarray,
) -> TargetMetrics:
    """Bundle the before/after energies, their ratio and the degrees of t.

    Degrees are measured on ``g`` as passed; hand in the unmodified graph to
    get the usual "structure before modification" reading.
    """
    before = energy(pi_before, t)
    after = energy(pi_after, t)
    d_in, d_out, ratio = target_degrees(g, t)
    return TargetMetrics(
        energy_before=before,
        energy_after=after,
        influence_potential=influence_potential(before, after),
        in_degree=d_in,
        out_degree=d_out,
        degree_ratio=ratio,
    )
