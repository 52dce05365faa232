"""Synthetic scale-free-like graphs for experiments and acceptance checks."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .graph import WeightedDigraph


def scale_free_graph(
    n: int,
    avg_degree: float = 1.8,
    seed: int = 0,
    exponent: float = 3.0,
) -> WeightedDigraph:
    """Random digraph with heavy-tailed in/out popularity.

    Endpoints of random links are drawn from power-law node weights
    (separate permutations for in- and out-popularity, so hubs differ).
    A spanning cycle 0 -> 1 -> ... -> n-1 -> 0 forces strong connectivity
    and one shortcut 0 -> 2 yields coprime cycle lengths n and n-1, which
    keeps the chain aperiodic even if the random part is sparse.
    """
    if n < 2:
        raise ValidationError("synthetic graph needs at least 2 nodes")
    if not (math.isfinite(avg_degree) and avg_degree >= 1.0):
        raise ValidationError("avg_degree must be finite and at least 1")
    if not exponent > 1.0:  # nan fails too; inf means uniform popularity
        raise ValidationError("exponent must exceed 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rng = np.random.default_rng(seed)

    base = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    p_out = base[rng.permutation(n)]
    p_out /= p_out.sum()
    p_in = base[rng.permutation(n)]
    p_in /= p_in.sum()

    backbone = n + (1 if n >= 3 else 0)
    m_extra = max(0, int(round(n * avg_degree)) - backbone)
    src = rng.choice(n, size=m_extra, p=p_out)
    dst = rng.choice(n, size=m_extra, p=p_in)

    cycle_src = np.arange(n)
    cycle_dst = (cycle_src + 1) % n
    sources = np.concatenate([cycle_src, src])
    dests = np.concatenate([cycle_dst, dst])
    if n >= 3:
        sources = np.concatenate([sources, [0]])
        dests = np.concatenate([dests, [2]])

    labels = tuple(f"n{i}" for i in range(n))
    return WeightedDigraph.from_edges(
        n=n, sources=sources, destinations=dests, node_labels=labels)
