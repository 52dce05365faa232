"""Random-surfer transition matrices and their stationary distributions.

The surfer follows outgoing links with probability proportional to link
weight. There is deliberately no teleportation or damping: inputs are
expected to be strongly connected, and periodic chains that fail to settle
surface as an explicit convergence error instead of being smoothed over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import (
    ConvergenceError,
    DanglingNodeError,
    EmptyGraphError,
    ValidationError,
)
from .graph import WeightedDigraph, column_of_entries

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 100_000

# Lorenz input must already be a probability vector; looser than the solver
# tolerance because callers may feed externally computed vectors.
_LORENZ_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic matrix P = W D^-1 (column j: where node j sends
    the surfer next)."""

    n: int
    entries: csr_array

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise ValidationError("transition matrix shape mismatch")
        if self.n:
            col_sums = np.asarray(self.entries.sum(axis=0)).ravel()
            if np.max(np.abs(col_sums - 1.0)) > 1e-12:
                raise ValidationError("transition matrix columns must sum to 1")
            if self.entries.nnz and (np.any(self.entries.data < 0)
                                     or np.any(self.entries.data > 1)):
                raise ValidationError("transition probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class StationaryResult:
    """Stationary distribution plus the effort it took to find it."""

    pi: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        if abs(float(self.pi.sum()) - 1.0) > 1e-12:
            raise ValidationError("stationary vector must sum to 1")
        if np.any(self.pi < 0):
            raise ValidationError("stationary vector must be non-negative")


def transition_matrix(g: WeightedDigraph) -> TransitionMatrix:
    """Normalize each adjacency column into outgoing-click probabilities.

    Raises :class:`DanglingNodeError` naming the first node with zero
    out-weight; without teleportation such a node absorbs the surfer.
    """
    if g.n == 0:
        raise EmptyGraphError("transition matrix of an empty graph is undefined")
    out = g.out_weights()
    dangling = np.flatnonzero(out <= 0)
    if dangling.size:
        node = int(dangling[0])
        raise DanglingNodeError(node, g.label_for(node))
    a = g.adjacency
    cols = column_of_entries(a)
    scaled = a.copy()
    scaled.data = a.data / out[cols]
    return TransitionMatrix(n=g.n, entries=csr_array(scaled))


def stationary(
    p: TransitionMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StationaryResult:
    """Power iteration from the uniform vector until the L1 step norm falls
    below ``tolerance``.

    The iterate is renormalized every step to suppress floating-point
    drift. Non-convergence (periodic chains, exhausted iteration budget)
    raises :class:`ConvergenceError` carrying the last iterate and the full
    residual history.
    """
    if tolerance <= 0:
        raise ValidationError("tolerance must be positive")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    n = p.n
    matrix = p.entries
    v = np.full(n, 1.0 / n)
    history: list[float] = []
    for it in range(1, max_iterations + 1):
        v_next = matrix @ v
        total = v_next.sum()
        v_next /= total
        residual = float(np.abs(v_next - v).sum())
        history.append(residual)
        if residual < tolerance:
            return StationaryResult(pi=v_next, iterations=it, residual=residual)
        v = v_next
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tolerance:g} within "
        f"{max_iterations} iterations (last residual {history[-1]:.3e})",
        last_iterate=v, residual_history=history)


def lorenz_curve(pi: np.ndarray) -> np.ndarray:
    """Concentration curve of a stationary distribution.

    Nodes are taken in descending probability order; point k is
    ``(k / n, mass of the top k nodes)``. Returns an array of shape
    ``(n + 1, 2)`` with fixed endpoints (0, 0) and (1, 1).
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size == 0:
        raise ValidationError("lorenz_curve expects a non-empty 1-D vector")
    if not np.all(np.isfinite(pi)) or np.any(pi < 0):
        raise ValidationError("lorenz_curve expects finite non-negative mass")
    total = float(pi.sum())
    if abs(total - 1.0) > _LORENZ_SUM_TOLERANCE:
        raise ValidationError(
            f"input mass sums to {total!r}; expected 1 within "
            f"{_LORENZ_SUM_TOLERANCE:g}")
    share = pi / total
    cum = np.cumsum(np.sort(share)[::-1])
    x = np.arange(pi.size + 1, dtype=np.float64) / pi.size
    y = np.concatenate(([0.0], cum))
    y[-1] = 1.0
    return np.column_stack((x, y))
