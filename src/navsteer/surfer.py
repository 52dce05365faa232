"""Random-surfer transition matrices and their stationary distributions.

The surfer follows outgoing links with probability proportional to link
weight. There is deliberately no teleportation or damping: inputs are
expected to be strongly connected. A periodic chain fails with
:class:`PeriodicChainError` before any iteration past the uniform-start
check, instead of being smoothed over or iterated to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    ConvergenceError,
    DanglingNodeError,
    EmptyGraphError,
    PeriodicChainError,
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
            if np.any(self.entries.data < 0) or np.any(self.entries.data > 1):
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
    out-weight; without teleportation such a node absorbs the surfer. A
    node whose out-weight overflows float64 raises :class:`ValidationError`.
    """
    if g.n == 0:
        raise EmptyGraphError("transition matrix of an empty graph is undefined")
    with np.errstate(over="ignore"):
        out = g.out_weights()
    dangling = np.flatnonzero(out <= 0)
    if dangling.size:
        node = int(dangling[0])
        raise DanglingNodeError(node, g.node_labels[node])
    overflow = np.flatnonzero(~np.isfinite(out))
    if overflow.size:
        raise ValidationError(f"node {g.node_labels[overflow[0]]!r} has an "
                              "out-weight too large to sum in float64")
    a = g.adjacency
    # P keeps the graph's index type, and the whole solve takes P's
    scaled = csc_array((a.data / out[column_of_entries(a)], a.indices, a.indptr),
                       shape=a.shape)
    return TransitionMatrix(n=g.n, entries=csr_array(scaled))


def chain_period(matrix) -> int:
    """Period of the chain whose links are the stored entries of a square
    CSR matrix: the gcd of its cycle lengths, in O(n + m).

    With BFS depths ``level`` from node 0, every cycle's length is the sum
    of ``level[u] + 1 - level[v]`` over its links u -> v, and the gcd of
    those terms over all links is the period (Jarvis & Shier, 1999). The
    direction of the links does not change cycle lengths, so the BFS runs
    on the stored entries as they are. Returns 1 when not every node is
    reached, since the chain is then reducible and has no single period.
    """
    n = matrix.shape[0]
    order, parent = breadth_first_order(matrix, 0, return_predecessors=True)
    if order.size < n:
        return 1
    # depths by pointer jumping: level[v] counts the tree links from v up to
    # parent[v], and only the root is at level 0
    parent[0] = 0
    level = (parent != np.arange(n)).astype(matrix.indices.dtype)
    while (step := level[parent]).any():
        level += step
        parent = parent[parent]
    gap = np.repeat(level + 1, np.diff(matrix.indptr))
    gap -= level[matrix.indices]
    return int(np.gcd.reduce(np.abs(gap, out=gap)))


def _power_iteration(matrix, v, tolerance, steps, history):
    """Up to ``steps`` power steps from ``v``, appending each L1 step norm
    to ``history``; returns the last iterate and whether it converged.

    The iterate is renormalized every step to suppress floating-point drift.
    """
    for _ in range(steps):
        v_next = matrix @ v
        v_next /= v_next.sum()
        history.append(float(np.abs(v_next - v).sum()))
        v = v_next
        if history[-1] < tolerance:
            return v, True
    return v, False


def _censor(matrix):
    """``(Q, single)``: the chain censored to the pages with more than one
    out-link, and the mask of the pages censored out.

    A page e with a single out-link passes all its mass on, so its mass
    lands on ``jump(e)``, the first other page on its successor path. Q
    moves each link's target to its jump and keeps the other pages S; its
    stationary vector is pi restricted to S, renormalised (Meyer, SIAM
    Review 31(2), 1989). Nothing is censored (Q is ``matrix`` itself and
    ``single`` all False) when no page has a single out-link, when such
    pages close a loop, or when Q would be periodic.
    """
    n = matrix.shape[0]
    single = np.bincount(matrix.indices, minlength=n) == 1
    if not single.any():
        return matrix, single
    entry = np.flatnonzero(single[matrix.indices])
    jump = np.arange(n)
    jump[matrix.indices[entry]] = np.searchsorted(matrix.indptr, entry, side="right") - 1
    # pointer doubling: after k rounds jump(e) is 2^k links down the path
    for _ in range(n.bit_length()):
        if not single[jump].any():
            break
        jump = jump[jump]
    if single[jump].any():
        return matrix, np.zeros(n, dtype=bool)
    # Q in one step: each stored link keeps its weight, its target moves
    # to the target's jump, and links out of censored pages are dropped
    kept = ~single
    position = np.cumsum(kept, dtype=matrix.indices.dtype) - 1
    links = kept[matrix.indices]
    rows = np.repeat(position[jump], np.diff(matrix.indptr))[links]
    cols = position[matrix.indices[links]]
    m = np.count_nonzero(kept)
    q = csr_array((matrix.data[links], (rows, cols)), shape=(m, m))
    if chain_period(q) > 1:
        return matrix, np.zeros(n, dtype=bool)
    return q, single


def _recover(matrix, single, y):
    """Full stationary vector from the censored chain's: the censored
    pages' mass is P x on them, repeated until it stops changing. P
    restricted to those pages is nilpotent, so this ends after (longest
    single-out-link path + 1) sweeps."""
    censored = np.flatnonzero(single)
    into_censored = matrix[censored]
    x = np.zeros(matrix.shape[0])
    x[~single] = y
    while True:
        pushed = into_censored @ x
        if np.array_equal(pushed, x[censored]):
            return x / x.sum()
        x[censored] = pushed


def stationary(
    p: TransitionMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> StationaryResult:
    """Stationary distribution by power iteration until the L1 step norm
    falls below ``tolerance``.

    One step from the uniform vector comes first; a chain it already
    satisfies returns with 1 iteration. A periodic chain then raises
    :class:`PeriodicChainError` before any further step. Otherwise the
    chain that :func:`_censor` picks is iterated from its uniform vector
    (with nothing censored it is P, and its first step repeats the uniform
    one), ``iterations`` counts its steps, censored pages are recovered,
    and the result must satisfy ||P pi - pi||_1 <= max(1e-9, 1e3 * tolerance).

    Non-convergence raises :class:`ConvergenceError` carrying the last
    iterate over all pages and the iterated chain's residual history.
    """
    if not 0 < tolerance < np.inf:  # also rejects nan
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    matrix = p.entries
    history: list[float] = []
    v, done = _power_iteration(matrix, np.full(p.n, 1.0 / p.n), tolerance, 1, history)
    if done:
        return StationaryResult(pi=v, iterations=1, residual=history[-1])
    if (period := chain_period(matrix)) > 1:
        raise PeriodicChainError(period, last_iterate=v, residual_history=history)
    q, single = _censor(matrix)
    history = []
    y, done = _power_iteration(q, np.full(q.shape[0], 1.0 / q.shape[0]),
                               tolerance, max_iterations, history)
    # recovering an empty set would renormalise y and move its last bits
    x = _recover(matrix, single, y) if single.any() else y
    if not done:
        raise ConvergenceError(
            f"power iteration did not reach tolerance {tolerance:g} within "
            f"{max_iterations} iterations (last residual {history[-1]:.3e})",
            last_iterate=x, residual_history=history)
    certificate = float(np.abs(matrix @ x - x).sum())
    if certificate > max(1e-9, 1e3 * tolerance):
        raise ConvergenceError(
            f"stationary vector fails its check: ||P pi - pi||_1 = "
            f"{certificate:.3e}", last_iterate=x, residual_history=history)
    return StationaryResult(pi=x, iterations=len(history), residual=history[-1])


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
