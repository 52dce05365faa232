"""Random-surfer transition matrices and their stationary distributions.

The surfer follows outgoing links with probability proportional to link
weight. There is deliberately no teleportation or damping: inputs are
expected to be strongly connected. Solved without a plan, a periodic
chain fails with :class:`PeriodicChainError` after the uniform-start
check, instead of being smoothed over or iterated to the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .graph import WeightedDigraph, canonical_csc, column_of_entries

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 100_000

# Lorenz input must already be a probability vector; looser than the solver
# tolerance because callers may feed externally computed vectors.
_LORENZ_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic matrix P = W D^-1 (column j: where node j sends
    the surfer next), fixed into canonical CSC by :func:`canonical_csc`."""

    n: int
    entries: csc_array

    def __post_init__(self):
        object.__setattr__(self, "entries", canonical_csc(self.entries))
        if self.entries.shape != (self.n, self.n):
            raise ValidationError("transition matrix shape mismatch")
        if self.n:
            # the column sums scipy computes; an empty column sums to 0 and fails
            e = self.entries
            if not np.all(np.diff(e.indptr)) or np.max(np.abs(
                    np.add.reduceat(e.data, e.indptr[:-1]) - 1.0)) > 1e-12:
                raise ValidationError("transition matrix columns must sum to 1")
            if np.any(self.entries.data < 0) or np.any(self.entries.data > 1):
                raise ValidationError("transition probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class StationaryResult:
    """Stationary distribution plus the effort it took to find it."""

    pi: np.ndarray
    iterations: int
    residual: float
    plan: SolvePlan | None = field(default=None, compare=False, repr=False)

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
    # P keeps the graph's index arrays, so its entry numbering and index type
    scaled = csc_array((a.data / out[column_of_entries(a)], a.indices, a.indptr),
                       shape=a.shape)
    scaled.has_canonical_format = True  # the graph's links need no re-check
    return TransitionMatrix(n=g.n, entries=scaled)


def chain_period(matrix) -> int:
    """Period of the chain whose links are the stored entries of a square
    sparse matrix: the gcd of its cycle lengths, in O(n + m).

    With BFS depths ``level`` from node 0, every cycle's length is the sum
    of ``level[u] + 1 - level[v]`` over its links u -> v, and the gcd of
    those terms over all links is the period (Jarvis & Shier, 1999). The
    direction of the links does not change cycle lengths, so the BFS walks
    rows, whatever the sparse form. Returns 1 when not every node is
    reached, since the chain is then reducible and has no single period.
    """
    matrix = csr_array(matrix)
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


def check_solver_settings(tolerance: float, max_iterations: int) -> None:
    """Reject a tolerance not finite and positive, or a budget below 1."""
    if not 0 < tolerance < np.inf:  # also rejects nan
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")


def _power_iteration(matrix, v, tolerance, steps, history):
    """Up to ``steps`` power steps from ``v``, appending each L1 step norm
    to ``history``; returns the last iterate and whether it converged.

    A column-stochastic matrix keeps the iterate's sum up to rounding, so
    it is normalised once, on return. The product runs over the CSC
    entries in storage order, as COO: each page sums the same terms in the
    same order from 0.0 as the CSC product, in one flat loop, not per column.
    """
    matrix, step = matrix.tocoo(copy=False), np.empty_like(v)
    for _ in range(steps):
        v_next = matrix @ v
        np.subtract(v_next, v, out=step)
        history.append(float(np.abs(step, out=step).sum()))
        v = v_next
        if history[-1] < tolerance:
            break
    # scipy gives a 1x1 chain's product as a scalar
    return np.atleast_1d(v / v.sum()), history[-1] < tolerance


@dataclass(frozen=True, eq=False)
class SolvePlan:
    """The part of a solve that depends only on which links exist.

    A plan is built for a chain that passed the period checks on P and on
    the censored chain Q, and it holds:

    - P's ``indptr`` and ``indices`` (CSC), the links it was built for;
    - ``single``, the mask of the pages censored out;
    - ``to_s``, where each page's mass lands in Q: page i's on the page
      at position ``to_s[i]`` of the kept pages S;
    - ``levels``, the censored pages more than one link from S, one array
      per number of links to the first page of S, farthest first, each ascending.

    Only when nothing is censored is ``to_s`` None; ``single`` is then all
    False and Q is P itself.
    """

    indptr: np.ndarray
    indices: np.ndarray
    single: np.ndarray
    to_s: np.ndarray | None = None
    levels: tuple[np.ndarray, ...] = ()

    def fits(self, matrix) -> bool:
        """Whether ``matrix`` has exactly the links this plan was built for."""
        return (np.array_equal(self.indptr, matrix.indptr)
                and np.array_equal(self.indices, matrix.indices))


def _censor(matrix):
    """``(plan, chain)``: the plan of the chain censored to the pages with
    more than one out-link, and the chain it iterates.

    A page e with a single out-link passes all its mass on, so its mass
    lands on ``jump(e)``, the first other page on its successor path. Q
    moves each link's target to its jump and keeps the other pages S; its
    stationary vector is pi restricted to S, renormalised (Meyer, SIAM
    Review 31(2), 1989). Nothing is censored, and the chain is
    ``matrix`` itself, when no page has a single out-link, when such pages
    close a loop, or when Q is periodic.
    """
    n = matrix.shape[0]
    itype = matrix.indices.dtype
    single = np.diff(matrix.indptr) == 1
    jump = np.arange(n, dtype=itype)
    jump[single] = matrix.indices[matrix.indptr[:-1][single]]
    # pointer doubling: after k rounds jump(e) is 2^k links down the path,
    # and depth(e) counts the links from e to jump(e)
    depth = single.astype(itype)
    for _ in range(n.bit_length()):
        if not single[jump].any():
            break
        depth += depth[jump]
        jump = jump[jump]
    if single.any() and not single[jump].any():
        to_s = (np.cumsum(~single, dtype=itype) - 1)[jump]
        plan = SolvePlan(matrix.indptr, matrix.indices, single, to_s, _levels(depth))
        q = _censored(plan, matrix)
        # a diagonal entry is a cycle of length 1
        if np.any(q.indices == column_of_entries(q)) or chain_period(q) == 1:
            return plan, q
    return SolvePlan(matrix.indptr, matrix.indices, np.zeros(n, dtype=bool)), matrix


def _levels(depth):
    """The censored pages more than one link from S, one array per depth,
    deepest first and ascending within a depth, in ``depth``'s index type."""
    pages = np.flatnonzero(depth > 1).astype(depth.dtype)
    pages = pages[np.argsort(-depth[pages], kind="stable")]
    cuts = np.flatnonzero(np.diff(depth[pages])) + 1
    return tuple(np.split(pages, cuts)) if pages.size else ()  # np.split of [] is [[]]


def _censored(plan: SolvePlan, matrix):
    """The chain to iterate: Q with ``matrix``'s weights, or ``matrix``
    itself when the plan censors nothing.

    Q is P's kept columns with each link's row renamed through ``to_s``.
    Every link stays its own entry, in P's order: a column may hold a row
    more than once, and the power step adds each of those links in turn.
    """
    if plan.to_s is None:
        return matrix
    kept = matrix[:, ~plan.single]
    m = kept.shape[1]
    return csc_array((kept.data, plan.to_s[kept.indices], kept.indptr), shape=(m, m))


def _recover(plan: SolvePlan, matrix, y):
    """Full stationary vector from the censored chain's: the kept pages take y
    through ``to_s``, one product with P brings each censored page its kept
    in-links' mass, then each level, deepest first, passes it along its one link."""
    x = y[plan.to_s] * ~plan.single  # a kept page's to_s is its own position
    x += plan.single * (matrix @ x)  # the kept pages add 0.0
    for pages in plan.levels:
        np.add.at(x, matrix.indices[matrix.indptr[pages]], x[pages])
    return x / x.sum()


def stationary(
    p: TransitionMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    plan: SolvePlan | None = None,
) -> StationaryResult:
    """Stationary distribution by power iteration until the L1 step norm
    falls below ``tolerance``.

    Only a periodic chain solved without ``plan`` takes a step from the
    uniform vector: one that it settles (a pure cycle) returns with 1
    iteration and no plan, any other raises :class:`PeriodicChainError`.
    Every other solve needs a :class:`SolvePlan`. A ``plan`` (an earlier
    result's) states that P holds its links and maybe more, as no
    modification removes one, so P keeps every cycle of the plan's
    aperiodic chain: the plan is reused when its links equal P's, else
    rebuilt for P with no check of P. (A plan of an unrelated chain is a
    caller error; a periodic P then fails only as its iteration does.)
    The chain the plan picks (P when its ``to_s`` is None) is iterated
    from its uniform vector, ``iterations`` counts its steps, censored pages
    are recovered, and the result must satisfy ||P pi - pi||_1 <=
    max(1e-9, 1e3 * tolerance), which guards pi whatever the plan. The
    result carries the plan it used. A plan changes no output byte.

    Non-convergence raises :class:`ConvergenceError` carrying the last
    iterate over all pages and the iterated chain's residual history.
    """
    check_solver_settings(tolerance, max_iterations)
    matrix, history = p.entries, []
    if plan is None and (period := chain_period(matrix)) > 1:
        v, done = _power_iteration(matrix, np.full(p.n, 1.0 / p.n), tolerance, 1, history)
        if done:
            return StationaryResult(pi=v, iterations=1, residual=history[-1])
        raise PeriodicChainError(period, last_iterate=v, residual_history=history)
    if plan is None or not plan.fits(matrix):
        plan, q = _censor(matrix)
    else:
        q = _censored(plan, matrix)
    y, done = _power_iteration(q, np.full(q.shape[0], 1.0 / q.shape[0]),
                               tolerance, max_iterations, history)
    # recovering an empty set would renormalise y and move its last bits
    x = _recover(plan, matrix, y) if plan.to_s is not None else y
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
    return StationaryResult(pi=x, iterations=len(history), residual=history[-1],
                            plan=plan)


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
