"""Link-modification strategies that steer the surfer toward target pages.

All operations are pure: they leave the input graph untouched and return a
new graph. Weight accounting follows a single budget currency, the total
link weight added to the graph, so that click bias, link insertion and the
combined strategy are comparable at equal cost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .errors import EmptySupportError, ValidationError
from .graph import WeightedDigraph, column_of_entries
from .metrics import target_degrees
from .targets import target_mask
from .util import round_half_up

# Relative slack when testing whether one more indivisible link still fits
# into the remaining bias budget; absorbs accumulation order effects so the
# alpha=1 endpoint biases every eligible link exactly.
_BUDGET_FIT_SLACK = 1e-9


def check_bias_strength(b: float) -> None:
    """Reject a bias strength that is not finite and >= 1."""
    if not (math.isfinite(b) and b >= 1.0):
        raise ValidationError(f"bias strength must be finite and >= 1, got {b!r}")


class Strategy(str, enum.Enum):
    """Available modification strategies."""

    CLICK_BIAS = "bias"
    LINK_INSERTION = "insert"
    COMBINED = "combined"


@dataclass(frozen=True)
class ModificationSpec:
    """Declarative description of one modification run."""

    strategy: Strategy
    bias_strength: float
    alpha: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        check_bias_strength(self.bias_strength)
        if self.strategy is Strategy.COMBINED:
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise ValidationError("combined strategy needs alpha in [0, 1]")
            if self.bias_strength == 1.0:
                raise ValidationError("combined strategy needs bias strength > 1")
            if self.seed is None:
                raise ValidationError("combined strategy needs an RNG seed")
        else:
            if self.alpha is not None:
                raise ValidationError("alpha only applies to the combined strategy")
            if self.seed is not None:
                raise ValidationError("seed only applies to the combined strategy")


@dataclass(frozen=True)
class LinkBudget:
    """Accounting of the weight a modification added to the graph."""

    inserted_count: int
    biased_weight: float

    def __post_init__(self):
        if min(self.inserted_count, self.biased_weight) < 0:
            raise ValidationError("budget weights and counts cannot be negative")


def _check_pi(pi: np.ndarray, n: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (n,):
        raise ValidationError("pi length must equal the node count")
    if not np.all(np.isfinite(pi)) or np.any(pi < 0):
        raise ValidationError("pi must be finite and non-negative")
    return pi


def weight_budget(g: WeightedDigraph, t: np.ndarray, b: float) -> float:
    """Weight budget l(b) = (b - 1) x d_in, with the targets' weighted
    in-degree d_in from :func:`target_degrees`, so the two agree bit for bit.

    This is the extra weight click bias at strength ``b`` would pour onto
    the targets' in-links; the other strategies spend the same budget.
    """
    check_bias_strength(b)
    l_b = (b - 1.0) * target_degrees(g, t)[0]
    if not math.isfinite(l_b):
        raise ValidationError(f"weight budget overflows float64 at bias strength {b!r}")
    return l_b


def _biased(g: WeightedDigraph, entries: np.ndarray, b: float) -> WeightedDigraph:
    """``g`` with the weights of its stored ``entries`` times ``b``; a
    weight past float64 is a ValidationError."""
    data = g.adjacency.data.copy()
    with np.errstate(over="ignore"):
        data[entries] *= b
    if not np.isfinite(data).all():
        raise ValidationError(f"bias strength {b!r} overflows a link weight in float64")
    return g.with_weights(data)


def click_bias(g: WeightedDigraph, t: np.ndarray, b: float) -> WeightedDigraph:
    """Multiply the weight of every link pointing at a target by ``b``.

    Models targets becoming ``b`` times as attractive to click. ``b = 1``
    returns an identical graph. Support never changes, so the result is
    exactly B W with B = I + (b - 1) diag(t).
    """
    check_bias_strength(b)
    return _biased(g, target_mask(t, g.n)[g.adjacency.indices], b)


def insert_links(
    g: WeightedDigraph,
    t: np.ndarray,
    pi_original: np.ndarray,
    budget_count: int,
) -> WeightedDigraph:
    """Insert ``budget_count`` unit links from popular pages to the targets.

    Sources are the top ceil(budget_count / |targets|) nodes by original
    stationary probability (ties broken toward the lower index). Links are
    placed source-major, targets in descending original probability;
    self-loops are skipped without consuming budget. When every
    source-target pair is used, placement restarts over the source list,
    stacking parallel weight. Links onto pre-existing pairs add parallel
    weight as well.
    """
    if not isinstance(budget_count, (int, np.integer)) or budget_count < 1:
        raise ValidationError(
            f"budget_count must be an integer >= 1, got {budget_count!r}")
    budget_count = int(budget_count)
    itype = g.adjacency.indices.dtype
    tgt_idx = np.flatnonzero(target_mask(t, g.n)).astype(itype)
    pi = _check_pi(pi_original, g.n)

    k_t = tgt_idx.size
    sources = _top(pi, min(-(-budget_count // k_t), g.n))

    # the block is built column by column, in index order; the pair (s, t)
    # is placed at rank(s) x k_t + rank(t), less the self-loops before it
    t_rank = np.empty(k_t, dtype=np.int64)
    t_rank[np.argsort(-pi[tgt_idx], kind="stable")] = np.arange(k_t)
    s_rank = np.argsort(sources)
    cols = sources[s_rank]
    placed = s_rank[:, None] * k_t + t_rank
    loop = cols[:, None] == tgt_idx
    rank = placed[~loop]
    if rank.size == 0:
        raise ValidationError(
            "no insertable source-to-target pairs (all candidates are self-loops)")
    rank -= np.searchsorted(np.sort(placed[loop]), rank)

    # One full pass adds a unit to every pair in order; the remainder goes
    # to the leading pairs. Equivalent to sequential placement with
    # wrap-around, without the loop.
    full, rem = divmod(budget_count, rank.size)
    added = np.where(rank < rem, full + 1.0, float(full))
    indptr = np.zeros(g.n + 1, dtype=itype)
    indptr[cols + 1] = k_t - loop.sum(axis=1)
    np.cumsum(indptr, out=indptr)
    addition = csc_array((added, np.broadcast_to(tgt_idx, loop.shape)[~loop], indptr),
                         shape=(g.n, g.n))
    return g.with_adjacency(g.adjacency + addition)


def _top(pi: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` pages of highest ``pi``, highest first, ties toward the
    lower index: ``np.argsort(-pi, kind="stable")[:k]`` in O(n)."""
    k = min(k, pi.size)
    kth = np.partition(pi, pi.size - k)[pi.size - k]      # the k-th largest
    above = np.flatnonzero(pi > kth)
    candidates = np.concatenate((above, np.flatnonzero(pi == kth)[:k - above.size]))
    return candidates[np.lexsort((candidates, -pi[candidates]))]


def _eligible_entries(
    g: WeightedDigraph, t: np.ndarray, pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stored-entry view of the links eligible for bias weight.

    Returns (data positions, weights, unnormalized masses) of all existing
    links that point at a target. The mass of link j -> i is
    pi[i] * W[i, j] * pi[j]: heavily visited endpoints make a link a more
    plausible recipient of bias.
    """
    a = g.adjacency
    eligible = target_mask(t, g.n)[a.indices]
    if not eligible.any():
        raise EmptySupportError("no existing link points at any target")
    pos = np.flatnonzero(eligible)
    weights = a.data[pos]
    masses = pi[a.indices[pos]] * weights * pi[column_of_entries(a)[pos]]
    if float(masses.sum()) <= 0:
        raise EmptySupportError("eligible links carry zero probability mass")
    return pos, weights, masses


def combine(
    g: WeightedDigraph,
    t: np.ndarray,
    pi: np.ndarray,
    b: float,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[WeightedDigraph, LinkBudget]:
    """Split the budget l(b): a fraction ``alpha`` biases existing links,
    the rest is spent on link insertion.

    Bias phase: eligible links are taken in the order of the keys
    E / mass with E ~ Exp(1), which has the distribution of sequential
    draws without replacement weighted by mass (Efraimidis & Spirakis,
    IPL 97(5), 2006); zero-mass links are never taken. The keys are
    compared as log E - log mass, which no subnormal mass overflows; a
    draw of 0 reads -inf and is taken first, as 0 / mass would be. Each
    taken link's weight is multiplied by ``b``, consuming (b - 1) x weight
    of budget. Links are indivisible, and the phase stops at the first
    link in that order that would find the remaining budget used up or
    too small for its full cost. Whatever budget is left (rounded half-up
    to a unit-link count) is inserted on the partially modified graph
    using the original stationary vector.
    """
    check_bias_strength(b)
    if b == 1.0:
        raise ValidationError(f"combined strategy needs bias strength > 1, got {b!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    pi = _check_pi(pi, g.n)
    pos, weights, masses = _eligible_entries(g, t, pi)

    l_b = weight_budget(g, t, b)
    bias_budget = alpha * l_b
    slack = _BUDGET_FIT_SLACK * max(1.0, l_b)

    live = np.flatnonzero(masses > 0)
    with np.errstate(divide="ignore"):
        keys = np.log(rng.exponential(size=live.size)) - np.log(masses[live])
    order = live[np.argsort(keys, kind="stable")]
    costs = (b - 1.0) * weights[order]
    # cumsum adds in draw order, so spent[k] is what k sequential draws consume
    spent = np.concatenate(([0.0], np.cumsum(costs)))
    left = bias_budget - spent[:-1]
    stops = (left <= slack) | (costs > left + slack)
    k = int(np.argmax(np.append(stops, True)))
    consumed = float(spent[k])

    modified = _biased(g, pos[order[:k]], b) if k else g
    insert_count = max(round_half_up(l_b - consumed), 0)
    if insert_count:
        modified = insert_links(modified, t, pi, insert_count)
    return modified, LinkBudget(inserted_count=insert_count, biased_weight=consumed)


def apply_modification(
    g: WeightedDigraph,
    spec: ModificationSpec,
    t: np.ndarray,
    pi: np.ndarray,
) -> tuple[WeightedDigraph, LinkBudget]:
    """Run one strategy described by ``spec`` against graph ``g``.

    ``pi`` must be the stationary vector of the unmodified graph; insertion
    source ranking and the eligible-link distribution are defined on it.
    """
    b = spec.bias_strength
    if spec.strategy is Strategy.CLICK_BIAS:
        l_b = weight_budget(g, t, b)
        return click_bias(g, t, b), LinkBudget(inserted_count=0, biased_weight=l_b)
    if spec.strategy is Strategy.LINK_INSERTION:
        count = round_half_up(weight_budget(g, t, b))
        modified = insert_links(g, t, pi, count)
        return modified, LinkBudget(inserted_count=count, biased_weight=0.0)
    rng = np.random.default_rng(spec.seed)
    return combine(g, t, pi, b, spec.alpha, rng)
