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
from scipy.sparse import coo_array

from .errors import EmptySupportError, ValidationError
from .graph import WeightedDigraph, column_of_entries
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
        if not isinstance(self.strategy, Strategy):
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        check_bias_strength(self.bias_strength)
        if self.strategy is Strategy.COMBINED:
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise ValidationError("combined strategy needs alpha in [0, 1]")
            if self.seed is None:
                raise ValidationError("combined strategy needs an RNG seed")
        else:
            if self.alpha is not None:
                raise ValidationError("alpha only applies to the combined strategy")
            if self.seed is not None:
                raise ValidationError("seed only applies to the combined strategy")


@dataclass(frozen=True)
class LinkBudget:
    """Accounting of the weight a modification added to the graph.

    ``parallel_inserted`` counts inserted unit links that landed on an
    already-present link (pre-existing or placed earlier in the same
    operation, which covers wrap-around passes).
    """

    inserted_count: int
    biased_weight: float
    parallel_inserted: int

    def __post_init__(self):
        if min(self.inserted_count, self.biased_weight, self.parallel_inserted) < 0:
            raise ValidationError("budget weights and counts cannot be negative")

    @property
    def total_weight(self) -> float:
        """The realized Σ W' - Σ W: biased weight plus one per inserted link."""
        return self.biased_weight + self.inserted_count


def _target_mask(t: np.ndarray, n: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (n,):
        raise ValidationError("target vector length must equal the node count")
    mask = t > 0.5
    if not mask.any():
        raise ValidationError("target vector selects no nodes")
    return mask


def _check_pi(pi: np.ndarray, n: int) -> np.ndarray:
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (n,):
        raise ValidationError("pi length must equal the node count")
    if not np.all(np.isfinite(pi)) or np.any(pi < 0):
        raise ValidationError("pi must be finite and non-negative")
    return pi


def weight_budget(g: WeightedDigraph, t: np.ndarray, b: float) -> float:
    """Weight budget l(b) = (b - 1) x (weighted in-degree of the targets).

    This is the extra weight click bias at strength ``b`` would pour onto
    the targets' in-links; the other strategies spend the same budget.
    """
    check_bias_strength(b)
    mask = _target_mask(t, g.n)
    with np.errstate(over="ignore"):
        l_b = (b - 1.0) * float(g.in_weights()[mask].sum())
    if not math.isfinite(l_b):
        raise ValidationError(f"weight budget overflows float64 at bias strength {b!r}")
    return l_b


def _bias(weights: np.ndarray, b: float) -> np.ndarray:
    """``weights`` times ``b``; a product past float64 is a ValidationError."""
    with np.errstate(over="ignore"):
        biased = weights * b
    if not np.all(np.isfinite(biased)):
        raise ValidationError(f"bias strength {b!r} overflows a link weight in float64")
    return biased


def click_bias(g: WeightedDigraph, t: np.ndarray, b: float) -> WeightedDigraph:
    """Multiply the weight of every link pointing at a target by ``b``.

    Models targets becoming ``b`` times as attractive to click. ``b = 1``
    returns an identical graph. Support never changes, so the result is
    exactly B W with B = I + (b - 1) diag(t).
    """
    check_bias_strength(b)
    mask = _target_mask(t, g.n)
    scaled = g.adjacency.copy()
    onto = mask[scaled.indices]
    scaled.data[onto] = _bias(scaled.data[onto], b)
    return g.with_adjacency(scaled)


def insert_links(
    g: WeightedDigraph,
    t: np.ndarray,
    pi_original: np.ndarray,
    budget_count: int,
) -> tuple[WeightedDigraph, LinkBudget]:
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
    mask = _target_mask(t, g.n)
    pi = _check_pi(pi_original, g.n)

    tgt_idx = np.flatnonzero(mask)
    tgt_order = tgt_idx[np.argsort(-pi[tgt_idx], kind="stable")]
    k_t = len(tgt_order)
    n_sources = min(-(-budget_count // k_t), g.n)
    sources = np.argsort(-pi, kind="stable")[:n_sources]

    src = np.repeat(sources, k_t)
    dst = np.tile(tgt_order, n_sources)
    off_diagonal = src != dst
    src, dst = src[off_diagonal], dst[off_diagonal]
    if src.size == 0:
        raise ValidationError(
            "no insertable source-to-target pairs (all candidates are self-loops)")

    # One full pass adds a unit to every pair in order; the remainder goes
    # to the leading pairs. Equivalent to sequential placement with
    # wrap-around, without the loop.
    full, rem = divmod(budget_count, src.size)
    added = np.full(src.size, float(full))
    added[:rem] += 1.0
    hit = added > 0
    src, dst, added = src[hit], dst[hit], added[hit]

    addition = coo_array((added, (dst, src)), shape=(g.n, g.n)).tocsc()
    modified = g.with_adjacency(g.adjacency + addition)

    # a placement is parallel unless it is the first on a pair that was not
    # stored before; weights stay positive, so those pairs are the new nnz
    budget = LinkBudget(
        inserted_count=budget_count,
        biased_weight=0.0,
        parallel_inserted=budget_count - (modified.edge_count() - g.edge_count()),
    )
    return modified, budget


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
    eligible = _target_mask(t, g.n)[a.indices]
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
    IPL 97(5), 2006); zero-mass links are never taken. Each taken link's
    weight is multiplied by ``b``, consuming (b - 1) x weight of budget.
    Links are indivisible, and the phase stops at the first link in that
    order that would find the remaining budget used up or too small for
    its full cost. Whatever budget is left (rounded half-up to a unit-link
    count) is inserted on the partially modified graph using the original
    stationary vector.
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
    keys = rng.exponential(size=live.size) / masses[live]
    order = live[np.argsort(keys, kind="stable")]
    costs = (b - 1.0) * weights[order]
    # cumsum adds in draw order, so spent[k] is what k sequential draws consume
    spent = np.concatenate(([0.0], np.cumsum(costs)))
    left = bias_budget - spent[:-1]
    stops = (left <= slack) | (costs > left + slack)
    k = int(np.argmax(np.append(stops, True)))
    consumed = float(spent[k])

    adj = g.adjacency.copy()
    taken = pos[order[:k]]
    adj.data[taken] = _bias(adj.data[taken], b)
    partially_modified = g.with_adjacency(adj)
    insert_count = round_half_up(l_b - consumed)
    if insert_count >= 1:
        modified, ins = insert_links(partially_modified, t, pi, insert_count)
        parallel = ins.parallel_inserted
    else:
        modified, parallel = partially_modified, 0
        insert_count = 0

    budget = LinkBudget(
        inserted_count=insert_count,
        biased_weight=consumed,
        parallel_inserted=parallel,
    )
    return modified, budget


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
        modified = click_bias(g, t, b)
        return modified, LinkBudget(inserted_count=0, biased_weight=l_b,
                                    parallel_inserted=0)
    if spec.strategy is Strategy.LINK_INSERTION:
        count = round_half_up(weight_budget(g, t, b))
        return insert_links(g, t, pi, count)
    rng = np.random.default_rng(spec.seed)
    return combine(g, t, pi, b, spec.alpha, rng)
