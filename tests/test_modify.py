"""Click bias, link insertion, and the combined strategy.

The toy four-page site makes most budgets small enough to check by hand;
random strongly connected graphs with integer weights cover the exact
accounting rules (integer arithmetic stays exact in floating point).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_array, csc_array

from navsteer import (
    EmptySupportError,
    ValidationError,
    energy,
    stationary,
    transition_matrix,
)
from navsteer import modify
from navsteer.graph import column_of_entries
from navsteer.surfer import chain_period
from navsteer.synth import scale_free_graph
from navsteer.util import round_half_up
from navsteer.modify import (
    LinkBudget,
    ModificationSpec,
    Strategy,
    apply_modification,
    click_bias,
    _eligible_entries,
    _top,
    combine,
    insert_links,
    weight_budget,
)

from conftest import (T4_PI, dense_stationary, make_t4, random_scc_graph,
                      weight_delta)

T1 = np.array([1.0, 0.0, 0.0, 0.0])


def solve(g):
    return stationary(transition_matrix(g)).pi


def make_cycle3():
    from navsteer import WeightedDigraph
    return WeightedDigraph.from_edges(3, [0, 1, 2], [1, 2, 0])



# ---------------------------------------------------------------- budgets

def test_weight_budget_examples(t4):
    assert weight_budget(t4, T1, 1.0) == 0.0
    assert weight_budget(t4, T1, 2.0) == 1.0
    # targets {p2, p3} have in-degrees 2 and 1; b=5 -> 4 * 3
    assert weight_budget(t4, np.array([0, 1.0, 1.0, 0]), 5.0) == 12.0


def test_weight_budget_rejects_weak_bias(t4):
    with pytest.raises(ValidationError):
        weight_budget(t4, T1, 0.5)


def test_link_budget_is_weight_delta(t4):
    modified = click_bias(t4, T1, 3.0)
    assert weight_delta(t4, modified) == pytest.approx(weight_budget(t4, T1, 3.0))


# ------------------------------------------------------------- click bias

def test_click_bias_identity_at_one(t4):
    same = click_bias(t4, T1, 1.0)
    assert (same.adjacency != t4.adjacency).nnz == 0
    assert np.array_equal(same.adjacency.data, t4.adjacency.data)


def test_click_bias_scales_only_target_rows(t4):
    g2 = click_bias(t4, T1, 2.0)
    assert g2.adjacency[0, 1] == 2.0          # p2 -> p1 doubled
    assert g2.adjacency[3, 0] == 1.0          # p1 -> p4 untouched
    assert g2.edge_count() == t4.edge_count()  # support unchanged


def test_click_bias_toy_stationary(t4):
    pi = solve(click_bias(t4, T1, 2.0))
    assert np.allclose(pi, np.array([4, 6, 2, 5]) / 17, atol=1e-10)


def test_click_bias_does_not_mutate_input(t4):
    before = t4.adjacency.data.copy()
    click_bias(t4, T1, 9.0)
    assert np.array_equal(t4.adjacency.data, before)


def test_click_bias_whole_graph_is_neutral():
    # biasing every page cancels out in the column normalization
    rng = np.random.default_rng(8)
    g = random_scc_graph(rng, 10, integer_weights=True)
    t = np.ones(10)
    a = stationary(transition_matrix(g))
    b = stationary(transition_matrix(click_bias(g, t, 3.0)))
    assert np.array_equal(a.pi, b.pi)
    assert a.iterations == b.iterations


def test_click_bias_energy_curve_on_toy_graph(t4):
    # energy grows with b and flattens: the four-page site saturates at
    # 40/121 because p1 only ever receives what flows through p2
    energies = [energy(solve(click_bias(t4, T1, b)), T1)
                for b in (1.0, 2.0, 5.0, 20.0, 100.0)]
    assert np.allclose(energies, [2 / 11, 4 / 17, 2 / 7, 8 / 25, 40 / 121],
                       atol=1e-9)
    assert np.all(np.diff(energies) > 0)


def test_extreme_bias_toward_a_loop_solves_exactly(t4):
    # biasing p1 and p4 pushes the chain toward the period-3 loop
    # p2 -> p1 -> p4 -> p2; p1 and p4 have one out-link each, so the solve
    # runs on the censored chain of p2 and p3 and recovers them exactly
    t = np.array([1.0, 0.0, 0.0, 1.0])
    biased = click_bias(t4, t, 100.0)
    res = stationary(transition_matrix(biased), max_iterations=2000)
    assert np.max(np.abs(res.pi - dense_stationary(biased))) < 1e-10


def test_extreme_bias_can_stall_convergence():
    # every page has two or three out-links, so nothing is censored; biasing
    # pages 2 and 3 leaves 0 -> 1 with 1/201 of page 0's weight and the
    # chain nearly bipartite (|lambda_2| ~ 0.9975): the solver must report,
    # not hang
    from navsteer import ConvergenceError, PeriodicChainError, WeightedDigraph
    g = WeightedDigraph.from_edges(4, [0, 0, 0, 1, 1, 2, 2, 3, 3],
                                   [1, 2, 3, 2, 3, 0, 1, 0, 1])
    t = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ConvergenceError) as err:
        stationary(transition_matrix(click_bias(g, t, 100.0)),
                   max_iterations=2000)
    assert not isinstance(err.value, PeriodicChainError)
    assert len(err.value.residual_history) == 2000


# --------------------------------------------------------------- insertion

def test_insert_single_link_stacks_parallel(t4):
    # top source by stationary probability is p2, and p2 -> p1 exists
    g2 = insert_links(t4, T1, T4_PI, 1)
    assert g2.adjacency[0, 1] == 2.0
    assert weight_delta(t4, g2) == 1.0


def test_insert_sources_in_descending_probability(t4):
    # two links need ceil(2/1) = 2 sources: p2 (4/11) then p4 (3/11)
    g2 = insert_links(t4, T1, T4_PI, 2)
    assert g2.adjacency[0, 1] == 2.0
    assert g2.adjacency[0, 3] == 1.0
    assert weight_delta(t4, g2) == 2.0


def test_insert_wraps_around_when_pairs_exhausted(t4):
    # budget 5 on one target: sources p2, p4, p3 (p1 skipped as self-loop),
    # then placement restarts from p2
    g2 = insert_links(t4, T1, T4_PI, 5)
    assert g2.adjacency[0, 1] == 3.0   # 1 existing + 2 passes
    assert g2.adjacency[0, 3] == 2.0
    assert g2.adjacency[0, 2] == 1.0
    assert weight_delta(t4, g2) == 5.0


def test_insert_orders_targets_by_probability(t4):
    # targets p1 and p4: the single source p2 serves the higher-mass
    # target p4 (3/11) before p1 (2/11), creating a new link p2 -> p4
    t = np.array([1.0, 0.0, 0.0, 1.0])
    g2 = insert_links(t4, t, T4_PI, 1)
    assert g2.adjacency[3, 1] == 1.0
    assert g2.adjacency[0, 1] == 1.0   # p2 -> p1 untouched


def test_insert_source_skips_itself_when_targeted(t4):
    # targets p1 and p2: the source list is just p2, which skips the
    # self-loop without spending budget and serves p1 instead
    t = np.array([1.0, 1.0, 0.0, 0.0])
    g2 = insert_links(t4, t, T4_PI, 1)
    assert g2.adjacency[0, 1] == 2.0
    assert weight_delta(t4, g2) == 1.0


def test_insert_skips_self_loops_uncounted():
    # 3-cycle, all nodes targeted: each source skips itself
    g = make_cycle3()
    pi = np.full(3, 1 / 3)
    g2 = insert_links(g, np.ones(3), pi, 3)
    assert np.all(g2.adjacency.diagonal() == 0.0)
    assert weight_delta(g, g2) == 3.0


def test_insert_budget_must_be_positive_integer(t4):
    with pytest.raises(ValidationError):
        insert_links(t4, T1, T4_PI, 0)
    with pytest.raises(ValidationError):
        insert_links(t4, T1, T4_PI, 1.5)


def test_insert_no_valid_pairs_raises():
    # sole source equals the sole target
    g = make_cycle3()
    pi = np.array([0.5, 0.3, 0.2])
    with pytest.raises(ValidationError):
        insert_links(g, np.array([1.0, 0, 0]), pi, 1)


def test_insert_exact_accounting_random_cases():
    rng = np.random.default_rng(21)
    for _ in range(40):
        g = random_scc_graph(rng, int(rng.integers(4, 30)), integer_weights=True)
        t = np.zeros(g.n)
        t[rng.choice(g.n, max(1, g.n // 4), replace=False)] = 1.0
        # budget >= 2 keeps at least two candidate sources in play, so the
        # single-source-equals-single-target corner cannot occur
        budget_count = int(rng.integers(2, 4 * g.n))
        pi = solve(g)
        g2 = insert_links(g, t, pi, budget_count)
        assert weight_delta(g, g2) == float(budget_count)   # integer exact
        assert np.all(g2.adjacency.diagonal() == 0.0)
        assert np.array_equal((g2.adjacency - g.adjacency).toarray(),
                              replayed_insertions(g.n, t, pi, budget_count))


def _old_insert_links(g, t, pi, budget_count):
    """insert_links as it stood when scipy sorted its block, kept as the
    oracle of the block built in CSC order."""
    tgt_idx = np.flatnonzero(t > 0.5)
    tgt_order = tgt_idx[np.argsort(-pi[tgt_idx], kind="stable")]
    k_t = len(tgt_order)
    n_sources = min(-(-budget_count // k_t), g.n)
    sources = _top(pi, n_sources)

    src = np.repeat(sources, k_t)
    dst = np.tile(tgt_order, n_sources)
    off_diagonal = src != dst
    src, dst = src[off_diagonal], dst[off_diagonal]
    if src.size == 0:
        raise ValidationError(
            "no insertable source-to-target pairs (all candidates are self-loops)")
    full, rem = divmod(budget_count, src.size)
    added = np.full(src.size, float(full))
    added[:rem] += 1.0
    addition = coo_array((added, (dst, src)), shape=(g.n, g.n)).tocsc()
    return g.with_adjacency(g.adjacency + addition)


def _inserted(insert, g, t, pi, budget_count):
    try:
        a = insert(g, t, pi, budget_count).adjacency
    except ValidationError as exc:
        return str(exc)
    return [(x.dtype.str, x.tobytes()) for x in (a.data, a.indices, a.indptr)]


def _assert_insert_is_the_coo_construction(g, t, pi, budget_count):
    assert (_inserted(insert_links, g, t, pi, budget_count)
            == _inserted(_old_insert_links, g, t, pi, budget_count))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_insert_block_is_the_coo_construction(data):
    n = data.draw(st.integers(3, 25))
    g = random_scc_graph(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    # coarse values make ties among sources and among targets
    pi = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 1.0),
                                     min_size=n, max_size=n)))
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    t = np.zeros(n)
    t[list(members)] = 1.0
    # up to several passes over every source-target pair
    budget_count = data.draw(st.integers(1, 3 * n * len(members)))
    _assert_insert_is_the_coo_construction(g, t, pi, budget_count)


@pytest.mark.parametrize("target, budget_count", [
    (0, 1), (0, 2), (0, 7), (0, 100),    # one target, the top page: its self-loop
    (3, 1), (3, 100),                    # one target, not a source
    ([0, 1, 2, 3], 5), ([0, 3], 50),     # sources among the targets
])
def test_insert_block_is_the_coo_construction_on_fixed_examples(target, budget_count):
    g = random_scc_graph(np.random.default_rng(3), 6)
    pi = np.array([0.4, 0.2, 0.2, 0.1, 0.05, 0.05])
    t = np.zeros(g.n)
    t[target] = 1.0
    _assert_insert_is_the_coo_construction(g, t, pi, budget_count)


def test_insert_block_is_the_coo_construction_on_a_synth_graph():
    g = scale_free_graph(5_000, seed=1)
    pi = solve(g)
    for phi, b in ((0.01, 2.0), (0.2, 15.0)):
        t = np.zeros(g.n)
        t[np.random.default_rng(2).choice(g.n, round(phi * g.n), replace=False)] = 1.0
        t[np.argmax(pi)] = 1.0                    # a source among the targets
        count = round_half_up(weight_budget(g, t, b))
        _assert_insert_is_the_coo_construction(g, t, pi, count)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(list(Strategy)), st.sampled_from([2.0, 15.0]))
def test_every_strategy_keeps_the_links_and_the_period(seed, strategy, b):
    # what lets a run skip the period check of its modified chain
    rng = np.random.default_rng(seed)
    g = random_scc_graph(rng, int(rng.integers(3, 30)))
    t = np.zeros(g.n)
    t[rng.choice(g.n, int(rng.integers(1, g.n)), replace=False)] = 1.0
    combined = strategy is Strategy.COMBINED
    spec = ModificationSpec(strategy, b, alpha=0.5 if combined else None,
                            seed=seed if combined else None)
    modified, _ = apply_modification(g, spec, t, solve(g))
    added = modified.adjacency - g.adjacency
    added.eliminate_zeros()
    assert added.data.min(initial=1.0) > 0
    assert chain_period(transition_matrix(modified).entries) == 1


def replayed_insertions(n, t, pi, budget_count):
    """The weight insertion adds, as a dense matrix, by replaying the
    placements in order.

    Sources and targets are ranked by descending pi (ties to the lower
    index); pairs run source-major without self-loops and wrap around
    until the budget is spent.
    """
    targets = sorted(np.flatnonzero(t).tolist(), key=lambda i: -pi[i])
    n_sources = min(-(-budget_count // len(targets)), n)
    sources = sorted(range(n), key=lambda i: -pi[i])[:n_sources]
    pairs = [(s, d) for s in sources for d in targets if s != d]
    added = np.zeros((n, n))
    for k in range(budget_count):
        s, d = pairs[k % len(pairs)]
        added[d, s] += 1.0
    return added


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.25]) | st.floats(0.0, 1.0),
                min_size=1, max_size=60),
       st.integers(1, 70))
def test_top_sources_match_a_stable_full_sort(values, k):
    # ties (drawn often from the four fixed values) go to the lower index
    pi = np.array(values)
    assert _top(pi, k).tobytes() == np.argsort(-pi, kind="stable")[:k].tobytes()


@pytest.mark.parametrize("k", [1, 10, 50, 500, 4999, 5000])
@pytest.mark.parametrize("decimals", [None, 4])
def test_top_sources_of_a_solved_graph(k, decimals):
    from navsteer.synth import scale_free_graph
    pi = solve(scale_free_graph(5000, seed=1))
    if decimals is not None:                      # forces ties
        pi = np.round(pi, decimals)
    assert _top(pi, k).tobytes() == np.argsort(-pi, kind="stable")[:k].tobytes()


def test_insert_does_not_mutate_inputs(t4):
    adj = t4.adjacency.data.copy()
    pi = T4_PI.copy()
    insert_links(t4, T1, pi, 3)
    assert np.array_equal(t4.adjacency.data, adj)
    assert np.array_equal(pi, T4_PI)


# ------------------------------------------------------ eligible links

def eligible_probs(g, t, pi):
    """{(dst, src): probability} of the bias draw, from combine's masses."""
    pos, _, masses = _eligible_entries(g, t, pi)
    a = g.adjacency
    links = zip(a.indices[pos].tolist(), column_of_entries(a)[pos].tolist())
    return dict(zip(links, (masses / masses.sum()).tolist()))


def test_eligible_distribution_single_support(t4):
    probs = eligible_probs(t4, T1, T4_PI)
    assert probs == {(0, 1): 1.0}


def test_eligible_distribution_toy_pair(t4):
    # targets p1 and p3 are both fed only by p2 with equal weight and
    # equal stationary mass, so the two eligible links split evenly
    probs = eligible_probs(t4, np.array([1.0, 0, 1.0, 0]), T4_PI)
    assert probs.keys() == {(0, 1), (2, 1)}
    assert probs[(0, 1)] == pytest.approx(0.5)
    assert probs[(2, 1)] == pytest.approx(0.5)
    assert sum(probs.values()) == pytest.approx(1.0)


def test_eligible_distribution_uniform_on_regular_graph():
    g = make_cycle3()
    pi = np.full(3, 1 / 3)
    probs = eligible_probs(g, np.ones(3), pi)
    assert len(probs) == 3
    assert np.allclose(list(probs.values()), 1 / 3)


def test_eligible_distribution_empty_support_raises():
    from navsteer import WeightedDigraph
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 0, 0])
    rng = np.random.default_rng(0)
    # node 2 has no in-links at all
    with pytest.raises(EmptySupportError):
        combine(g, np.array([0, 0, 1.0]), np.full(3, 1 / 3), b=2.0, alpha=0.5,
                rng=rng)
    # node 1's only in-link comes from a page the surfer never visits
    with pytest.raises(EmptySupportError):
        combine(g, np.array([0, 1.0, 0]), np.array([0.0, 0.5, 0.5]), b=2.0,
                alpha=0.5, rng=rng)


def test_combine_draws_follow_link_masses():
    # target p0 has in-links from p1, p2, p3 with masses 1 : 2 : 3 and one
    # from p4, whose zero stationary mass keeps it out of every draw. Each
    # link costs (b - 1) x 1 = 1.5; b = 2.5 leaves inserted (integer) weight
    # distinguishable from biased weight by its fractional part.
    from navsteer import WeightedDigraph
    g = WeightedDigraph.from_edges(5, [1, 2, 3, 4, 0], [0, 0, 0, 0, 1])
    t = np.array([1.0, 0, 0, 0, 0])
    pi = np.array([0.4, 0.1, 0.2, 0.3, 0.0])
    masses = np.array([1.0, 2.0, 3.0])
    l_b = weight_budget(g, t, 2.5)

    def biased(alpha, seed):
        g2, _ = combine(g, t, pi, b=2.5, alpha=alpha,
                        rng=np.random.default_rng(seed))
        return {j for j in range(1, 5) if g2.adjacency[0, j] % 1 == 0.5}

    def room(links):
        # a bias budget with room for `links` links and not one more
        return (1.5 * links + 0.75) / l_b

    assert biased(1.0, 0) == {1, 2, 3}
    draws = 2000
    first = np.zeros(3)
    one_before_three = 0
    for seed in range(draws):
        (head,) = biased(room(1), seed)
        first[head - 1] += 1
        if head == 2:
            # the keys do not depend on alpha, so the same seed with room
            # for two links reveals the second link drawn
            (head,) = biased(room(2), seed) - {2}
        one_before_three += head == 1
    # standard errors are at most sqrt(0.25 / 2000) = 0.011
    assert np.allclose(first / draws, masses / masses.sum(), atol=0.035)
    assert one_before_three / draws == pytest.approx(1 / (1 + 3), abs=0.035)


# ----------------------------------------------------------------- combine

def test_combine_toy_case_bias_does_not_fit(t4):
    # l_b = 4, bias share 2; the only eligible link costs (b-1)*w = 4,
    # so the bias phase places nothing and everything rolls into insertion
    rng = np.random.default_rng(0)
    g2, budget = combine(t4, T1, T4_PI, b=5.0, alpha=0.5, rng=rng)
    assert budget.biased_weight == 0.0
    assert budget.inserted_count == 4
    assert g2.adjacency[0, 1] == 3.0
    assert g2.adjacency[0, 3] == 1.0
    assert g2.adjacency[0, 2] == 1.0
    assert weight_delta(t4, g2) == 4.0


def test_combine_partial_bias_then_insert(t4):
    # targets p1, p3: l_b = 2, alpha 0.75 -> bias budget 1.5; each eligible
    # draw costs 1, so exactly one fits and one unit is inserted
    t = np.array([1.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(3)
    g2, budget = combine(t4, t, T4_PI, b=2.0, alpha=0.75, rng=rng)
    assert budget.biased_weight == 1.0
    assert budget.inserted_count == 1
    assert weight_delta(t4, g2) == pytest.approx(2.0)


def test_combine_alpha_one_equals_click_bias():
    rng_graph = np.random.default_rng(31)
    for _ in range(10):
        g = random_scc_graph(rng_graph, int(rng_graph.integers(4, 20)),
                             integer_weights=True)
        t = np.zeros(g.n)
        t[rng_graph.choice(g.n, 2, replace=False)] = 1.0
        pi = solve(g)
        merged, budget = combine(g, t, pi, b=4.0, alpha=1.0,
                                 rng=np.random.default_rng(5))
        pure = click_bias(g, t, 4.0)
        assert (merged.adjacency != pure.adjacency).nnz == 0
        assert np.array_equal(merged.adjacency.data, pure.adjacency.data)
        assert budget.inserted_count == 0


def test_combine_alpha_zero_equals_insertion():
    from navsteer.util import round_half_up
    rng_graph = np.random.default_rng(77)
    for _ in range(10):
        g = random_scc_graph(rng_graph, int(rng_graph.integers(4, 20)),
                             integer_weights=True)
        t = np.zeros(g.n)
        t[rng_graph.choice(g.n, 2, replace=False)] = 1.0
        pi = solve(g)
        merged, budget = combine(g, t, pi, b=3.0, alpha=0.0,
                                 rng=np.random.default_rng(5))
        pure = insert_links(g, t, pi, round_half_up(weight_budget(g, t, 3.0)))
        assert (merged.adjacency != pure.adjacency).nnz == 0
        assert np.array_equal(merged.adjacency.data, pure.adjacency.data)
        assert budget.biased_weight == 0.0


def test_combine_alpha_zero_copies_no_graph_before_inserting(monkeypatch):
    g = scale_free_graph(300, seed=4)
    t = np.zeros(g.n)
    t[np.random.default_rng(4).choice(g.n, 10, replace=False)] = 1.0
    pi = solve(g)

    def biased(*args):
        raise AssertionError("a bias phase that takes no link copied the graph")

    monkeypatch.setattr(modify, "_biased", biased)
    merged, budget = combine(g, t, pi, b=3.0, alpha=0.0, rng=np.random.default_rng(5))
    pure = insert_links(g, t, pi, budget.inserted_count).adjacency
    assert budget.biased_weight == 0.0 and budget.inserted_count > 0
    for name in ("indptr", "indices", "data"):
        assert getattr(merged.adjacency, name).tobytes() == getattr(pure, name).tobytes()


def test_combine_alpha_zero_skips_links_cheaper_than_the_slack():
    # the only eligible link costs 1e-12, below the fit slack, yet an
    # empty bias budget still draws nothing
    from navsteer import WeightedDigraph
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, 1.0, 1e-12])
    merged, budget = combine(g, np.array([1.0, 0, 0]), np.full(3, 1 / 3),
                             b=2.0, alpha=0.0, rng=np.random.default_rng(0))
    assert budget.biased_weight == 0.0
    assert np.array_equal(merged.adjacency.data, g.adjacency.data)


def test_combine_requires_strict_bias(t4):
    with pytest.raises(ValidationError):
        combine(t4, T1, T4_PI, b=1.0, alpha=0.5, rng=np.random.default_rng(0))


def test_combine_empty_support_raised_for_any_alpha():
    from navsteer import WeightedDigraph
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 0, 0])
    t = np.array([0, 0, 1.0])
    pi = np.full(3, 1 / 3)
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(EmptySupportError):
            combine(g, t, pi, b=2.0, alpha=alpha, rng=np.random.default_rng(0))


def test_combine_deterministic_under_seed(t4):
    t = np.array([1.0, 0.0, 1.0, 0.0])
    a, _ = combine(t4, t, T4_PI, b=3.0, alpha=0.6, rng=np.random.default_rng(123))
    b, _ = combine(t4, t, T4_PI, b=3.0, alpha=0.6, rng=np.random.default_rng(123))
    assert (a.adjacency != b.adjacency).nnz == 0
    assert np.array_equal(a.adjacency.data, b.adjacency.data)


def test_combine_budget_conservation():
    # biased + inserted weight always lands within one rounding step of l_b
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = random_scc_graph(rng, int(rng.integers(4, 25)), integer_weights=True)
        t = np.zeros(g.n)
        t[rng.choice(g.n, max(1, g.n // 4), replace=False)] = 1.0
        pi = solve(g)
        b = float(rng.integers(2, 10))
        alpha = float(rng.uniform(0, 1))
        merged, budget = combine(g, t, pi, b=b, alpha=alpha,
                                 rng=np.random.default_rng(int(rng.integers(1 << 30))))
        l_b = weight_budget(g, t, b)
        realized = weight_delta(g, merged)
        assert abs(realized - l_b) <= 0.5 + 1e-9
        assert budget.biased_weight + budget.inserted_count == pytest.approx(realized)


@pytest.mark.parametrize("spec", [
    ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=3.0),
    ModificationSpec(strategy=Strategy.COMBINED, bias_strength=3.0, alpha=0.5,
                     seed=2),
])
def test_reweighting_keeps_links_and_results(monkeypatch, spec):
    # bias changes weights only: the result shares the input's links, marked
    # canonical, and solves and records equal those of a re-checked copy
    import dataclasses

    from navsteer import WeightedDigraph, sample_target_sets, synth
    from navsteer.experiment import run_single_detailed

    g = synth.scale_free_graph(3000, seed=4)
    ts = sample_target_sets(g, 0.05, 1, 9)[0]
    t = np.zeros(g.n)
    t[list(ts.members)] = 1.0
    biased = click_bias(g, t, 3.0)
    assert biased.adjacency.has_canonical_format
    assert np.array_equal(biased.adjacency.indices, g.adjacency.indices)
    assert np.array_equal(biased.adjacency.indptr, g.adjacency.indptr)

    record, modified = run_single_detailed(g, ts, spec)

    def rechecked(self, data):
        a = self.adjacency
        return self.with_adjacency(csc_array(
            (data, a.indices.copy(), a.indptr.copy()), shape=a.shape))

    monkeypatch.setattr(WeightedDigraph, "with_weights", rechecked)
    again, remodified = run_single_detailed(g, ts, spec)
    assert (dataclasses.replace(record, wall_time_ms=0.0)
            == dataclasses.replace(again, wall_time_ms=0.0))
    assert np.array_equal(solve(modified), solve(remodified))


# ------------------------------------------------------------- dispatcher

def test_apply_modification_dispatch(t4):
    pi = solve(t4)
    spec = ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=2.0)
    g2, budget = apply_modification(t4, spec, T1, pi)
    assert g2.adjacency[0, 1] == 2.0
    assert budget.biased_weight == pytest.approx(1.0)
    assert budget.inserted_count == 0

    spec = ModificationSpec(strategy=Strategy.LINK_INSERTION, bias_strength=2.0)
    g3, budget = apply_modification(t4, spec, T1, pi)
    assert budget.inserted_count == 1

    spec = ModificationSpec(strategy=Strategy.COMBINED, bias_strength=5.0,
                            alpha=0.5, seed=7)
    g4, budget = apply_modification(t4, spec, T1, pi)
    assert budget.biased_weight + budget.inserted_count == pytest.approx(4.0)


def test_modification_spec_validation():
    with pytest.raises(ValidationError):
        ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=0.5)
    with pytest.raises(ValidationError):
        ModificationSpec(strategy=Strategy.CLICK_BIAS, bias_strength=2.0, alpha=0.5)
    with pytest.raises(ValidationError):
        ModificationSpec(strategy=Strategy.COMBINED, bias_strength=2.0, seed=1)
    with pytest.raises(ValidationError):
        ModificationSpec(strategy=Strategy.COMBINED, bias_strength=2.0,
                         alpha=1.5, seed=1)
    # string values coerce to the enum
    spec = ModificationSpec(strategy="bias", bias_strength=2.0)
    assert spec.strategy is Strategy.CLICK_BIAS




@pytest.mark.parametrize("make, message", [
    (lambda: ModificationSpec(Strategy.COMBINED, 2.0, alpha=0.5), "needs an RNG seed"),
    (lambda: ModificationSpec(Strategy.CLICK_BIAS, 2.0, seed=1),
     "seed only applies to the combined strategy"),
    (lambda: ModificationSpec(Strategy.COMBINED, 1.0, alpha=0.5, seed=1),
     "combined strategy needs bias strength > 1"),
    (lambda: LinkBudget(inserted_count=-1, biased_weight=0.0),
     "cannot be negative"),
    (lambda: click_bias(make_t4(), np.ones(3), 2.0),
     "target vector length must equal the node count"),
    (lambda: click_bias(make_t4(), np.zeros(4), 2.0), "target vector selects no nodes"),
    (lambda: insert_links(make_t4(), T1, np.full(3, 1 / 3), 1),
     "pi length must equal the node count"),
    (lambda: insert_links(make_t4(), T1, np.array([np.nan, 0.5, 0.25, 0.25]), 1),
     "pi must be finite and non-negative"),
    (lambda: combine(make_t4(), T1, T4_PI, 2.0, 1.5, np.random.default_rng(0)),
     "alpha must lie in [0, 1], got 1.5"),
])
def test_modify_rejects_invalid_values(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert message in str(err.value)
