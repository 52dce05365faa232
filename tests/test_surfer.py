"""Transition matrix construction, power iteration, concentration curve."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsteer import (
    ConvergenceError,
    DanglingNodeError,
    EmptyGraphError,
    PeriodicChainError,
    ValidationError,
    WeightedDigraph,
    lorenz_curve,
    stationary,
    transition_matrix,
)

from navsteer import surfer
from navsteer.surfer import chain_period

from conftest import T4_PI, dense_stationary, make_t4, random_scc_graph


def test_transition_columns_are_stochastic(t4):
    p = transition_matrix(t4)
    cols = np.asarray(p.entries.todense()).sum(axis=0)
    assert np.allclose(cols, 1.0, atol=1e-15)


def test_transition_values(t4):
    dense = np.asarray(transition_matrix(t4).entries.todense())
    # p1 links only to p4; p2 splits evenly between p1 and p3
    assert dense[3, 0] == 1.0
    assert dense[0, 1] == 0.5
    assert dense[2, 1] == 0.5


def test_transition_rejects_dangling_node():
    g = WeightedDigraph.from_edges(3, [0, 1], [1, 2],
                                   node_labels=("a", "b", "sink"))
    with pytest.raises(DanglingNodeError) as err:
        transition_matrix(g)
    assert "sink" in str(err.value)


def test_transition_rejects_overflowing_out_weight():
    # each weight is finite, but node a's out-weight sums past float64
    g = WeightedDigraph.from_edges(3, [0, 0, 1, 2], [1, 2, 0, 0],
                                   [1e308, 1e308, 1.0, 1.0],
                                   node_labels=("a", "b", "c"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="node 'a' has an out-weight"):
            transition_matrix(g)


def test_transition_rejects_empty_graph():
    import io
    from navsteer import load_edge_list
    with pytest.raises(EmptyGraphError):
        transition_matrix(load_edge_list(io.StringIO("")))


def test_stationary_toy_graph(t4):
    res = stationary(transition_matrix(t4))
    assert np.max(np.abs(res.pi - T4_PI)) < 1e-10
    assert res.residual < 1e-12
    assert res.iterations > 0
    assert np.isclose(res.pi.sum(), 1.0)


def test_uniform_cycle_converges_immediately():
    # a pure cycle holds the uniform start fixed, so one sweep suffices
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 2, 0])
    res = stationary(transition_matrix(g))
    assert res.iterations == 1
    assert np.allclose(res.pi, 1 / 3)


def test_matches_dense_solve_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = random_scc_graph(rng, int(rng.integers(3, 40)))
        res = stationary(transition_matrix(g))
        assert np.max(np.abs(res.pi - dense_stationary(g))) < 1e-8


def test_periodic_chain_raises_with_diagnostics():
    # two length-3 loops sharing node 0: period 3, the iterate oscillates
    g = WeightedDigraph.from_edges(4, [0, 0, 1, 3, 2], [1, 3, 2, 2, 0])
    with pytest.raises(PeriodicChainError) as err:
        stationary(transition_matrix(g), max_iterations=300)
    e = err.value
    assert e.period == 3
    # only the uniform-start check ran; no power iterations followed it
    assert len(e.residual_history) <= 1
    assert e.last_iterate.shape == (4,)
    assert np.isclose(e.last_iterate.sum(), 1.0)
    assert e.residual_history[-1] > 1e-12


def test_period_two_chain_raises_at_once():
    # an even cycle plus chords that skip an odd number of pages keeps the
    # graph bipartite, so every cycle has even length
    n = 8
    src = list(range(n)) + [0, 2, 5]
    dst = [(i + 1) % n for i in range(n)] + [3, 7, 0]
    g = WeightedDigraph.from_edges(n, src, dst)
    with pytest.raises(PeriodicChainError) as err:
        stationary(transition_matrix(g))
    assert err.value.period == 2
    assert len(err.value.residual_history) <= 1


@pytest.mark.parametrize("src, dst, period", [
    ([0, 1, 2], [1, 2, 0], 3),
    ([0, 1, 2, 3, 4], [1, 2, 3, 4, 0], 5),
    ([0, 1, 1, 2], [1, 0, 2, 0], 1),
    ([0, 1, 2, 3, 2], [1, 2, 3, 0, 1], 2),
    ([0, 1, 2, 3, 3], [1, 2, 3, 0, 1], 1),
    ([0, 1, 2, 3, 4, 5, 2], [1, 2, 3, 4, 5, 0, 0], 3),
])
def test_chain_period_is_gcd_of_cycle_lengths(src, dst, period):
    g = WeightedDigraph.from_edges(max(src) + 1, src, dst)
    assert chain_period(transition_matrix(g).entries) == period


@pytest.mark.parametrize("c", [7.0, 2.0, 0.5, 3.0, 1024.0])
def test_weight_scale_invariance(c):
    # integer weights keep c*w exact in floating point, so the transition
    # entries and hence the whole iteration trajectory match bitwise
    rng = np.random.default_rng(7)
    g = random_scc_graph(rng, 12, integer_weights=True)
    scaled = g.with_adjacency((g.adjacency * c).tocsc())
    a = stationary(transition_matrix(g))
    b = stationary(transition_matrix(scaled))
    assert a.iterations == b.iterations
    assert np.array_equal(a.pi, b.pi)


def test_stationary_respects_max_iterations(t4):
    with pytest.raises(ConvergenceError) as err:
        stationary(transition_matrix(t4), tolerance=1e-15, max_iterations=5)
    # the censored chain's last iterate comes back over all four pages
    assert len(err.value.residual_history) == 5
    assert err.value.last_iterate.shape == (4,)
    assert np.isclose(err.value.last_iterate.sum(), 1.0)


def test_lorenz_toy_values(t4):
    res = stationary(transition_matrix(t4))
    curve = lorenz_curve(res.pi)
    expected = np.array([
        [0.0, 0.0],
        [0.25, 4 / 11],
        [0.5, 7 / 11],
        [0.75, 9 / 11],
        [1.0, 1.0],
    ])
    assert curve.shape == (5, 2)
    assert np.allclose(curve, expected)


def test_lorenz_uniform_is_diagonal():
    curve = lorenz_curve(np.full(5, 0.2))
    assert np.allclose(curve[:, 0], curve[:, 1])


def test_lorenz_rejects_bad_input():
    with pytest.raises(ValidationError):
        lorenz_curve(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValidationError):
        lorenz_curve(np.array([]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=40))
def test_lorenz_shape_properties(values):
    pi = np.array(values)
    pi /= pi.sum()
    curve = lorenz_curve(pi)
    assert curve[0, 0] == 0.0 and curve[0, 1] == 0.0
    assert curve[-1, 0] == 1.0 and curve[-1, 1] == 1.0
    assert np.all(np.diff(curve[:, 1]) >= -1e-12)
    # sorting by descending mass puts the curve on or above the diagonal
    assert np.all(curve[:, 1] - curve[:, 0] >= -1e-9)


def test_stationary_is_fixed_point(t4):
    res = stationary(transition_matrix(t4))
    p = transition_matrix(t4)
    assert np.max(np.abs(p.entries @ res.pi - res.pi)) < 1e-10


# ---------------------------------------------- censored single-out-link pages

def _with_chains(n, src, dst, w, chains):
    """Replace link k = (src[k], dst[k]) by a path through ``length`` new
    single-out-link pages, for each (k, length) in ``chains``."""
    src, dst, w = list(src), list(dst), list(w)
    for k, length in chains:
        path = [src[k]] + list(range(n, n + length)) + [dst[k]]
        n += length
        dst[k] = path[1]
        src += path[1:-1]
        dst += path[2:]
        w += [1.0] * length
    return WeightedDigraph.from_edges(n, src, dst, w)


@st.composite
def censorable_graphs(draw):
    """Strongly connected aperiodic graphs, half of them carrying long
    chains of single-out-link pages.

    Links 0->1, 1->0, 1->2 and 2->0 close cycles of length 2 and 3 and are
    never replaced by chains, so the period stays 1; the spanning cycle
    2 -> 3 -> ... -> 0 keeps the graph strongly connected.
    """
    n = draw(st.integers(3, 12))
    src = [0, 1, 1, 2] + list(range(2, n))
    dst = [1, 0, 2, 0] + [(i + 1) % n for i in range(2, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    for s, d in extra:
        if s != d:
            src.append(s)
            dst.append(d)
    w = draw(st.lists(st.floats(0.1, 5.0), min_size=len(src), max_size=len(src)))
    chains = []
    if draw(st.booleans()):
        links = st.integers(4, len(src) - 1) if len(src) > 4 else st.nothing()
        chains = draw(st.lists(st.tuples(links, st.integers(1, 15)),
                               max_size=4, unique_by=lambda c: c[0]))
    return _with_chains(n, src, dst, w, chains)


@settings(max_examples=150, deadline=None)
@given(censorable_graphs())
def test_censored_solve_matches_dense_oracle(g):
    res = stationary(transition_matrix(g))
    assert np.max(np.abs(res.pi - dense_stationary(g))) < 1e-9


def _censored_periodic_graph():
    # pages 0, 1, 2 have two out-links each; 3..9 have one. Every cycle has
    # length 4 or 5, so the full chain is aperiodic, but the chain censored
    # to {0, 1, 2} only alternates 0 -> {1, 2} -> 0: period 2
    src = [0, 3, 0, 7, 1, 4, 1, 5, 6, 2, 8, 2, 9]
    dst = [3, 1, 7, 2, 4, 0, 5, 6, 0, 8, 0, 9, 6]
    return WeightedDigraph.from_edges(10, src, dst)


def _deep_chain_graph():
    # pages 0, 1, 2 link to each other; 0 -> 3 -> 4 -> ... -> 14 -> 0 is a
    # path of 12 single-out-link pages, a self-loop of 0 once censored
    src = [0, 0, 1, 1, 2, 2, 0] + list(range(3, 15))
    dst = [1, 2, 0, 2, 0, 1, 3] + list(range(4, 15)) + [0]
    return WeightedDigraph.from_edges(15, src, dst, [1, 2, 1, 3, 1, 1, 2] + [1] * 12)


def _pure_cycle_graph():
    # every page has one out-link, so nothing is left after censoring
    return WeightedDigraph.from_edges(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0])


@pytest.mark.parametrize("make", [_censored_periodic_graph, _deep_chain_graph,
                                  _pure_cycle_graph, make_t4])
def test_censored_solve_fixed_examples(make):
    g = make()
    p = transition_matrix(g)
    res = stationary(p)
    assert np.max(np.abs(res.pi - dense_stationary(g))) < 1e-10
    assert np.abs(p.entries @ res.pi - res.pi).sum() <= 1e-9


@pytest.mark.parametrize("make, kept, period", [
    # censored to {0, 1, 2} the chain would have period 2, so nothing is
    # censored and the full chain comes back
    (_censored_periodic_graph, [0, 1, 2], 2),
    # the censored chain is solved and 12 pages are recovered
    (_deep_chain_graph, [0, 1, 2], 1),
])
def test_censored_chain_of_fixed_examples(make, kept, period):
    p = transition_matrix(make())
    assert chain_period(p.entries) == 1
    out_links = np.bincount(p.entries.indices, minlength=p.n)
    assert np.flatnonzero(out_links > 1).tolist() == kept
    q, single = surfer._censor(p.entries)
    if period > 1:
        assert q is p.entries
        assert not single.any()
    else:
        assert np.flatnonzero(~single).tolist() == kept
        assert chain_period(q) == period


def test_nothing_is_left_to_censor_on_a_cycle():
    p = transition_matrix(_pure_cycle_graph())
    q, single = surfer._censor(p.entries)
    assert q is p.entries
    assert single.shape == (p.n,) and not single.any()


def _multi_link_graph():
    # every page has at least two out-links, so no page can be censored
    return random_scc_graph(np.random.default_rng(3), 6, extra=18)


@pytest.mark.parametrize("make", [_multi_link_graph, _censored_periodic_graph])
def test_uncensored_solve_is_the_plain_power_iteration(make):
    p = transition_matrix(make())
    history = []
    x, done = surfer._power_iteration(
        p.entries, np.full(p.n, 1.0 / p.n), surfer.DEFAULT_TOLERANCE,
        surfer.DEFAULT_MAX_ITERATIONS, history)
    assert done
    # renormalising x moves its last bits, so recovering an empty set of
    # censored pages would show here
    assert not np.array_equal(x, x / x.sum())
    res = stationary(p)
    assert res.pi.tobytes() == x.tobytes()
    assert res.iterations == len(history)
    assert res.residual == history[-1]


def test_certificate_rejects_a_wrong_vector(t4, monkeypatch):
    # a recovery fault must not reach the caller as a stationary vector
    monkeypatch.setattr(surfer, "_recover",
                        lambda matrix, single, y: np.full(matrix.shape[0], 0.25))
    with pytest.raises(ConvergenceError, match="fails its check"):
        stationary(transition_matrix(t4))
