"""Transition matrix construction, power iteration, concentration curve."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import coo_array, csc_array, csr_array, issparse

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
from navsteer.graph import column_of_entries
from navsteer.modify import combine, insert_links
from navsteer.surfer import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    StationaryResult,
    TransitionMatrix,
    _power_iteration,
    chain_period,
)
from navsteer.synth import scale_free_graph

from conftest import (T4_PI, _merged_links_graph, dense_stationary, make_t4,
                      random_scc_graph)


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


def test_transition_keeps_the_graphs_csc_arrays():
    g = scale_free_graph(300, seed=2)
    p = transition_matrix(g).entries
    assert isinstance(p, csc_array) and p.has_canonical_format
    assert np.array_equal(p.indices, g.adjacency.indices)
    assert np.array_equal(p.indptr, g.adjacency.indptr)


def _reversed_rows(matrix):
    """A CSR copy of ``matrix`` with each row's entries stored backwards."""
    rows = csr_array(matrix)
    at = np.concatenate([np.arange(a, b)[::-1]
                         for a, b in zip(rows.indptr[:-1], rows.indptr[1:])])
    return csr_array((rows.data[at], rows.indices[at], rows.indptr), shape=rows.shape)


@pytest.mark.parametrize("form", [csc_array, csr_array, coo_array, _reversed_rows])
def test_transition_matrix_fixes_the_form_it_is_given(form):
    p = transition_matrix(scale_free_graph(300, seed=2))
    given = TransitionMatrix(p.n, form(p.entries))
    assert isinstance(given.entries, csc_array) and given.entries.has_canonical_format
    assert _outcome(stationary, given) == _outcome(stationary, p)


def _wide(matrix, form):
    """``matrix`` in sparse ``form`` with int64 index arrays, which a
    scipy sparse array keeps."""
    given = form(matrix)
    if form is coo_array:
        return coo_array((given.data, tuple(c.astype(np.int64) for c in given.coords)),
                         shape=given.shape)
    return form((given.data, given.indices.astype(np.int64),
                 given.indptr.astype(np.int64)), shape=given.shape)


@pytest.mark.parametrize("form", [csc_array, csr_array, coo_array])
def test_transition_matrix_narrows_wide_index_arrays(form):
    p = transition_matrix(scale_free_graph(300, seed=2))
    given = TransitionMatrix(p.n, _wide(p.entries, form))
    assert isinstance(given.entries, csc_array) and given.entries.has_canonical_format
    for name in ("indices", "indptr", "data"):
        assert getattr(given.entries, name).tobytes() == getattr(p.entries, name).tobytes()
    assert _outcome(stationary, given) == _outcome(stationary, p)


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


def test_a_doubly_stochastic_aperiodic_chain_settles_on_its_plan():
    # every page has two out-links and two in-links, and the cycles
    # 0 -> 2 -> 0 and 0 -> 1 -> 2 -> 0 make the chain aperiodic
    g = WeightedDigraph.from_edges(4, [0, 0, 1, 1, 2, 2, 3, 3],
                                   [1, 2, 2, 3, 3, 0, 0, 1])
    res = stationary(transition_matrix(g))
    assert res.iterations == 1
    assert np.allclose(res.pi, 0.25)
    assert res.plan is not None


@pytest.mark.parametrize("planned", [False, True])
def test_an_aperiodic_solve_runs_one_power_loop(monkeypatch, planned):
    g = scale_free_graph(300, seed=2)
    base = stationary(transition_matrix(g))
    p = transition_matrix(_reweighted(g, 5) if planned else g)
    calls = []

    def spy(*args):
        calls.append(args)
        return _power_iteration(*args)

    monkeypatch.setattr(surfer, "_power_iteration", spy)
    res = stationary(p, plan=base.plan if planned else None)
    assert len(calls) == 1
    assert res.plan is not None and (res.plan is base.plan) == planned


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


_PERIODS = [
    ([0, 1, 2], [1, 2, 0], 3),
    ([0, 1, 2, 3, 4], [1, 2, 3, 4, 0], 5),
    ([0, 1, 1, 2], [1, 0, 2, 0], 1),
    ([0, 1, 2, 3, 2], [1, 2, 3, 0, 1], 2),
    ([0, 1, 2, 3, 3], [1, 2, 3, 0, 1], 1),
    ([0, 1, 2, 3, 4, 5, 2], [1, 2, 3, 4, 5, 0, 0], 3),
]


@pytest.mark.parametrize("src, dst, period", _PERIODS)
def test_chain_period_is_gcd_of_cycle_lengths(src, dst, period):
    g = WeightedDigraph.from_edges(max(src) + 1, src, dst)
    assert chain_period(transition_matrix(g).entries) == period


# the last case is reducible: from node 0 node 2 is never reached
@pytest.mark.parametrize("src, dst, period", [*_PERIODS, ([1, 0, 0], [0, 1, 2], 1)])
def test_chain_period_does_not_follow_the_sparse_form(src, dst, period):
    n = max(src + dst) + 1
    links = csr_array((np.ones(len(src)), (dst, src)), shape=(n, n))
    assert chain_period(links) == chain_period(csc_array(links)) == period


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


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
def test_stationary_rejects_a_tolerance_that_is_not_finite_and_positive(t4, tolerance):
    with pytest.raises(ValidationError, match="tolerance must be finite and positive"):
        stationary(transition_matrix(t4), tolerance=tolerance)


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


def _csr(rows, cols, data, n=2):
    return csr_array((data, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("make, message", [
    (lambda: TransitionMatrix(3, _csr([0, 1], [1, 0], [1.0, 1.0])),
     "shape mismatch"),
    (lambda: TransitionMatrix(2, _csr([0, 1], [1, 0], [0.5, 1.0])),
     "columns must sum to 1"),
    pytest.param(lambda: TransitionMatrix(2, _csr([0, 1], [0, 0], [0.5, 0.5])),
                 "columns must sum to 1", id="empty column"),
    (lambda: TransitionMatrix(2, _csr([0, 1, 0], [0, 0, 1], [1.5, -0.5, 1.0])),
     "must lie in [0, 1]"),
    (lambda: StationaryResult(np.array([0.5, 0.4]), 1, 0.0), "must sum to 1"),
    (lambda: StationaryResult(np.array([1.5, -0.5]), 1, 0.0), "non-negative"),
    (lambda: stationary(transition_matrix(make_t4()), max_iterations=0),
     "max_iterations must be at least 1"),
    (lambda: lorenz_curve(np.array([0.5, 0.4])), "input mass sums to 0.9"),
])
def test_surfer_rejects_invalid_values(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert message in str(err.value)


def test_chain_period_is_one_when_not_every_node_is_reached():
    # 0 <-> 1 alone has period 2, but from node 0 node 2 is never reached
    assert chain_period(_csr([0, 1, 2], [1, 0, 0], [1.0, 1.0, 1.0], n=3)) == 1


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
    p = transition_matrix(g)
    try:
        res = stationary(p)
    except ConvergenceError:
        # a draw may be periodic up to a rare odd cycle; only then may the
        # iterated chain (Q, or P when nothing is censored) outlast the budget
        _, q = surfer._censor(p.entries)
        moduli = np.sort(np.abs(np.linalg.eigvals(q.toarray())))
        if moduli[-2] > 0.999:
            return
        raise
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
    out_links = np.diff(p.entries.indptr)
    assert np.flatnonzero(out_links > 1).tolist() == kept
    plan, q = surfer._censor(p.entries)
    single = plan.single
    if period > 1:
        assert q is p.entries
        assert not single.any()
    else:
        assert np.flatnonzero(~single).tolist() == kept
        assert chain_period(q) == period


def test_nothing_is_left_to_censor_on_a_cycle():
    p = transition_matrix(_pure_cycle_graph())
    plan, q = surfer._censor(p.entries)
    single = plan.single
    assert q is p.entries
    assert single.shape == (p.n,) and not single.any()


def _multi_link_graph():
    # every page has at least two out-links, so no page can be censored
    return random_scc_graph(np.random.default_rng(3), 6, extra=18)


@pytest.mark.parametrize("make", [_multi_link_graph, _censored_periodic_graph])
def test_uncensored_solve_is_the_plain_power_iteration(make, monkeypatch):
    p = transition_matrix(make())
    history = []
    x, done = surfer._power_iteration(
        p.entries, np.full(p.n, 1.0 / p.n), surfer.DEFAULT_TOLERANCE,
        surfer.DEFAULT_MAX_ITERATIONS, history)
    assert done
    # recovering an empty set of censored pages would renormalise x again
    recovered, recover = [], surfer._recover

    def spy(*args):
        recovered.append(args)
        return recover(*args)

    monkeypatch.setattr(surfer, "_recover", spy)
    res = stationary(p)
    assert not recovered
    assert res.pi.tobytes() == x.tobytes()
    assert res.iterations == len(history)
    assert res.residual == history[-1]


def test_certificate_rejects_a_wrong_vector(t4, monkeypatch):
    # a recovery fault must not reach the caller as a stationary vector
    monkeypatch.setattr(surfer, "_recover",
                        lambda plan, matrix, y: np.full(matrix.shape[0], 0.25))
    with pytest.raises(ConvergenceError, match="fails its check"):
        stationary(transition_matrix(t4))


# ------------------------------------------ solve plans against the old solve
#
# The solve as it stood before solve plans, kept as the oracle: each of
# Q's links stored on its own, in P's order, recovery by repeated sweeps
# until nothing changes.

def _old_censor(given):
    """``(Q, single)``: the chain censored to the pages with more than one
    out-link, and the mask of the pages censored out.

    A page e with a single out-link passes all its mass on, so its mass
    lands on ``jump(e)``, the first other page on its successor path. Q
    moves each link's target to its jump and keeps the other pages S; its
    stationary vector is pi restricted to S, renormalised (Meyer, SIAM
    Review 31(2), 1989). Nothing is censored (Q is ``given`` itself and
    ``single`` all False) when no page has a single out-link, when such
    pages close a loop, or when Q would be periodic.
    """
    matrix = csr_array(given)
    n = matrix.shape[0]
    single = np.bincount(matrix.indices, minlength=n) == 1
    if not single.any():
        return given, single
    entry = np.flatnonzero(single[matrix.indices])
    jump = np.arange(n)
    jump[matrix.indices[entry]] = np.searchsorted(matrix.indptr, entry, side="right") - 1
    # pointer doubling: after k rounds jump(e) is 2^k links down the path
    for _ in range(n.bit_length()):
        if not single[jump].any():
            break
        jump = jump[jump]
    if single[jump].any():
        return given, np.zeros(n, dtype=bool)
    # Q in one step: each stored link keeps its weight, its target moves
    # to the target's jump, and links out of censored pages are dropped
    kept = ~single
    position = np.cumsum(kept, dtype=matrix.indices.dtype) - 1
    links = kept[matrix.indices]
    rows = np.repeat(position[jump], np.diff(matrix.indptr))[links]
    cols = position[matrix.indices[links]]
    m = np.count_nonzero(kept)
    # links by (row, col); links that land on one (row, col) stay apart,
    # in P's order, since the sort is stable
    order = np.lexsort((cols, rows))
    itype = matrix.indices.dtype
    indptr = np.zeros(m + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    q = csr_array((matrix.data[links][order], cols[order], indptr), shape=(m, m))
    if chain_period(q) > 1:
        return given, np.zeros(n, dtype=bool)
    return q, single


def _old_recover(matrix, single, y):
    """Full stationary vector from the censored chain's: a censored page's
    mass is what its kept in-links bring (P x with the censored pages at
    0), plus the mass of each censored page that links to it, added in
    ascending page order, repeated until it stops changing. The censored
    pages' links form a forest, so this ends after (longest
    single-out-link path + 1) sweeps."""
    matrix = csc_array(matrix)
    censored = np.flatnonzero(single)
    successor = matrix.indices[matrix.indptr[censored]]
    x = np.zeros(matrix.shape[0])
    x[~single] = y
    from_kept = csr_array(matrix) @ x
    while True:
        pushed = from_kept.copy()
        np.add.at(pushed, successor, x[censored])
        if np.array_equal(pushed[censored], x[censored]):
            return x / x.sum()
        x[censored] = pushed[censored]


def _old_stationary(
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
    q, single = _old_censor(matrix)
    history = []
    y, done = _power_iteration(q, np.full(q.shape[0], 1.0 / q.shape[0]),
                               tolerance, max_iterations, history)
    # recovering an empty set would renormalise y and move its last bits
    x = _old_recover(matrix, single, y) if single.any() else y
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


def _outcome(solve, p, **kwargs):
    """What a solve gives its caller, as comparable values and bytes."""
    try:
        r = solve(p, **kwargs)
    except (ConvergenceError, PeriodicChainError) as e:
        return (type(e).__name__, str(e), e.last_iterate.tobytes(),
                list(e.residual_history))
    return ("ok", r.pi.tobytes(), r.iterations, r.residual)


def _reweighted(g, seed):
    """``g``'s links with new weights, as click bias leaves them."""
    rng = np.random.default_rng(seed)
    return g.with_weights(rng.uniform(0.1, 5.0, g.adjacency.nnz))


def _assert_plans_match_the_old_solve(g, seed, budget):
    p = transition_matrix(g)
    assert (_outcome(stationary, p, max_iterations=budget)
            == _outcome(_old_stationary, p, max_iterations=budget))
    # the plan the baseline solve builds, without iterating to convergence
    plan = surfer._censor(p.entries)[0] if chain_period(p.entries) == 1 else None
    q = transition_matrix(_reweighted(g, seed))
    assert (_outcome(stationary, q, max_iterations=budget, plan=plan)
            == _outcome(_old_stationary, q, max_iterations=budget))
    try:
        reused = stationary(q, max_iterations=budget, plan=plan).plan
    except (ConvergenceError, PeriodicChainError):
        reused = None
    assert reused is None or reused is plan


@settings(max_examples=150, deadline=None)
@given(censorable_graphs(), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 20, 5000]))
def test_planned_solve_matches_the_old_solve(g, seed, budget):
    _assert_plans_match_the_old_solve(g, seed, budget)


def _period_three_graph():
    return WeightedDigraph.from_edges(4, [0, 0, 1, 3, 2], [1, 3, 2, 2, 0])


def _period_two_graph():
    n = 8
    return WeightedDigraph.from_edges(
        n, list(range(n)) + [0, 2, 5], [(i + 1) % n for i in range(n)] + [3, 7, 0])


@pytest.mark.parametrize("make", [
    _censored_periodic_graph, _deep_chain_graph, _pure_cycle_graph, make_t4,
    _multi_link_graph, _merged_links_graph, _period_three_graph, _period_two_graph])
@pytest.mark.parametrize("budget", [DEFAULT_MAX_ITERATIONS, 1, 3])
def test_planned_solve_matches_the_old_solve_on_fixed_examples(make, budget):
    _assert_plans_match_the_old_solve(make(), 5, budget)


def test_q_holds_each_kept_link_in_p_order():
    chain = transition_matrix(_merged_links_graph())
    p = chain.entries
    plan, q = surfer._censor(p)
    # column by column, Q's entries are the kept page's links in P's order,
    # each moved to the row of its target's jump, with P's weight
    for col, page in enumerate(np.flatnonzero(~plan.single)):
        links = slice(p.indptr[page], p.indptr[page + 1])
        entries = slice(q.indptr[col], q.indptr[col + 1])
        assert q.indices[entries].tolist() == plan.to_s[p.indices[links]].tolist()
        assert q.data[entries].tobytes() == p.data[links].tobytes()
    # 4 links land on each entry of a row of 48 links
    assert max(Counter(zip(column_of_entries(q).tolist(), q.indices.tolist())).values()) == 4
    assert np.bincount(q.indices).max() == 48
    assert _outcome(stationary, chain) == _outcome(_old_stationary, chain)


def _owned_arrays(plan):
    """The index arrays a plan holds besides P's ``indptr`` and ``indices``."""
    to_s = [] if plan.to_s is None else [plan.to_s]
    return to_s + [*plan.levels]


def _assert_csc_q_is_the_old_q(g, seed):
    p = transition_matrix(g)
    plan, _ = surfer._censor(p.entries)
    assert all(a.dtype == p.entries.indices.dtype for a in _owned_arrays(plan))
    # Q from the baseline's weights, and from new weights on the same links
    for chain in (p, transition_matrix(_reweighted(g, seed))):
        q, (old_q, _) = surfer._censored(plan, chain.entries), _old_censor(chain.entries)
        if plan.to_s is None:
            assert q is chain.entries and old_q is chain.entries
            continue
        assert isinstance(q, csc_array)
        q_rows = q.tocsr()
        assert q_rows.indptr.tobytes() == old_q.indptr.tobytes()
        assert q_rows.indices.tobytes() == old_q.indices.tobytes()
        assert q_rows.data.tobytes() == old_q.data.tobytes()


@settings(max_examples=150, deadline=None)
@given(censorable_graphs(), st.integers(0, 2**32 - 1))
def test_censored_chain_is_the_old_q_in_csc_form(g, seed):
    _assert_csc_q_is_the_old_q(g, seed)


@pytest.mark.parametrize("make", [
    _censored_periodic_graph, _deep_chain_graph, _pure_cycle_graph, make_t4,
    _multi_link_graph, _merged_links_graph, _period_three_graph, _period_two_graph])
def test_censored_chain_is_the_old_q_in_csc_form_on_fixed_examples(make):
    _assert_csc_q_is_the_old_q(make(), 5)


@settings(max_examples=150, deadline=None)
@given(censorable_graphs(), st.integers(0, 2**32 - 1))
@example(_censored_periodic_graph(), 5)
@example(_deep_chain_graph(), 5)
@example(_pure_cycle_graph(), 5)
@example(make_t4(), 5)
@example(_multi_link_graph(), 5)
@example(_merged_links_graph(), 5)
@example(_period_three_graph(), 5)
@example(_period_two_graph(), 5)
def test_censored_chain_is_stochastic_with_an_entry_per_kept_link(g, seed):
    # what the power loop relies on in Q, as built and as rebuilt from new
    # weights: every column sums to 1, and each link out of a kept page is
    # an entry of its own
    p = transition_matrix(g).entries
    plan, q = surfer._censor(p)
    kept_links = np.count_nonzero(~plan.single[column_of_entries(p)])
    for chain in (q, surfer._censored(plan, transition_matrix(_reweighted(g, seed)).entries)):
        assert chain.nnz == kept_links
        assert np.max(np.abs(chain.sum(axis=0) - 1.0)) <= 1e-12


def test_plan_arrays_do_not_grow():
    # the baseline's plan is held for a whole sweep
    plan, _ = surfer._censor(transition_matrix(scale_free_graph(50_000, seed=1)).entries)
    assert plan.single.nbytes + sum(a.nbytes for a in _owned_arrays(plan)) <= 352_808


def test_levels_hold_pages_deepest_first_ascending_within_a_depth():
    single = np.array([True, False, True, True, True, False, True])
    depth = np.array([2, 0, 1, 3, 2, 0, 1], dtype=np.int32)
    levels = surfer._levels(single, depth)
    assert [level.tolist() for level in levels] == [[3], [0, 4], [2, 6]]
    assert all(level.dtype == np.int32 for level in levels)


def test_building_a_plan_makes_no_csr_copy_of_p(monkeypatch):
    converted, tocsr = [], csc_array.tocsr

    def spy(self, *args, **kwargs):
        converted.append(self.shape)
        return tocsr(self, *args, **kwargs)

    p = transition_matrix(_deep_chain_graph()).entries
    monkeypatch.setattr(csc_array, "tocsr", spy)
    plan, q = surfer._censor(p)
    assert converted == []
    # Q's diagonal entry settles its period, so the search needs no rows
    assert plan.levels and q.diagonal()[0] > 0


def _synth_run(seed=2):
    g = scale_free_graph(400, seed=seed)
    base = stationary(transition_matrix(g))
    t = np.zeros(g.n)
    t[np.random.default_rng(seed).choice(g.n, 20, replace=False)] = 1.0
    return g, base, t


def test_a_plan_for_other_links_is_not_reused():
    g, base, t = _synth_run()
    inserted = insert_links(g, t, base.pi, 30)
    p = transition_matrix(inserted)
    assert not base.plan.fits(p.entries)
    res = stationary(p, plan=base.plan)
    assert res.plan is not base.plan
    assert _outcome(stationary, p, plan=base.plan) == _outcome(stationary, p)


def test_a_combined_run_that_inserts_nothing_reuses_the_plan():
    g, base, t = _synth_run()
    modified, budget = combine(g, t, base.pi, 3.0, 1.0, np.random.default_rng(0))
    assert budget.inserted_count == 0 and budget.biased_weight > 0
    p = transition_matrix(modified)
    assert stationary(p, plan=base.plan).plan is base.plan
    assert _outcome(stationary, p, plan=base.plan) == _outcome(_old_stationary, p)


def test_a_periodic_chain_raises_before_any_plan_is_built(monkeypatch):
    def build(matrix):
        raise AssertionError("a plan was built for a periodic chain")

    monkeypatch.setattr(surfer, "_censor", build)
    for make, period in ((_period_three_graph, 3), (_period_two_graph, 2)):
        with pytest.raises(PeriodicChainError) as err:
            stationary(transition_matrix(make()))
        assert err.value.period == period


def test_a_diagonal_entry_answers_the_period_before_the_search(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the breadth-first search ran")

    # the 3-cycle 0 -> 1 -> 2 -> 0 with a self-loop on page 1
    assert chain_period(_csr([1, 2, 0, 1], [0, 1, 2, 1], np.ones(4), n=3)) == 1
    monkeypatch.setattr(surfer, "breadth_first_order", search)
    plan, q = surfer._censor(transition_matrix(_deep_chain_graph()).entries)
    # page 0 gains a self-loop, so Q is aperiodic without a search
    assert plan.to_s is not None and q.diagonal()[0] > 0


# ----------------------------------------------------- the power loop's product

def _synth_chain():
    return scale_free_graph(3000, seed=5)


def _insertion_chain():
    g = _synth_chain()
    base = stationary(transition_matrix(g))
    t = np.zeros(g.n)
    t[np.random.default_rng(5).choice(g.n, 50, replace=False)] = 1.0
    return insert_links(g, t, base.pi, 200)


def _csc_power_iteration(matrix, v, tolerance, steps, history):
    """The power loop as it multiplied by the CSC matrix itself."""
    for _ in range(steps):
        v_next = matrix @ v
        history.append(float(np.abs(v_next - v).sum()))
        v = v_next
        if history[-1] < tolerance:
            return v / v.sum(), True
    return v / v.sum(), False


@pytest.mark.parametrize("make", [_merged_links_graph, _synth_chain, _insertion_chain])
def test_the_entry_order_product_is_the_csc_product(make):
    p = transition_matrix(make()).entries
    _, q = surfer._censor(p)
    assert isinstance(q, csc_array) and q.shape[0] < p.shape[0]
    v = np.random.default_rng(0).random(q.shape[0])
    assert (q.tocoo(copy=False) @ v).tobytes() == (q @ v).tobytes()
    runs = []
    for loop in (_power_iteration, _csc_power_iteration):
        history = []
        y, done = loop(q, np.full(q.shape[0], 1.0 / q.shape[0]),
                       DEFAULT_TOLERANCE, DEFAULT_MAX_ITERATIONS, history)
        runs.append((y.tobytes(), done, history))
    assert runs[0] == runs[1] and runs[0][1]


def _csc_products(monkeypatch):
    """``(shape, operand is sparse)`` of every CSC product from now on."""
    products, matmul = [], csc_array.__matmul__

    def counted(self, other):
        products.append((self.shape, issparse(other)))
        return matmul(self, other)

    monkeypatch.setattr(csc_array, "__matmul__", counted)
    return products


def test_an_aperiodic_solve_multiplies_by_p_twice(monkeypatch):
    p = transition_matrix(scale_free_graph(300, seed=2))
    products = _csc_products(monkeypatch)
    res = stationary(p)
    assert res.plan.levels and res.iterations > 1
    # the recovery's product, then the certificate's ||P pi - pi||
    assert [shape for shape, sparse in products if not sparse] == [p.entries.shape] * 2


def test_q_is_built_once_per_solve_with_no_sparse_product(monkeypatch):
    g = scale_free_graph(300, seed=2)
    products, built, censored = _csc_products(monkeypatch), [], surfer._censored

    def spy(plan, matrix):
        built.append(plan)
        return censored(plan, matrix)

    monkeypatch.setattr(surfer, "_censored", spy)
    fresh = stationary(transition_matrix(g))
    assert fresh.plan.to_s is not None and built == [fresh.plan]
    reused = stationary(transition_matrix(_reweighted(g, 3)), plan=fresh.plan)
    assert reused.plan is fresh.plan and built == [fresh.plan] * 2
    assert not any(sparse for _, sparse in products)
