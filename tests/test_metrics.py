import math
import warnings

import numpy as np
import pytest

from navsteer import (
    ValidationError,
    WeightedDigraph,
    energy,
    influence_potential,
    stationary,
    target_degrees,
    target_metrics,
    transition_matrix,
)
from navsteer.modify import click_bias

from conftest import T4_PI


def test_energy_is_target_mass(t4):
    t = np.array([1.0, 0.0, 0.0, 0.0])
    assert energy(T4_PI, t) == pytest.approx(2 / 11)
    assert energy(T4_PI, np.ones(4)) == pytest.approx(1.0)


def test_influence_potential_toy_case(t4):
    t = np.array([1.0, 0.0, 0.0, 0.0])
    before = stationary(transition_matrix(t4)).pi
    after = stationary(transition_matrix(click_bias(t4, t, 2.0))).pi
    tau = influence_potential(energy(before, t), energy(after, t))
    assert tau == pytest.approx(22 / 17, abs=1e-9)


def test_influence_potential_rejects_zero_baseline():
    with pytest.raises(ValidationError):
        influence_potential(0.0, 0.5)
    with pytest.raises(ValidationError):
        influence_potential(-0.1, 0.5)


def test_target_degrees_toy_values(t4):
    # p1 has one in-link (from p2) and one out-link (to p4)
    d_in, d_out, ratio = target_degrees(t4, np.array([1.0, 0, 0, 0]))
    assert (d_in, d_out, ratio) == (1.0, 1.0, 1.0)
    # p2: in from p3 and p4, out to p1 and p3
    d_in, d_out, ratio = target_degrees(t4, np.array([0, 1.0, 0, 0]))
    assert (d_in, d_out, ratio) == (2.0, 2.0, 1.0)


def test_target_degrees_sum_over_set(t4):
    d_in, d_out, ratio = target_degrees(t4, np.array([1.0, 1.0, 0, 0]))
    assert d_in == 3.0 and d_out == 3.0
    assert ratio == 1.0


def test_degree_ratio_infinite_when_no_in_links():
    # node 2 is a pure source: ratio is flagged infinite, not an error
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 0, 0])
    _, d_out, ratio = target_degrees(g, np.array([0, 0, 1.0]))
    assert d_out == 1.0
    assert math.isinf(ratio)


def test_target_degrees_reject_a_target_vector_that_selects_no_page(t4):
    with pytest.raises(ValidationError, match="target vector selects no nodes"):
        target_degrees(t4, np.zeros(4))


def test_a_non_target_weight_past_float64_does_not_reach_the_targets():
    # page 1's in-links sum past float64; page 0's in-weight is 1
    g = WeightedDigraph.from_edges(4, [0, 2, 3, 1, 1, 0], [1, 1, 1, 0, 2, 3],
                                   [1e308, 1e308, 1, 1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert target_degrees(g, np.array([1.0, 0, 0, 0])) == (1.0, 1e308, 1e308)


def test_target_metrics_composes(t4):
    t = np.array([1.0, 0.0, 0.0, 0.0])
    before = stationary(transition_matrix(t4)).pi
    after = stationary(transition_matrix(click_bias(t4, t, 2.0))).pi
    m = target_metrics(t4, t, before, after)
    assert m.energy_before == pytest.approx(2 / 11)
    assert m.energy_after == pytest.approx(4 / 17)
    assert m.influence_potential == pytest.approx(22 / 17)
    assert m.in_degree == 1.0
    assert m.out_degree == 1.0
    assert m.degree_ratio == 1.0


@pytest.mark.parametrize("make, message", [
    (lambda t4: energy(np.full(3, 1 / 3), np.ones(4)), "pi and t must have the same length"),
    (lambda t4: target_degrees(t4, np.ones(3)),
     "target vector length must equal the node count"),
])
def test_metrics_rejects_invalid_values(t4, make, message):
    with pytest.raises(ValidationError) as err:
        make(t4)
    assert message in str(err.value)
