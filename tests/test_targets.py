"""Target sampling, seed derivation, rounding rules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from navsteer import (
    TargetSet,
    ValidationError,
    sample_target_sets,
    target_set_size,
    target_vector,
    write_targets_csv,
)
from navsteer.util import derive_seed, round_half_up

from conftest import make_t4, random_scc_graph


@pytest.mark.parametrize("x,expected", [
    (0.5, 1), (1.5, 2), (2.5, 3),   # halves always round up, no banker's rule
    (2.4999, 2), (0.0, 0), (3.0, 3),
])
def test_round_half_up(x, expected):
    assert round_half_up(x) == expected


def test_target_set_size_examples():
    assert target_set_size(0.01, 9799) == 98     # 97.99 rounds up
    assert target_set_size(0.1, 4) == 1
    assert target_set_size(1.0, 7) == 7
    # tiny fractions still select at least one node
    assert target_set_size(0.0001, 10) == 1


@pytest.mark.parametrize("phi", [0.0, -0.1, 1.5])
def test_target_set_size_rejects_bad_phi(phi):
    with pytest.raises(ValidationError):
        target_set_size(phi, 10)


def test_sample_targets_members_sorted_unique():
    g = make_t4()
    for ts in sample_target_sets(g, 0.5, 20, master_seed=0):
        assert list(ts.members) == sorted(set(ts.members))
        assert len(ts.members) == 2
        assert all(0 <= i < 4 for i in ts.members)


def test_sample_targets_realized_phi():
    rng = np.random.default_rng(1)
    g = random_scc_graph(rng, 7)
    (ts,) = sample_target_sets(g, 0.5, 1, master_seed=2)
    # requested 0.5 of 7 nodes -> 4 members -> realized 4/7
    assert len(ts.members) == 4


def test_sample_target_sets_deterministic():
    g = make_t4()
    a = sample_target_sets(g, 0.5, 5, master_seed=99)
    b = sample_target_sets(g, 0.5, 5, master_seed=99)
    assert [x.members for x in a] == [y.members for y in b]
    assert [x.sample_id for x in a] == list(range(5))
    c = sample_target_sets(g, 0.5, 5, master_seed=100)
    assert [x.members for x in a] != [z.members for z in c]


def test_sample_k_does_not_depend_on_the_sample_count():
    g = random_scc_graph(np.random.default_rng(3), 12)
    for phi in (0.1, 0.25, 0.5):
        assert (sample_target_sets(g, phi, 3, master_seed=5)
                == sample_target_sets(g, phi, 5, master_seed=5)[:3])


def test_sampling_is_uniform():
    # every node should be picked with frequency ~ phi
    g = make_t4()
    counts = np.zeros(4)
    n_samples = 4000
    for ts in sample_target_sets(g, 0.25, n_samples, master_seed=7):
        counts[list(ts.members)] += 1
    freq = counts / n_samples
    assert np.all(np.abs(freq - 0.25) < 0.02)


def test_target_set_validation():
    with pytest.raises(ValidationError):
        TargetSet(members=(), sample_id=0)
    with pytest.raises(ValidationError):
        TargetSet(members=(3, 1), sample_id=0)
    with pytest.raises(ValidationError):
        TargetSet(members=(1, 1), sample_id=0)


def test_target_vector_from_set_and_sequence():
    g = make_t4()
    ts = TargetSet(members=(0, 3), sample_id=0)
    v = target_vector(ts, 4)
    assert np.array_equal(v, [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(target_vector([1], 4), [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        target_vector([4], 4)


def test_derive_seed_deterministic_and_sensitive():
    assert derive_seed(1, "targets", 0.1) == derive_seed(1, "targets", 0.1)
    assert derive_seed(1, "targets", 0.1) != derive_seed(2, "targets", 0.1)
    assert derive_seed(1, "targets", 0.1) != derive_seed(1, "combine", 0.1)
    # component order and type both matter
    assert derive_seed("a", "b") != derive_seed("b", "a")
    assert derive_seed(1) != derive_seed(1.0)


@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                          st.floats(allow_nan=False),
                          st.text(max_size=8)),
                min_size=1, max_size=4))
def test_derive_seed_range(components):
    s = derive_seed(*components)
    assert 0 <= s < 2**64


def test_write_targets_csv(tmp_path):
    g = make_t4()
    sets = sample_target_sets(g, 0.5, 2, master_seed=3)
    path = tmp_path / "targets.csv"
    write_targets_csv(sets, g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,node_index,label"
    assert len(lines) == 1 + sum(len(ts.members) for ts in sets)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == g.node_labels[int(first[1])]
