"""Synthetic scale-free graph generator."""

import numpy as np
import pytest

from navsteer import ValidationError, stationary, transition_matrix
from navsteer.cli import main
from navsteer.graph import largest_scc
from navsteer.synth import scale_free_graph

from conftest import largest_scc_members_oracle


def test_generated_graph_is_strongly_connected():
    g = scale_free_graph(300, seed=4)
    sub, kept = largest_scc(g)
    assert sub.n == g.n
    assert kept.tolist() == list(range(g.n))


def test_strong_connectivity_against_oracle():
    # brute-force closure is O(n^3), keep it small
    g = scale_free_graph(40, seed=9)
    assert largest_scc_members_oracle(g) == set(range(40))


def test_power_iteration_converges_on_generated_graph():
    g = scale_free_graph(500, seed=1)
    res = stationary(transition_matrix(g))
    assert res.residual < 1e-12
    assert np.isclose(res.pi.sum(), 1.0)


def test_deterministic_per_seed():
    a = scale_free_graph(200, seed=5)
    b = scale_free_graph(200, seed=5)
    c = scale_free_graph(200, seed=6)
    assert (a.adjacency != b.adjacency).nnz == 0
    assert (a.adjacency != c.adjacency).nnz != 0


def test_total_weight_tracks_requested_degree():
    n, avg = 1000, 3.0
    g = scale_free_graph(n, avg_degree=avg, seed=2)
    # self-loop draws are discarded, so the total can fall slightly short
    assert n * avg * 0.98 <= g.total_weight() <= n * avg


def test_labels_and_node_count():
    g = scale_free_graph(50, seed=0)
    assert g.n == 50
    assert g.node_labels[0] == "n0"
    assert g.node_labels[-1] == "n49"


def test_in_weight_is_heavy_tailed():
    g = scale_free_graph(2000, seed=3)
    w_in = np.sort(g.in_weights())[::-1]
    top_share = w_in[:20].sum() / w_in.sum()
    # top 1% of pages should attract far more than 1% of the weight
    assert top_share > 0.03


@pytest.mark.parametrize("kwargs", [
    {"n": 1},
    {"n": 10, "avg_degree": 0.5},
    {"n": 10, "exponent": 1.0},
    {"n": 10, "avg_degree": float("nan")},
    {"n": 10, "avg_degree": float("inf")},
    {"n": 10, "exponent": float("nan")},
    {"n": 10, "seed": -1},
    {"n": 10, "avg_degree": 1e300},
    {"n": 10, "avg_degree": 1e12},
])
def test_parameter_validation(kwargs):
    with pytest.raises(ValidationError):
        scale_free_graph(**kwargs)


def test_infinite_exponent_means_uniform_popularity():
    g = scale_free_graph(50, seed=0, exponent=float("inf"))
    assert g.n == 50


@pytest.mark.parametrize("option", [
    ["--seed", "-1"],
    ["--avg-degree", "nan"],
    ["--avg-degree", "inf"],
    ["--exponent", "nan"],
])
def test_cli_rejects_bad_parameters_without_writing(tmp_path, capsys, option):
    out = tmp_path / "out.tsv"
    assert main(["synth", str(out), "-n", "50", *option]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("avg_degree", ["1e300", "1e12"])
def test_cli_rejects_more_links_than_int32_indices_hold(tmp_path, capsys, avg_degree):
    # 1e300 overflowed a float-to-int conversion, 1e12 asked numpy for 72.8 TiB
    out = tmp_path / "s.tsv"
    assert main(["synth", str(out), "-n", "10", "--avg-degree", avg_degree]) == 2
    assert "must not exceed 2**31 - 1 links" in capsys.readouterr().err
    assert not out.exists()
