import io
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_array

from navsteer import (
    EdgeListParseError,
    EmptyGraphError,
    WeightedDigraph,
    __version__,
    click_bias,
    combine,
    insert_links,
    load_edge_list,
    scale_free_graph,
    stationary,
    target_vector,
    transition_matrix,
    write_edge_list,
)
from navsteer.graph import largest_scc

from conftest import largest_scc_members_oracle, random_scc_graph


def test_from_edges_sums_parallel_links():
    g = WeightedDigraph.from_edges(2, [0, 0, 0], [1, 1, 1], [1.0, 2.5, 0.5])
    assert g.edge_count() == 1
    assert g.adjacency[1, 0] == 4.0


def test_from_edges_drops_self_loops_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="navsteer.graph"):
        g = WeightedDigraph.from_edges(3, [0, 1, 1, 2], [0, 2, 1, 0])
    assert g.edge_count() == 2
    assert "2 self-loop" in caplog.text


def test_from_edges_rejects_bad_weights():
    with pytest.raises(Exception):
        WeightedDigraph.from_edges(2, [0], [1], [-1.0])
    with pytest.raises(Exception):
        WeightedDigraph.from_edges(2, [0], [1], [float("nan")])


def test_load_basic_first_appearance_order():
    text = "b\ta\nc\tb\na\tc\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_labels == ("b", "a", "c")
    assert g.n == 3 and g.edge_count() == 3
    # unweighted lines default to weight 1
    assert g.total_weight() == 3.0


def test_load_weighted_with_comments_and_blanks():
    text = "# site snapshot\np1\tp2\t2\n\n  # indented comment\np2\tp1\t0.5\n"
    g = load_edge_list(io.StringIO(text))
    assert g.n == 2
    assert g.adjacency[1, 0] == 2.0
    assert g.adjacency[0, 1] == 0.5


def test_load_duplicate_lines_aggregate():
    g = load_edge_list(io.StringIO("a\tb\t1\na\tb\t2\n"))
    assert g.edge_count() == 1
    assert g.adjacency[1, 0] == 3.0


def test_load_self_loop_dropped(caplog):
    with caplog.at_level(logging.WARNING, logger="navsteer.graph"):
        g = load_edge_list(io.StringIO("a\ta\t5\na\tb\t1\n"))
    assert g.edge_count() == 1
    assert "self-loop" in caplog.text


@pytest.mark.parametrize("text,bad_line", [
    ("a\tb\nc\n", 2),                  # one field
    ("a\tb\tc\td\n", 1),               # four fields
    ("a\tb\theavy\n", 1),              # unparsable weight
    ("a\tb\t-1\n", 1),                 # negative weight
    ("x\ty\t1\na\tb\tinf\n", 2),       # non-finite weight
])
def test_load_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO(text))
    assert err.value.line_number == bad_line
    assert f"line {bad_line}:" in str(err.value)


def test_load_empty_input_gives_empty_graph():
    g = load_edge_list(io.StringIO(""))
    assert g.n == 0
    assert g.edge_count() == 0


def test_weighted_degrees_toy_values(t4):
    assert np.array_equal(t4.in_weights(), [1, 2, 1, 2])
    assert np.array_equal(t4.out_weights(), [1, 2, 2, 1])
    assert t4.total_weight() / t4.n == 6 / 4


def test_weight_conservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_scc_graph(rng, int(rng.integers(3, 40)))
        assert np.isclose(g.in_weights().sum(), g.total_weight())
        assert np.isclose(g.out_weights().sum(), g.total_weight())


def test_label_lookup(t4):
    assert t4.node_labels[2] == "p3"
    assert t4.label_index()["p4"] == 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30),
       integer_weights=st.booleans(), from_text=st.booleans())
def test_write_load_round_trip(tmp_path_factory, seed, n, integer_weights,
                               from_text):
    """Loading a written file reproduces indices, labels and weights.

    Inputs are spanning-cycle graphs, or graphs the loader builds from random
    edge-list text (shuffled labels, no self-loops), where a node need not
    link with its predecessor index.
    """
    rng = np.random.default_rng(seed)
    if from_text:
        labels = [f"page {k}" for k in rng.permutation(n)]
        m = int(rng.integers(1, 3 * n))
        src = rng.integers(0, n, size=m)
        dst = (src + rng.integers(1, n, size=m)) % n
        wts = (rng.integers(1, 5, size=m) if integer_weights
               else rng.uniform(0.1, 3.0, size=m))
        text = "".join(f"{labels[s]}\t{labels[d]}\t{w!r}\n"
                       for s, d, w in zip(src, dst, wts.tolist()))
        g = load_edge_list(io.StringIO(text))
    else:
        g = random_scc_graph(rng, n, integer_weights=integer_weights)
    path = tmp_path_factory.mktemp("rt") / "g.tsv"
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.n == g.n
    assert (g.adjacency != g2.adjacency).nnz == 0
    assert g2.node_labels == g.node_labels


def test_integer_weights_written_without_decimal(tmp_path):
    g = WeightedDigraph.from_edges(2, [0, 1], [1, 0], [2.0, 0.5])
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    body = path.read_text()
    assert "\t2\n" in body
    assert "\t0.5\n" in body


def test_write_omits_linkless_nodes_with_warning(tmp_path, caplog):
    g = WeightedDigraph.from_edges(3, [0, 2], [2, 0], node_labels=("a", "b", "c"))
    path = tmp_path / "g.tsv"
    with caplog.at_level(logging.WARNING, logger="navsteer.graph"):
        write_edge_list(g, path)
    assert "1 node(s) without links" in caplog.text
    assert load_edge_list(path).node_labels == ("a", "c")


def test_write_emits_metadata_sidecar(tmp_path, t4):
    import json
    path = tmp_path / "t4.tsv"
    write_edge_list(t4, path, metadata={"note": "toy"})
    meta = json.loads((tmp_path / "t4.tsv.meta.json").read_text())
    assert meta["nodes"] == 4
    assert meta["links"] == 6
    assert meta["total_weight"] == 6.0
    assert meta["note"] == "toy"
    assert meta["version"] == __version__        # stamped without being passed


def test_largest_scc_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 25))
        m = int(rng.integers(1, 3 * n))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        keep = src != dst
        if not keep.any():
            continue
        g = WeightedDigraph.from_edges(n, src[keep], dst[keep])
        sub, kept = largest_scc(g)
        assert set(kept.tolist()) == largest_scc_members_oracle(g)
        assert sub.n == len(kept)
        assert np.all(np.diff(kept) > 0)
        restricted = g.adjacency.tocsr()[kept][:, kept]
        assert (sub.adjacency != restricted).nnz == 0


def test_largest_scc_idempotent():
    rng = np.random.default_rng(3)
    g = random_scc_graph(rng, 15)
    sub, _ = largest_scc(g)
    again, kept = largest_scc(sub)
    assert again.n == sub.n
    assert (again.adjacency != sub.adjacency).nnz == 0
    assert kept.tolist() == list(range(sub.n))


def test_largest_scc_tie_breaks_toward_lowest_index():
    # two disjoint 2-cycles; sizes tie, the one holding node 0 wins
    g = WeightedDigraph.from_edges(4, [0, 1, 2, 3], [1, 0, 3, 2])
    sub, kept = largest_scc(g)
    assert kept.tolist() == [0, 1]


def test_largest_scc_tie_among_many_singletons():
    # 40 singleton pages around two disjoint 3-cycles; the cycle holding
    # the lower index wins
    n = 46
    src = [10, 11, 12, 30, 31, 32] + list(range(40, 45))
    dst = [11, 12, 10, 31, 32, 30] + list(range(41, 46))
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    g = WeightedDigraph.from_edges(n, perm[src], perm[dst])
    _, kept = largest_scc(g)
    assert set(kept.tolist()) == largest_scc_members_oracle(g)
    assert len(kept) == 3


def test_largest_scc_of_empty_graph_raises():
    g = load_edge_list(io.StringIO(""))
    with pytest.raises(EmptyGraphError):
        largest_scc(g)


def test_scc_preserves_labels_and_weights(t4):
    # t4 is already strongly connected, so reduction is the identity
    sub, kept = largest_scc(t4)
    assert sub.n == 4
    assert sub.node_labels == t4.node_labels
    assert (sub.adjacency != t4.adjacency).nnz == 0
    assert kept.tolist() == [0, 1, 2, 3]


def _unsorted_int64_adjacency():
    # column 0 lists row 2 twice and before row 1
    return csc_array((np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([2, 1, 2, 2, 0]),
                      np.array([0, 3, 4, 5])), shape=(3, 3))


def _built_graphs():
    """One graph from every constructor and strategy that makes one."""
    text = "a\tb\na\tb\t2\nb\tc\nc\ta\nc\tb\n"
    loaded = load_edge_list(io.StringIO(text))
    synth = scale_free_graph(200, seed=4)
    t = target_vector([1, 5], synth.n)
    pi = stationary(transition_matrix(synth)).pi
    return {
        "load_edge_list": loaded,
        "from_edges": WeightedDigraph.from_edges(3, [0, 0, 1, 2], [1, 1, 2, 0]),
        "largest_scc": largest_scc(load_edge_list(io.StringIO(text + "c\td\n")))[0],
        "scale_free_graph": synth,
        "click_bias": click_bias(synth, t, 3.0),
        "insert_links": insert_links(synth, t, pi, 40)[0],
        "combine": combine(synth, t, pi, 3.0, 0.5, np.random.default_rng(0))[0],
        "constructor": WeightedDigraph(3, _unsorted_int64_adjacency()),
    }


@pytest.mark.parametrize("name", sorted(_built_graphs()))
def test_every_graph_fixes_its_sparse_form(name):
    g = _built_graphs()[name]
    assert g.adjacency.indices.dtype == np.int32
    assert g.adjacency.indptr.dtype == np.int32
    assert g.adjacency.has_canonical_format
    p = transition_matrix(g).entries
    assert p.indices.dtype == np.int32 and p.indptr.dtype == np.int32


def test_constructor_sums_duplicates_and_sorts():
    a = WeightedDigraph(3, _unsorted_int64_adjacency()).adjacency
    assert a.indices.tolist() == [1, 2, 2, 0]
    assert a.indptr.tolist() == [0, 2, 3, 4]
    assert a.data.tolist() == [2.0, 4.0, 4.0, 5.0]
