"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms: the
stationary oracle is a dense linear solve, the component oracle is a
boolean transitive closure. Tests compare the fast implementations
against these slow-but-obvious references.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from navsteer import WeightedDigraph

# the identity set solves this graph too, so both read one definition
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from identity import _merged_links_graph  # noqa: E402

# Four-page toy site: p1->p4, p2->p1, p2->p3, p3->p2, p3->p4, p4->p2.
# Its stationary vector is (2, 4, 2, 3) / 11.
T4_SOURCES = (0, 1, 1, 2, 2, 3)
T4_DESTINATIONS = (3, 0, 2, 1, 3, 1)
T4_PI = np.array([2.0, 4.0, 2.0, 3.0]) / 11.0


def make_t4() -> WeightedDigraph:
    return WeightedDigraph.from_edges(
        4, T4_SOURCES, T4_DESTINATIONS,
        node_labels=("p1", "p2", "p3", "p4"))


@pytest.fixture
def t4() -> WeightedDigraph:
    return make_t4()


def weight_delta(original: WeightedDigraph, modified: WeightedDigraph) -> float:
    """Realized budget of a modification: total weight added to the graph."""
    return modified.total_weight() - original.total_weight()


def read_crlf(path) -> list[str]:
    """Lines of a CSV report split on CRLF (read_text would fold them away)."""
    return path.read_bytes().decode("utf-8").split("\r\n")


def dense_stationary(g: WeightedDigraph) -> np.ndarray:
    """Stationary vector by dense linear algebra, no iteration.

    Solves (P - I) pi = 0 with one row replaced by the normalization
    constraint sum(pi) = 1.
    """
    w = g.adjacency.toarray()
    col = w.sum(axis=0)
    assert np.all(col > 0), "oracle requires every node to have out-links"
    p = w / col
    a = p - np.eye(g.n)
    a[-1, :] = 1.0
    rhs = np.zeros(g.n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def scc_partition(g: WeightedDigraph) -> list[set[int]]:
    """All strongly connected components via boolean transitive closure."""
    n = g.n
    # adjacency[i, j] > 0 is a link j -> i; orientation cancels out in
    # mutual reachability, but keep it explicit anyway.
    step = (g.adjacency.toarray() > 0).T
    reach = step | np.eye(n, dtype=bool)
    while True:
        grown = reach | (reach @ reach)
        if (grown == reach).all():
            break
        reach = grown
    mutual = reach & reach.T
    seen: set[int] = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        comp = set(np.nonzero(mutual[i])[0].tolist())
        seen |= comp
        comps.append(comp)
    return comps


def largest_scc_members_oracle(g: WeightedDigraph) -> set[int]:
    """Largest component, ties broken toward the lowest original index."""
    comps = scc_partition(g)
    return max(comps, key=lambda c: (len(c), -min(c)))


def random_scc_graph(rng: np.random.Generator, n: int,
                     extra: int | None = None,
                     integer_weights: bool = False) -> WeightedDigraph:
    """Strongly connected, aperiodic random graph.

    A spanning cycle guarantees strong connectivity; the 0->2 chord gives
    two cycle lengths n and n-1 whose gcd is 1, so power iteration is
    guaranteed to converge.
    """
    assert n >= 3
    if extra is None:
        # at least n chords: a bare ring with one shortcut mixes too slowly
        # for the default iteration cap at tight tolerances
        extra = int(rng.integers(n, 4 * n))
    src = list(range(n)) + [0]
    dst = [(i + 1) % n for i in range(n)] + [2]
    if extra:
        s = rng.integers(0, n, size=extra)
        d = rng.integers(0, n, size=extra)
        keep = s != d
        src += s[keep].tolist()
        dst += d[keep].tolist()
    if integer_weights:
        w = rng.integers(1, 10, size=len(src)).astype(np.float64)
    else:
        w = rng.uniform(0.1, 5.0, size=len(src))
    return WeightedDigraph.from_edges(n, src, dst, w)
