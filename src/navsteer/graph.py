"""Weighted directed graphs backed by sparse adjacency matrices.

Convention used throughout the package: ``adjacency[i, j]`` holds the total
weight of links pointing from node ``j`` to node ``i``. Columns therefore
describe a node's outgoing links and rows its incoming links.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy.sparse import coo_array, csc_array
from scipy.sparse.csgraph import connected_components

from .errors import EdgeListParseError, EmptyGraphError, ValidationError
from .util import write_json

logger = logging.getLogger(__name__)

METADATA_SUFFIX = ".meta.json"


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Immutable weighted digraph.

    ``adjacency`` is a CSC matrix so a node's out-links (one column) are
    retrievable in time proportional to its out-degree. Stored weights are
    strictly positive and the diagonal is empty (no self-loops). A graph
    built without ``node_labels`` labels each node by its index. The graph
    fixes the matrix's form, so no caller has to: canonical (duplicates
    summed, indices sorted), with int32 index arrays whenever they fit.
    """

    n: int
    adjacency: csc_array
    node_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValidationError(
                f"adjacency shape {a.shape} does not match n={self.n}")
        index = np.int32 if max(a.nnz, self.n) <= np.iinfo(np.int32).max else np.int64
        if a.indices.dtype != index:  # scipy keeps indptr of the same type
            a = csc_array((a.data, a.indices.astype(index), a.indptr.astype(index)),
                          shape=a.shape)
            object.__setattr__(self, "adjacency", a)
        a.sum_duplicates()
        if self.node_labels is None:
            object.__setattr__(self, "node_labels",
                               tuple(map(str, range(self.n))))
        if len(self.node_labels) != self.n:
            raise ValidationError("node_labels length does not match n")
        if a.nnz:
            if not np.all(np.isfinite(a.data)):
                raise ValidationError("adjacency weights must be finite")
            if np.any(a.data <= 0):
                raise ValidationError("stored adjacency weights must be positive")
            if np.any(a.indices == column_of_entries(a)):
                raise ValidationError("adjacency must not contain self-loops")

    @classmethod
    def from_edges(
        cls,
        n: int,
        sources: Iterable[int],
        destinations: Iterable[int],
        weights: Iterable[float] | None = None,
        node_labels: tuple[str, ...] | None = None,
    ) -> "WeightedDigraph":
        """Build a graph from parallel edge arrays, summing duplicate links.

        Self-loops are dropped (with a counted warning) and zero-weight
        entries are eliminated, matching the edge-list loading rules.
        """
        src, dst = _as_array(sources, np.int64), _as_array(destinations, np.int64)
        w = (np.ones(len(src)) if weights is None
             else _as_array(weights, np.float64))
        if not (len(src) == len(dst) == len(w)):
            raise ValidationError("edge arrays must have equal length")
        if len(w) and (not np.all(np.isfinite(w)) or np.any(w < 0)):
            raise ValidationError("edge weights must be finite and non-negative")
        loops = src == dst
        dropped = int(loops.sum())
        if dropped:
            logger.warning("dropped %d self-loop link(s)", dropped)
            keep = ~loops
            src, dst, w = src[keep], dst[keep], w[keep]
        # converting to CSC sums duplicate links
        adj = coo_array((w, (dst, src)), shape=(n, n)).tocsc()
        adj.eliminate_zeros()
        return cls(n=n, adjacency=adj, node_labels=node_labels)

    def out_weights(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=0)).ravel()

    def in_weights(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def total_weight(self) -> float:
        return float(self.adjacency.data.sum())

    def edge_count(self) -> int:
        return int(self.adjacency.nnz)

    def label_index(self) -> dict[str, int]:
        """Map from node label to internal index (built on demand)."""
        return {lab: i for i, lab in enumerate(self.node_labels)}

    def with_adjacency(self, adjacency: csc_array) -> "WeightedDigraph":
        """A copy of this graph with a replaced adjacency matrix."""
        return WeightedDigraph(n=self.n, adjacency=adjacency,
                               node_labels=self.node_labels)


def _as_array(values: Iterable, dtype) -> np.ndarray:
    return np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=dtype)


def column_of_entries(a: csc_array) -> np.ndarray:
    """Column index of every stored entry of a CSC matrix."""
    return np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))


def read_lines(source: str | Path | IO[str]) -> Iterator[str]:
    """Raw lines of a UTF-8 text file or of an open text stream.

    A leading byte-order mark is dropped. A file that is not UTF-8 raises
    :class:`EdgeListParseError` naming its first bad line and the file.
    """
    if hasattr(source, "read"):
        yield from source
        return
    # utf-8-sig drops a leading byte-order mark, which would otherwise
    # become part of the first node label
    try:
        with open(source, "r", encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        # only this path rereads the file. bytes.splitlines breaks lines
        # where text mode does, and a line changes on a decode-with-
        # replacement round trip exactly when it is not valid UTF-8
        with open(source, "rb") as fh:
            lines = fh.read().splitlines()
        bad = next((lineno for lineno, line in enumerate(lines, start=1)
                    if line.decode("utf-8", "replace").encode("utf-8") != line),
                   None)
        raise EdgeListParseError(f"not valid UTF-8 ({exc.reason}) in {source}",
                                 line_number=bad) from None


def load_edge_list(source: str | Path | IO[str]) -> WeightedDigraph:
    """Parse a tab-separated edge list into a :class:`WeightedDigraph`.

    Each data line is ``source<TAB>destination[<TAB>weight]`` with weight
    defaulting to 1.0. Lines whose first non-blank character is ``#`` and
    blank lines are skipped. Node identifiers are arbitrary strings and are
    assigned dense indices in order of first appearance. Parallel links are
    summed; self-loops are dropped with a counted warning. Files are read
    as UTF-8, ignoring a leading byte-order mark. Malformed lines, and
    lines that are not UTF-8, raise :class:`EdgeListParseError` carrying
    the 1-based line number.
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []

    def node_id(label: str) -> int:
        idx = index.get(label)
        if idx is None:
            idx = len(labels)
            index[label] = idx
            labels.append(label)
        return idx

    for lineno, raw in enumerate(read_lines(source), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise EdgeListParseError(
                f"expected 2 or 3 tab-separated fields, got {len(fields)}",
                line_number=lineno)
        src_label, dst_label = fields[0], fields[1]
        if not src_label or not dst_label:
            raise EdgeListParseError("empty node identifier", line_number=lineno)
        if len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise EdgeListParseError(
                    f"weight {fields[2]!r} is not a number", line_number=lineno)
            if not math.isfinite(weight):
                raise EdgeListParseError(
                    f"weight {fields[2]!r} is not finite", line_number=lineno)
            if weight < 0:
                raise EdgeListParseError(
                    f"weight {weight} is negative", line_number=lineno)
        else:
            weight = 1.0
        srcs.append(node_id(src_label))
        dsts.append(node_id(dst_label))
        wts.append(weight)

    return WeightedDigraph.from_edges(
        n=len(labels), sources=srcs, destinations=dsts, weights=wts,
        node_labels=tuple(labels))


def _write_order(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Permutation of the links ``src -> dst`` that makes reloading keep
    node indices.

    The loader numbers nodes by first appearance, so node j first shows up
    either beside a smaller-indexed neighbour or as the source of a fresh
    pair j -> j+1. Sorting links by their larger endpoint, with such a pair
    keyed to j instead, reproduces that order; ties sort by (src, dst).
    """
    key = np.maximum(src, dst)
    has_smaller = np.zeros(n, dtype=bool)
    has_smaller[key] = True
    fresh_pair = (dst == src + 1) & ~has_smaller[src]
    key[fresh_pair] = src[fresh_pair]
    degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    linkless = np.flatnonzero(degree == 0)
    if linkless.size:
        logger.warning(
            "%d node(s) without links cannot be represented in an edge list "
            "and were omitted: %s", linkless.size, linkless[:10].tolist())
    return np.lexsort((dst, src, key))


def _format_weight(w: float) -> str:
    # repr round-trips float64 exactly; integral weights print without ".0"
    return str(int(w)) if w == int(w) and abs(w) < 2 ** 53 else repr(w)


def write_edge_list(
    g: WeightedDigraph,
    path: str | Path,
    metadata: dict | None = None,
) -> Path:
    """Serialize a graph as a tab-separated edge list plus metadata sidecar.

    The sidecar (``<path>.meta.json``) records the package version, node
    count, total weight and any provenance entries passed by the caller.
    A graph whose total weight overflows float64 raises
    :class:`ValidationError` before any file is opened.

    Loading the written file gives back the same labels, links and weights;
    nodes without links cannot be written and are left out with a warning.
    Node indices come back identical too whenever every node links with a
    lower-indexed node or links to the next index. That holds for every
    graph loaded from a file without self-loop or zero-weight lines.
    """
    path = Path(path)
    with np.errstate(over="ignore"):
        total = g.total_weight()
    if not math.isfinite(total):
        raise ValidationError(
            f"cannot write {path}: total link weight overflows float64")
    a = g.adjacency
    src, dst = column_of_entries(a), a.indices
    order = _write_order(g.n, src, dst)
    labels = g.node_labels
    src, dst, wts = src[order].tolist(), dst[order].tolist(), a.data[order].tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{labels[s]}\t{labels[d]}\t{_format_weight(w)}\n"
                      for s, d, w in zip(src, dst, wts))
    write_json(Path(str(path) + METADATA_SUFFIX), {
        "nodes": g.n,
        "links": g.edge_count(),
        "total_weight": total,
        **(metadata or {}),
    })
    return path


def largest_scc(g: WeightedDigraph) -> tuple[WeightedDigraph, np.ndarray]:
    """Largest strongly connected component and its nodes' original indices.

    The indices ascend: node i of the component is node ``keep[i]`` of g.

    Component size ties break toward the component containing the lowest
    original index. Applying the operation to its own output is a no-op.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot extract a component from an empty graph")
    # SCCs are invariant under edge reversal, so the in-link orientation of
    # the adjacency does not matter here.
    _, labels = connected_components(
        g.adjacency, directed=True, connection="strong")
    # the first node in a largest component is the lowest-indexed one
    best = labels[np.argmax(np.bincount(labels)[labels])]
    keep = np.flatnonzero(labels == best)
    sub = g.adjacency[:, keep][keep]
    sub_labels = tuple(g.node_labels[i] for i in keep)
    return WeightedDigraph(n=len(keep), adjacency=sub, node_labels=sub_labels), keep

