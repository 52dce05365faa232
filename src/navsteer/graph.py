"""Weighted directed graphs backed by sparse adjacency matrices.

Convention used throughout the package: ``adjacency[i, j]`` holds the total
weight of links pointing from node ``j`` to node ``i``. Columns therefore
describe a node's outgoing links and rows its incoming links.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy.sparse import coo_array, csc_array
from scipy.sparse.csgraph import connected_components

from .errors import EdgeListParseError, EmptyGraphError, ValidationError
from .util import blocks, write_json

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

    def with_weights(self, data: np.ndarray) -> "WeightedDigraph":
        """This graph's links with new weights ``data``, in stored order."""
        a = self.adjacency
        adj = csc_array((data, a.indices, a.indptr), shape=a.shape)
        adj.has_canonical_format = True  # the same links need no re-check
        return self.with_adjacency(adj)


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

    A data line is ``source<TAB>destination[<TAB>weight]`` ending in LF or
    CRLF. Blank lines are skipped, and so are lines whose first non-blank
    character is ``#`` (``a#1`` is a label). Labels are non-empty, keep their
    spaces and are numbered in order of first appearance. A weight is what
    Python's ``float`` reads (``2.5``, ``1e-3``, ``" 2 "``), finite and >= 0,
    1.0 if absent. Parallel links are summed; self-loops are dropped with a
    counted warning. Input is UTF-8, a leading byte-order mark ignored. Bad
    lines, and lines that are not UTF-8, raise :class:`EdgeListParseError`
    carrying the 1-based line number.
    """
    index: dict[str, int] = {}
    ids, weights = [np.empty(0, np.int64)], [np.empty(0)]
    first = 1
    for lines in blocks(read_lines(source)):
        ends, w = _bulk_columns(lines) or _raise_first_error(lines, first)
        first += len(lines)
        # labels new to this block, in order of first appearance
        fresh = [label for label in dict.fromkeys(ends) if label not in index]
        index.update(zip(fresh, count(len(index))))
        ids.append(np.fromiter(map(index.__getitem__, ends), np.int64, len(ends)))
        weights.append(w)
        del lines, ends  # so the next block is built without this one
    ids = np.concatenate(ids)
    return WeightedDigraph.from_edges(
        n=len(index), sources=ids[0::2], destinations=ids[1::2],
        weights=np.concatenate(weights), node_labels=tuple(index))


def _bulk_columns(lines: list[str]) -> tuple[list[str], np.ndarray] | None:
    """Labels (source, destination, interleaved) and weights of a block of
    lines, split in one pass after dropping blank and comment lines and
    cutting CR line ends if a cheap test finds any; None if the block holds
    a bad line."""
    text = "".join(lines)
    if "#" in text or "\r" in text or not all(map(str.strip, lines)):
        lines = [line.rstrip("\r\n") + "\n" if "\r" in line else line
                 for line in lines
                 if line.strip() and not line.lstrip().startswith("#")]
        text = "".join(lines)
    tabs = [line.count("\t") for line in lines]
    if not set(tabs) <= {1, 2}:
        return None
    if 1 in tabs:
        text = "".join([line.rstrip("\n") + "\t1\n" if k == 1 else line
                        for line, k in zip(lines, tabs)])
    fields = text.replace("\n", "\t").split("\t")
    del text, fields[3 * len(lines):]  # the field after a final \n
    try:
        w = np.fromiter(map(float, fields[2::3]), np.float64, len(lines))
    except ValueError:
        return None
    if "" in fields or not np.all(np.isfinite(w) & (w >= 0)):
        return None
    del fields[2::3]
    return fields, w


def _raise_first_error(lines: list[str], first: int) -> None:
    """Raise :class:`EdgeListParseError` for the first bad line of a block
    that :func:`_bulk_columns` rejected, numbering lines from ``first``."""
    for lineno, raw in enumerate(lines, start=first):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise EdgeListParseError(
                f"expected 2 or 3 tab-separated fields, got {len(fields)}",
                line_number=lineno)
        if not fields[0] or not fields[1]:
            raise EdgeListParseError("empty node identifier", line_number=lineno)
        try:
            weight = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise EdgeListParseError(
                f"weight {fields[2]!r} is not a number", line_number=lineno)
        if not math.isfinite(weight):
            raise EdgeListParseError(
                f"weight {fields[2]!r} is not finite", line_number=lineno)
        if weight < 0:
            raise EdgeListParseError(
                f"weight {weight} is negative", line_number=lineno)


def _write_order(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Permutation of the links ``src -> dst`` that makes reloading keep
    node indices.

    The loader numbers nodes by first appearance, so node j first shows up
    either beside a smaller-indexed neighbour or as the source of a fresh
    pair j -> j+1. Sorting links by their larger endpoint, with such a pair
    keyed to j instead, reproduces that order; ties keep the (src, dst)
    order of a canonical CSC matrix's links, which must be given so.
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
    return np.argsort(key, kind="stable")


def _format_weights(w: np.ndarray) -> Iterator[str]:
    # repr round-trips float64 exactly; integral weights print without ".0"
    if np.all(w < 2 ** 53) and np.array_equal(w, np.floor(w)):
        return map(str, w.astype(np.int64).tolist())
    return (str(int(x)) if x == int(x) and abs(x) < 2 ** 53 else repr(x)
            for x in w.tolist())


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
    src, dst = src[order].tolist(), dst[order].tolist()
    wts = _format_weights(a.data[order])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{labels[s]}\t{labels[d]}\t{w}\n"
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

