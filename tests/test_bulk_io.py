"""Block-wise bulk paths of the edge-list loader, the edge-list writer and
report CSVs against their line-by-line references.

The loader's reference is :func:`_line_columns`, the per-line column
builder it replaced, put in place of ``graph._bulk_columns`` for every block;
the CSV writer's is ``csv.writer`` alone (every block rejected by
``_row_template``), and the writer's link order is checked against the
three-key ``np.lexsort`` it replaced.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navsteer import EdgeListParseError, WeightedDigraph, graph, util
from navsteer.graph import (_write_order, column_of_entries, load_edge_list,
                            write_edge_list)

# one or more lines each; every trigger of the per-line path appears
CASES = [
    "a\tb\t1\nb\tc\t2\nc\ta\t3\n",
    "# comment\na\tb\n",
    "   # indented comment\tx\na\tb\t2\n",
    "a\tb\n\nb\ta\n",
    " \t \na\tb\n",
    "\x0c\tb\na\tb\t1\n",
    "a\tb\nb\tc\t2.5\nc\ta\n",
    "a\tb\t1\r\nb\ta\r\n",
    "\ufeffa\tb\t2\n",
    "a\tb\tx\n",
    "a\tb\tnan\n",
    "a\tb\tinf\n",
    "a\tb\t-1\n",
    "a\tb\t\n",
    "a\tb\t 2 \n",
    "a\tb\t-0\n",
    "\tb\n",
    "a\t\t1\n",
    "a\n",
    "a\tb\t1\t2\n",
    "a\x0cb\tc\n",
    "a\u2028\tb\n",
    "a \tb\t3\n",
    "a#1\tb\n",
    "a\ta\t1\n",
    "a b\t c\t1e-3\n",
    "a\tb\r\r\n",
    " \t \t \n",
    "# one\n  # two\n#three\tx\ty\n",
    "#\n",
    "a\tb\n#x",
]


def _line_columns(lines: list[str], first: int) -> tuple[list[str], np.ndarray]:
    """The loader's former per-line column builder: a block's labels and
    weights checked line by line from line number ``first``."""
    ends, wts = [], []
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
        weight = 1.0
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
        ends += fields[:2]
        wts.append(weight)
    return ends, np.array(wts, dtype=np.float64)


def _per_line_columns():
    """A stand-in for ``graph._bulk_columns`` that builds every block with
    :func:`_line_columns`, counting lines to number them across blocks."""
    first = 1

    def columns(lines):
        nonlocal first
        first += len(lines)
        return _line_columns(lines, first - len(lines))
    return columns


def _outcome(text, *, per_line=False, block=None, from_file=False, tmp=None):
    """Labels and CSC arrays of the loaded graph, or the error's type,
    message and line number."""
    with pytest.MonkeyPatch.context() as m:
        if per_line:
            m.setattr(graph, "_bulk_columns", _per_line_columns())
        if block is not None:
            m.setattr(util, "_BLOCK", block)
        if from_file:
            path = tmp / "g.tsv"
            path.write_bytes(text.encode("utf-8"))
            source = path
        else:
            source = io.StringIO(text)
        try:
            g = load_edge_list(source)
        except EdgeListParseError as exc:
            return type(exc), str(exc), exc.line_number
    a = g.adjacency
    return (g.node_labels, a.indptr.tolist(), a.indices.tolist(),
            a.data.tolist())


@pytest.mark.parametrize("text", CASES + ["".join(CASES[:8]), "a\tb", "a\tb\t3"])
@pytest.mark.parametrize("from_file", [False, True])
@pytest.mark.parametrize("block", [1, 2, 7, None])
def test_loader_blocks_match_per_line_path(tmp_path, text, from_file, block):
    expected = _outcome(text, per_line=True, from_file=from_file, tmp=tmp_path)
    assert _outcome(text, block=block, from_file=from_file,
                    tmp=tmp_path) == expected


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("block", [1, 2, 7, None])
def test_comment_lines_leave_the_loaded_graph_alone(tmp_path, k, block):
    lines = [f"p{i % 5}\tp{i * 3 % 7}\t{i % 4}\n" if i % 2 else f"p{i}\tq{i}\n"
             for i in range(20)]
    commented = "".join(line + (f"# after line {i}\n" if i % k == k - 1 else "")
                        for i, line in enumerate(lines))
    plain = _outcome("".join(lines), block=block, from_file=True, tmp=tmp_path)
    assert isinstance(plain[0], tuple)  # a graph, not an error
    assert _outcome(commented, block=block, from_file=True, tmp=tmp_path) == plain


def test_bulk_path_takes_two_and_three_field_lines():
    lines = ["a\tb\t2\n", "b\tc\n", "c\ta\t0.5"]
    ends, w = graph._bulk_columns(lines)
    assert ends == ["a", "b", "b", "c", "c", "a"]
    assert w.tolist() == [2.0, 1.0, 0.5]


@pytest.mark.parametrize("line", ["a\tb\tnan\n", "a\t\n", "a\tb\tx\n", " \t \n"])
def test_bad_line_in_third_block_reports_its_own_number(monkeypatch, line):
    monkeypatch.setattr(util, "_BLOCK", 4)
    good = [f"p{k}\tp{k + 1}\t1\n" for k in range(12)]
    text = "".join(good[:9] + [line] + good[9:])
    if not line.strip():    # a whitespace-only line is skipped, not an error
        assert _outcome(text) == _outcome(text, per_line=True)
        return
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO(text))
    assert err.value.line_number == 10


@settings(max_examples=150, deadline=None)
@given(parts=st.lists(st.sampled_from(CASES), max_size=12),
       block=st.sampled_from([1, 2, 3, 7, None]), from_file=st.booleans())
def test_loader_matches_per_line_path_on_random_mixes(tmp_path_factory, parts,
                                                      block, from_file):
    tmp = tmp_path_factory.mktemp("mix")
    text = "".join(parts)
    assert (_outcome(text, block=block, from_file=from_file, tmp=tmp)
            == _outcome(text, per_line=True, from_file=from_file, tmp=tmp))


# ------------------------------------------------------------------ writer

def _lexsort_order(n, src, dst):
    key = np.maximum(src, dst)
    has_smaller = np.zeros(n, dtype=bool)
    has_smaller[key] = True
    fresh_pair = (dst == src + 1) & ~has_smaller[src]
    key[fresh_pair] = src[fresh_pair]
    return np.lexsort((dst, src, key))


def test_write_order_matches_lexsort_on_canonical_graphs():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(1, 4 * n))
        g = WeightedDigraph.from_edges(n, rng.integers(0, n, m),
                                       rng.integers(0, n, m))
        a = g.adjacency
        src, dst = column_of_entries(a), a.indices
        assert np.array_equal(_write_order(n, src, dst),
                              _lexsort_order(n, src, dst))


@pytest.mark.parametrize("weights", [
    [0.1, 2.5, 1 / 3],
    [2.0 ** 53, 1e300, 3.0],
    [1.0, 2.5, 7.0],
    [2.0 ** 53 - 1, 1.0, 4.0],
])
def test_written_weights_round_trip_byte_for_byte(tmp_path, weights):
    g = WeightedDigraph.from_edges(3, [0, 1, 2], [1, 2, 0], weights,
                                   node_labels=("x", "y", "z"))
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_edge_list(g, first)
    write_edge_list(load_edge_list(first), second)
    assert first.read_bytes() == second.read_bytes()
    # integral weights below 2**53 print as ints, every other one as repr
    text = [str(int(w)) if w == int(w) and w < 2 ** 53 else repr(w)
            for w in weights]
    expected = "".join(f"{s}\t{d}\t{w}\n" for s, d, w in zip("xyz", "yzx", text))
    assert first.read_text(encoding="utf-8") == expected


# --------------------------------------------------------------------- CSV

def _csv_bytes(tmp_path, rows, *, writer_only=False, block=None):
    path = tmp_path / ("writer.csv" if writer_only else "bulk.csv")
    with pytest.MonkeyPatch.context() as m:
        if writer_only:
            m.setattr(util, "_row_template", lambda rows: None)
        if block is not None:
            m.setattr(util, "_BLOCK", block)
        util.write_csv(path, ["h1", "h2"], iter(rows))
    return path.read_bytes()


_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n\t\x0c #'), max_size=4)
_CELLS = {
    "int": st.integers(-(2 ** 70), 2 ** 70),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "str": _TEXT,
    "none": st.none(),
    "bool": st.booleans(),
    "np.float64": st.floats(allow_nan=True).map(np.float64),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, None]))
def test_csv_bulk_path_matches_csv_writer(tmp_path_factory, data, block):
    kinds = data.draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                               max_size=4))
    n = data.draw(st.integers(0, 9))
    rows = [[data.draw(_CELLS[k]) for k in kinds] for _ in range(n)]
    # now and then a row of other kinds or another width
    for row in data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2)):
        if rows:
            rows[row] = data.draw(st.lists(st.one_of(*_CELLS.values()),
                                           max_size=4))
    tmp = tmp_path_factory.mktemp("csv")
    assert (_csv_bytes(tmp, rows, block=block)
            == _csv_bytes(tmp, rows, writer_only=True))


@pytest.mark.parametrize("rows", [
    [[""], [""]],
    [["", "a"], ["", ""]],
    [(1, "a", 0.5), (2, "b", 0.25), (3, None, 0.125), (4, "d", 2.0)],
    [(1, "a"), (2, "b"), (3, "c,d"), (4, "e")],
    [(1, 2.0), (2, 3.0), (True, 4.0), (5, 6.0)],
    [(1, 2.0), (2, 3.0), (3, np.float64(4.0)), (5, 6.0)],
])
def test_csv_block_boundaries_and_single_cells(tmp_path, rows):
    # at block size 2 the third row starts a block of other cell types
    assert (_csv_bytes(tmp_path, rows, block=2)
            == _csv_bytes(tmp_path, rows, writer_only=True))


# ------------------------------------------------------------------ memory

def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _site_file(path, blocks):
    """``blocks`` blocks of lines over 20 000 labels, the last 2000 of them
    without a weight."""
    rng = np.random.default_rng(3)
    m = blocks * util._BLOCK
    src, dst = rng.integers(0, 20_000, m), rng.integers(0, 20_000, m)
    lines = [f"n{s}\tn{d}\t{w}\n" for s, d, w in
             zip(src.tolist(), dst.tolist(), rng.integers(1, 9, m).tolist())]
    lines[-2000:] = [line.rsplit("\t", 1)[0] + "\n" for line in lines[-2000:]]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_loader_memory_stays_within_per_line_path(tmp_path, monkeypatch):
    three = _site_file(tmp_path / "three.tsv", 3)
    six = _site_file(tmp_path / "six.tsv", 6)
    bulk = _peak(lambda: load_edge_list(three))
    # the extra lines cost their ids, weights and links (measured: 86 bytes
    # a line); a reader holding the whole file would keep every line's
    # strings too, over 200 bytes a line
    assert _peak(lambda: load_edge_list(six)) - bulk <= 120 * 3 * util._BLOCK
    monkeypatch.setattr(graph, "_bulk_columns", _per_line_columns())
    assert bulk <= 1.1 * _peak(lambda: load_edge_list(three))


def test_loader_holds_one_block_of_lines_at_a_time(tmp_path):
    one = _site_file(tmp_path / "one.tsv", 1)
    three = _site_file(tmp_path / "three.tsv", 3)
    # two more blocks cost their ids, weights and links (measured: 46 bytes
    # a line); a loader keeping a block's lines alive while it read the next
    # one, and while it built the graph, measured 101
    grown = _peak(lambda: load_edge_list(three)) - _peak(lambda: load_edge_list(one))
    assert grown <= 70 * 2 * util._BLOCK


def test_csv_memory_stays_within_csv_writer_path(tmp_path, monkeypatch):
    # rows come from a generator as every report's do, so both paths peak
    # with the rows of their blocks (measured: 1.00x the csv.writer path's
    # peak; a writer that took all rows at once measured 1.22x)
    n = 3 * util._BLOCK
    labels = [f"n{i}" for i in range(n)]
    pi = (1.0 / np.arange(7, n + 7)).tolist()
    path = tmp_path / "pi.csv"

    def write():
        util.write_csv(path, ["node", "label", "pi"], zip(range(n), labels, pi))

    bulk = _peak(write)
    monkeypatch.setattr(util, "_row_template", lambda rows: None)
    assert bulk <= 1.1 * _peak(write)


def test_csv_memory_does_not_grow_with_blocks(tmp_path):
    # one block's rows at a time (measured: 1.03x); a writer keeping the
    # previous block alive while it built the next measured 1.81x
    def write(blocks):
        rows = ((i, f"n{i}", 1.0 / (i + 7)) for i in range(blocks * util._BLOCK))
        return lambda: util.write_csv(tmp_path / "pi.csv",
                                      ["node", "label", "pi"], rows)

    assert _peak(write(3)) <= 1.1 * _peak(write(1))
