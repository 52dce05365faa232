"""Small numeric and file helpers shared across modules."""

from __future__ import annotations

import csv
import json
import math
import struct
from itertools import islice, starmap
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__

_U64 = (1 << 64) - 1
_BLOCK = 1 << 15  # lines or rows per bulk pass, so no input is held whole


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up (0.5 -> 1, 1.5 -> 2).

    Python's built-in round() breaks ties to even, which is the wrong rule
    for converting fractional budgets and set sizes here.
    """
    return int(math.floor(x + 0.5))


def _component_entropy(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value) & _U64
    if isinstance(value, (float, np.floating)):
        # IEEE-754 bit pattern: stable across platforms, distinguishes
        # values that stringify identically.
        return struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    if isinstance(value, str):
        return int.from_bytes(value.encode("utf-8"), "little")
    raise TypeError(f"cannot derive entropy from {type(value).__name__}")


def derive_seed(*components) -> int:
    """Collapse (master seed, domain tag, parameters...) into a 64-bit seed.

    The same component tuple always yields the same seed, which is what
    makes serial and parallel sweep execution produce identical streams.
    """
    entropy = [_component_entropy(c) for c in components]
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)


def format_value(x: float) -> str:
    """A float as every report writes it: 12 significant digits."""
    return format(x, ".12g")


def blocks(items: Iterable) -> Iterator[list]:
    """Successive lists of up to ``_BLOCK`` items of an iterable."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BLOCK)), [])


def _row_template(rows: list[Sequence]) -> str | None:
    """A template writing rows as ``csv.writer`` and :func:`format_value` do:
    needs two or more cells (a lone empty cell is quoted), one exact type per
    column (int, float or str) and no str that ``csv.writer`` quotes."""
    width = len(rows[0])
    if width < 2 or set(map(len, rows)) != {width}:
        return None
    fields = []
    for j in range(width):
        column = list(map(itemgetter(j), rows))
        kinds = set(map(type, column))
        text = "".join(column) if kinds == {str} else ""
        if kinds not in ({int}, {float}, {str}) or any(c in text for c in ',"\r\n'):
            return None
        fields.append("{:.12g}" if kinds == {float} else "{}")
    return ",".join(fields) + "\r\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a report CSV (RFC 4180, UTF-8, CRLF line ends).

    Floats go through :func:`format_value`; ints and strings are written
    as they print, and ``None`` as an empty field.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in blocks(rows):
            template = _row_template(block)
            if template is not None:
                fh.writelines(starmap(template.format, block))
            else:
                writer.writerows([format_value(v) if isinstance(v, float) else v
                                  for v in row] for row in block)


def write_json(path: str | Path, payload: dict) -> None:
    """Write a JSON sidecar stamped with the package version: sorted keys,
    two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")
