"""The one writer of data files.

CSV floats, numpy floats included, are written with 17 significant digits;
JSON floats as Python's shortest round-trip ``repr``. Either way a float read
back has the bits it was written with, and identical runs produce
byte-identical files. NaN and None are empty CSV fields; every other CSV
value is written as ``csv`` writes it. JSON files are what ``json.dump``
writes with ``indent=2``.

``timed`` records the stage times that ``run_info.json``, the one
timestamped artifact, holds.
"""

import csv
import json
import re
import time
from contextlib import contextmanager
from itertools import chain, repeat

import numpy as np

# Matched by exact type, which is cheaper than isinstance on every cell.
_FLOATS = frozenset({float, np.float16, np.float32, np.float64, np.longdouble})
_FLOAT_CELLS = _FLOATS | {type(None)}
# Types whose equal values are written alike (unlike floats: 0.0 == -0.0).
_PLAIN = frozenset({str, int, bool, type(None)})
# What csv.writer's default dialect quotes: delimiter, quote char, line ends.
_QUOTE = re.compile('[,"\r\n]')
_JSON_SCALARS = frozenset({str, int, float, bool, type(None), np.float64})
# _json_chunks' encoder of a container of scalars per indent, built on first
# use: json.dumps with separators builds a new encoder on every call.
_SCALAR_ENCODERS = {}


def _cell(x) -> str:
    """One CSV field: a float as .17g, NaN and None empty, anything else as
    ``csv.writer`` writes it."""
    if x is None:
        return ""
    text = ("" if x != x else f"{x:.17g}") if type(x) in _FLOATS else str(x)
    return '"' + text.replace('"', '""') + '"' if _QUOTE.search(text) else text


def _column(values, alone: bool):
    """A column as (spec, cells): its printf spec and the values the spec
    formats, or None where the column's one text is baked into the spec."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "f":
        values = values.tolist()
    # A float array has no cell types to check: it takes the float path.
    kinds = set() if isinstance(values, np.ndarray) else set(map(type, values))
    if len(kinds) == 1 and kinds <= _PLAIN and values.count(values[0]) == len(values):
        text = _cell(values[0])
        # csv.writer quotes the one empty field of a single-field row.
        return ('""' if alone and not text else text).replace("%", "%%"), None
    if kinds == {int}:
        return "%d", values
    if kinds <= _FLOAT_CELLS:
        floats = np.asarray(values, dtype=float)  # None becomes NaN
        if not np.isnan(floats).any():
            return "%.17g", floats.tolist()
        # "%.17g" writes every NaN, whatever its sign, as "nan"; no number
        # contains those letters.
        text = "%.17g\0" * len(floats) % tuple(floats.tolist())
        texts = text.replace("nan", "").split("\0")[:-1]
    else:
        texts = list(map(_cell, values))
    return "%s", ['""' if alone and not t else t for t in texts]


def _block(columns) -> str:
    """The CSV rows of one block of equal-length columns, as one string."""
    columns = list(columns)
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns of one block differ in length: {sorted(lengths)}")
    if not columns or not lengths.pop():
        return ""
    specs, cells = zip(*(_column(c, len(columns) == 1) for c in columns))
    cells = [c for c in cells if c is not None]
    row = ",".join(specs) + "\r\n"
    return row * len(columns[0]) % tuple(chain.from_iterable(zip(*cells)))


def write_csv(path, header, blocks) -> None:
    """Write a header row, then each block's rows as they are produced.

    A block is a sequence of equal-length columns. A float column (a float
    numpy array, or a sequence of floats and None) is formatted in one call;
    any other column cell by cell.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map(_block, blocks))


def _json_key(key) -> str:
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key) + ": "


def _json_chunks(value, depth: int):
    """What ``json.dump(value, fh, indent=2)`` writes at nesting `depth`."""
    if isinstance(value, dict):
        brackets, items = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", value
    else:
        yield json.dumps(value)
        return
    if not value:
        yield brackets
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if set(map(type, items)) <= _JSON_SCALARS:
        # A container of scalars is one call of the C encoder, its item
        # separator carrying the newline and indent json.dump would write.
        # Passed on in pieces, its text is copied once (the slice) rather
        # than once per concatenation.
        if inner not in _SCALAR_ENCODERS:
            _SCALAR_ENCODERS[inner] = json.JSONEncoder(separators=("," + inner, ": ")).encode
        text = _SCALAR_ENCODERS[inner](value)
        yield brackets[0] + inner
        yield text[1:-1]
        yield outer + brackets[1]
        return
    keys = map(_json_key, value) if brackets == "{}" else repeat("")
    yield brackets[0]
    for idx, (key, item) in enumerate(zip(keys, items)):
        yield ("," if idx else "") + inner + key
        yield from _json_chunks(item, depth + 1)
    yield outer + brackets[1]


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(data, 0))


@contextmanager
def timed(stages: dict, name: str):
    """Record in ``stages[name]`` the wall (``perf_counter``) and CPU
    (``process_time``, every thread of the process) seconds of the block."""
    wall, cpu = time.perf_counter(), time.process_time()
    yield
    stages[name] = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
