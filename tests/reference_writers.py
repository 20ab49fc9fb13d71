"""Row-by-row reference for the data-file writers.

``filterlab._artifacts`` formats CSV a block of columns at a time and writes
JSON through the C encoder. This module keeps the plain writers it replaced
(``csv.writer`` over each row with the float rule applied per cell, and
``json.dump`` with ``indent=2``) so the tests can pin the fast writers to
them byte for byte.
"""

import csv
import json

import numpy as np

# Matched by exact type, which is cheaper than isinstance on every cell.
_FLOATS = frozenset({float, np.float16, np.float32, np.float64, np.longdouble})


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes None as an empty field; NaN != NaN.
        writer.writerows(
            [("" if x != x else f"{x:.17g}") if type(x) in _FLOATS else x for x in row]
            for row in rows
        )


def write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def write_blocks(path, header, blocks) -> None:
    """``write_csv`` with the block interface of the package's writer."""
    write_csv(path, header, (row for block in blocks for row in zip(*block)))
