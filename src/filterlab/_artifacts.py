"""The one writer of data files.

Every float, numpy floats included, is written with 17 significant digits,
so identical runs produce byte-identical files. NaN and None are empty CSV
fields; every other CSV value is written as ``csv`` writes it.
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
