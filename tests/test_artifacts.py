import csv
import pathlib

import numpy as np

from filterlab._artifacts import write_csv

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "filterlab"


def test_row_round_trip(tmp_path):
    # Reals chosen so that fewer than 17 significant digits would lose bits.
    reals = [np.float64(0.1) + np.float64(0.2), 1.0 / 3.0, -2.5e-300, np.float64(1e17) + 2]
    path = tmp_path / "row.csv"
    write_csv(path, ["a", "b"], [[7, "x", *reals, None, float("nan"), np.float64("nan")]])
    with open(path, newline="") as fh:
        header, row = list(csv.reader(fh))
    assert header == ["a", "b"]
    assert row[:2] == ["7", "x"]
    assert [float(v).hex() for v in row[2:6]] == [float(r).hex() for r in reals]
    assert row[6:] == ["", "", ""]


def test_number_format_lives_only_in_artifacts():
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_artifacts.py":
            continue
        text = path.read_text()
        for needle in ("csv.writer(", "json.dump(", ".17g"):
            assert needle not in text, f"{path.name} contains {needle!r}"
