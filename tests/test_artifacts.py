import csv
import pathlib
import tracemalloc

import numpy as np
import pytest

import filterlab
import reference_writers
from filterlab._artifacts import write_csv, write_json
from filterlab.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "filterlab"


def test_row_round_trip(tmp_path):
    # Reals chosen so that fewer than 17 significant digits would lose bits.
    reals = [np.float64(0.1) + np.float64(0.2), 1.0 / 3.0, -2.5e-300, np.float64(1e17) + 2]
    path = tmp_path / "row.csv"
    row = [7, "x", *reals, None, float("nan"), np.float64("nan")]
    write_csv(path, ["a", "b"], [[[x] for x in row]])
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


# --- the writers against the row-by-row reference ----------------------------

EDGE_FLOATS = [float("nan"), None, float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 0.1]
STRINGS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "100%", "%s", "ü"]


def _same_csv(tmp_path, header, blocks):
    blocks = list(blocks)
    write_csv(tmp_path / "new.csv", header, blocks)
    reference_writers.write_blocks(tmp_path / "ref.csv", header, blocks)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _same_json(tmp_path, data):
    write_json(tmp_path / "new.json", data)
    reference_writers.write_json(tmp_path / "ref.json", data)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


CSV_BLOCKS = {
    "edge floats as a list": [[EDGE_FLOATS, list(range(len(EDGE_FLOATS)))]],
    "edge floats as an array": [[np.array(EDGE_FLOATS, dtype=float), ["x"] * len(EDGE_FLOATS)]],
    "numpy cells": [
        [
            [np.float32(0.1), np.float64(1 / 3), np.float16(0.2), np.float64("nan"), 2.5],
            [np.int64(3), 4, True, np.bool_(False), None],
        ]
    ],
    "typed arrays": [
        [
            np.array([0.1, 0.2], dtype=np.float32),
            np.array([1, -2]),
            np.array([True, False]),
            np.array(["a", "b,c"]),
        ]
    ],
    "strings": [[STRINGS, list(reversed(STRINGS))]],
    "constant columns": [
        [["lab,el"] * 3, [7] * 3, [None] * 3, ["50%"] * 3, [True] * 3, [0.0, -0.0, 0.0]]
    ],
    "one column": [[[None, 1.5, "", float("nan"), "x"]], [[None, None]], [[""]], [[0.5, 1e16]]],
    "mixed int and float": [[[1, 1.0, -1, None], ["a", 2, 2.5, None]]],
    "several blocks": [[["a"], [1.0]], [["b", "c"], [np.nan, 2.0]], [[], []], [["d"], [None]]],
    "header only": [],
    "empty blocks": [[[], []], [[]]],
    "range and tuples": [[range(1, 5), (0.25, None, 3.0, 1e-300), ("p", "q", "r", "s")]],
}


@pytest.mark.parametrize("name", sorted(CSV_BLOCKS))
def test_csv_matches_reference(tmp_path, name):
    _same_csv(tmp_path, ["h,1", "h2", 'h"3'], CSV_BLOCKS[name])


def test_csv_header_matches_reference(tmp_path):
    for header in ([], [""], [1.5, None, "a"], range(3)):
        _same_csv(tmp_path, header, [[[1.0]]])


def test_csv_random_tables_match_reference(tmp_path):
    rng = np.random.default_rng(4)
    pool = EDGE_FLOATS + STRINGS + [np.float32(2.5), np.float64(-7e-8), 12, -1, True]
    for _ in range(40):
        cols = int(rng.integers(1, 4))
        blocks = []
        for _ in range(int(rng.integers(0, 4))):
            rows = int(rng.integers(0, 5))
            kind = rng.integers(3, size=cols)
            blocks.append([
                rng.standard_normal(rows) if k == 0
                else [float(x) for x in rng.standard_normal(rows)] if k == 1
                else [pool[i] for i in rng.integers(len(pool), size=rows)]
                for k in kind
            ])
        _same_csv(tmp_path, [f"c{i}" for i in range(cols)], blocks)


def test_csv_rejects_ragged_block(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], [[[1.0, 2.0], [3.0]]])


JSON_DATA = {
    "empty": [{}, [], (), {"a": {}, "b": [], "c": [[], {}]}],
    "nested": {"a": [1, [2, [3, {"b": None}]], {"c": [True, False]}], "d": {"e": {"f": 1.5}}},
    "keys": {1: "int", 2.5: "float", True: "bool", None: "none", "s": 0, np.float64(0.1): 1},
    "nested keys": {3: [1, 2], -1: {"x": [0.5]}},
    "tuples": (1, (2.0, "x"), [(), (None,)]),
    "non-ascii": {"ключ": ["naïve", "日本", "tab\there", 'q"uote', " "]},
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1 + 0.2],
    "numpy floats": {"leaf": [np.float64(1 / 3), np.float64("nan")], "x": np.float64(2.0)},
    "mixed leaves": [1, "a", [np.float64(1e-300), None], {"k": float("nan")}, True],
    "scalar": 3.25,
    "string": "top",
    "null": None,
}


@pytest.mark.parametrize("name", sorted(JSON_DATA))
def test_json_matches_reference(tmp_path, name):
    _same_json(tmp_path, JSON_DATA[name])


@pytest.mark.parametrize("data", [[np.float32(1.0)], {"a": [1, {"b": object()}]}, {(1, 2): 3}])
def test_json_rejects_what_json_rejects(tmp_path, data):
    with pytest.raises(TypeError):
        reference_writers.write_json(tmp_path / "ref.json", data)
    with pytest.raises(TypeError):
        write_json(tmp_path / "new.json", data)


def test_paper_files_match_reference_writers(tmp_path, monkeypatch, capsys):
    # Every data file of a run, written once by the package's writers and
    # once by the reference writers patched into each module that writes.
    argv = ["paper", "--trials", "10"]
    assert main(argv + ["--out", str(tmp_path / "new")]) == 0
    for module in ("cli", "gap", "harness", "network", "spps"):
        module = getattr(filterlab, module)
        if hasattr(module, "write_csv"):
            monkeypatch.setattr(module, "write_csv", reference_writers.write_blocks)
        if hasattr(module, "write_json"):
            monkeypatch.setattr(module, "write_json", reference_writers.write_json)
    assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
    names = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "ref").iterdir())
    names.remove("run_info.json")
    assert len(names) == 9
    for name in names:
        new, ref = (tmp_path / d / name for d in ("new", "ref"))
        assert new.read_bytes() == ref.read_bytes(), name


def test_csv_streams_block_by_block(tmp_path):
    # A block's text is formed, written and dropped before the next block
    # is drawn, so the peak does not grow with the row count.
    def peak(rows, size=2000):
        blocks = (
            (["run"] * size, range(k, k + size), np.full(size, k / 3.0))
            for k in range(0, rows, size)
        )
        tracemalloc.start()
        try:
            write_csv(tmp_path / "rows.csv", ["label", "k", "value"], blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200_000) <= 1.5 * peak(20_000)
