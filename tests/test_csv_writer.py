"""Property tests of the column-wise CSV writer against the per-cell loop it
replaced, and of the column layout of wigner.csv."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanomech.cli import (CSV_BLOCK_ROWS, EXIT_OK, SCHEMA_VERSION,
                          _wigner_columns, format_float, main, run_steady,
                          write_csv)
from nanomech.config import parse_config
from nanomech.observables import WignerData

from conftest import CONFIG_PATH

B = CSV_BLOCK_ROWS
LENGTHS = (0, 1, B - 1, B, B + 1, 2 * B + 1)
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                    -1e-310, np.inf, -np.inf, np.nan, -np.nan])
NAN_PAYLOAD = np.array([0x7FF8000000000001, 0x7FF0000000000001,
                        -0x0008000000000001], dtype=np.int64).view(np.float64)


def reference_csv(header, columns):
    """One cell at a time: format_float for floats, str otherwise, with text
    cells quoted per RFC 4180."""
    lines = [f"# schema: {SCHEMA_VERSION}", ",".join(header)]
    for row in zip(*columns):
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format_float(float(v)))
                continue
            s = str(v)
            if "," in s or '"' in s or "\n" in s or "\r" in s:
                s = '"' + s.replace('"', '""') + '"'
            cells.append(s)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def float_column(rng, kind, n):
    if kind == "bits":
        col = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                           size=n, dtype=np.int64, endpoint=True).view(np.float64)
    else:                                   # "repeats": a few values, reused
        col = rng.choice(rng.standard_normal(7) * 10.0 ** rng.integers(-5, 6, 7),
                         size=n)
    specials = np.concatenate([SPECIAL, NAN_PAYLOAD])
    where = rng.random(n) < 0.1
    col[where] = rng.choice(specials, size=int(where.sum()))
    return col


def object_column(rng, texts, n):
    """A sweep-like column: text, ints, floats and empty cells, mixed."""
    pool = [*texts, "", "[1, 2]", 'a "b"', "two\nlines", "cr\r", "4 m", 0, 4,
            -17, 3.9, 4.0, -0.0, float("nan"), float("inf"), np.float64(0.1),
            np.float64(-2.5e-300)]
    return [pool[k] for k in rng.integers(len(pool), size=n)]


@st.composite
def tables(draw, n):
    kinds = draw(st.lists(st.sampled_from(("bits", "repeats", "object")),
                          min_size=1, max_size=4))
    texts = draw(st.lists(st.text(alphabet=st.sampled_from('ab ,"\n\r\'[]é')),
                          min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [object_column(rng, texts, n) if kind == "object"
               else float_column(rng, kind, n) for kind in kinds]
    return [f"c{j}" for j in range(len(kinds))], columns


@pytest.mark.parametrize("n", LENGTHS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_write_csv_matches_per_cell_reference(tmp_path_factory, n, data):
    header, columns = data.draw(tables(n))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    with path.open(newline="") as f:
        text = f.read()
    got, want = text.split("\n"), reference_csv(header, columns).split("\n")
    same = got == want          # kept out of the assert: pytest's diff of
    assert same, next(          # 10^4 long lines takes minutes
        ((k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b),
        (len(got), len(want)))
    # every row has one field per header name, and text cells read back;
    # csv.reader gives [] for the empty line of a one-column empty cell
    rows = [r or [""] for r in list(csv.reader(io.StringIO(text)))[2:]]
    assert len(rows) == len(columns[0])
    assert all(len(r) == len(header) for r in rows)
    for j, col in enumerate(columns):
        for r, v in zip(rows, col):
            if isinstance(v, str):
                assert r[j] == v


@st.composite
def pair_tables(draw, n):
    """The columns of `tables` and 1-3 (values, index) columns, each over a
    table of values that holds all of SPECIAL and NAN_PAYLOAD."""
    header, columns = draw(tables(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("bits", "repeats")))
        values = np.concatenate([SPECIAL, NAN_PAYLOAD,
                                 float_column(rng, kind, rng.integers(64))])
        columns.insert(draw(st.integers(0, len(columns))),
                       (values, rng.integers(values.size, size=n)))
    return [f"c{j}" for j in range(len(columns))], columns


def assert_same_lines(got, want):
    same = got == want          # kept out of the assert: pytest's diff of
    assert same, next(          # 10^4 long lines takes minutes
        ((k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b),
        (len(got), len(want)))


@pytest.mark.parametrize("n", LENGTHS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_write_csv_pair_columns_match_per_cell_reference(tmp_path_factory, n,
                                                         data):
    # a (values, index) column writes the cells values[index]
    header, columns = data.draw(pair_tables(n))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    resolved = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
    with path.open(newline="") as f:
        assert_same_lines(f.read().split("\n"),
                          reference_csv(header, resolved).split("\n"))


@pytest.mark.parametrize("grid", ["fig2", "default"])
def test_wigner_csv_matches_per_cell_reference(tmp_path, grid):
    # fig2's 101^2 grid and the default 121^2 grid, through the CLI
    raw = json.loads(CONFIG_PATH.read_text())
    if grid == "default":
        del raw["simulation"]["wigner_grid"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["steady", "--config", str(config), "--out",
                 str(tmp_path)]) == EXIT_OK
    wig = run_steady(parse_config(raw))["wigner"]
    points = {"fig2": 101, "default": 121}[grid]
    assert wig.values.shape == (points, points)
    want = reference_csv(["x", "p", "W"], [
        np.tile(wig.x, wig.p.size), np.repeat(wig.p, wig.x.size),
        wig.values.ravel()])
    with (tmp_path / "wigner.csv").open(newline="") as f:
        assert_same_lines(f.read().split("\n"), want.split("\n"))


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # two all-distinct float64 columns: the allocation peak at 160,004 rows
    # is that at 40,001 rows (about 1.4 MB both), where formatting each
    # column's distinct values over the whole file read 1.55 and 3.67 MB
    rng = np.random.default_rng(3)
    peaks = []
    for n in (40_001, 160_004):
        columns = [rng.standard_normal(n), rng.standard_normal(n)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["a", "b"], columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.5e6, peaks


def test_wigner_columns_layout_on_asymmetric_grid():
    # The CLI grid has x == p and W from populations is symmetric under
    # x <-> p, so a transposed layout would still write the same fig2 bytes.
    rng = np.random.default_rng(7)
    x = np.linspace(-2.0, 3.0, 5)
    p = np.array([-1.0, 0.5, 4.0])
    values = rng.standard_normal((x.size, p.size)).T   # (len(p), len(x)), F order
    wig = WignerData(x=x, p=p, values=values, origin_value=0.0,
                     min_value=float(values.min()), min_location=(0.0, 0.0))
    xs, ps, ws = (table[index] for table, index in _wigner_columns(wig))
    assert len(xs) == len(ps) == len(ws) == x.size * p.size
    for k in range(x.size * p.size):
        i, j = divmod(k, x.size)
        assert (xs[k], ps[k], ws[k]) == (x[j], p[i], values[i, j])
