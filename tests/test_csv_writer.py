"""Property tests of the column-wise CSV writer against the per-cell loop it
replaced, of its vectorised float formatter against `format_float`, and of
the grid and column layout of wigner.csv."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import nanomech
from nanomech import cli
from nanomech.cli import (CSV_BLOCK_ROWS, EXIT_OK, FLOAT_RANGE,
                          SCHEMA_VERSION, _wigner_columns, format_float,
                          format_floats, main, run_steady, write_csv)
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


def columns_of(kind, n):
    return {"floats": np.arange(n, dtype=float), "text": ["t"] * n,
            "pair": (np.array([0.5]), np.zeros(n, dtype=np.intp))}[kind]


@pytest.mark.parametrize("n", [1, B + 1])
@pytest.mark.parametrize("kind", ["floats", "text", "pair"])
@pytest.mark.parametrize("change", [-1, 1])
def test_write_csv_refuses_columns_of_unequal_length(tmp_path, n, kind,
                                                     change):
    # a later column one cell short or long within the rows of the first
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"],
                  [np.zeros(n), columns_of(kind, n + change)])


@pytest.mark.parametrize("n", [1, B + 1])
@pytest.mark.parametrize("kind", ["floats", "text", "pair"])
@pytest.mark.parametrize("change", [-1, 1])
def test_write_csv_refuses_unequal_length_after_a_pair(tmp_path, n, kind,
                                                       change):
    # as above, after a paired first column, whose cells carry their
    # separator
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"],
                  [columns_of("pair", n), columns_of(kind, n + change)])


@pytest.mark.parametrize("n", [0, B])
@pytest.mark.parametrize("kind", ["floats", "text", "pair"])
def test_write_csv_refuses_a_longer_column_after_whole_blocks(tmp_path, n,
                                                              kind):
    # a first column of whole blocks (or none) used to end the block loop
    # before a longer later column's extra rows, which were dropped silently
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(n), columns_of(kind, n + 3)])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [columns_of("pair", n),
                                     columns_of(kind, n + 1)])
    assert not path.exists()


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
                     min_value=float(values.min()))
    xs, ps, ws = (table[index] for table, index in _wigner_columns(wig))
    assert len(xs) == len(ps) == len(ws) == x.size * p.size
    for k in range(x.size * p.size):
        i, j = divmod(k, x.size)
        assert (xs[k], ps[k], ws[k]) == (x[j], p[i], values[i, j])


# ---------------------------------------------------------------------------
# format_floats: "%.17g" in numpy, with format_float as its exact fallback

def assert_formats_like_format_float(values):
    got = format_floats(values)
    want = [format_float(float(v)) for v in values]
    same = got == want
    assert same, next((v, a, b) for v, a, b in zip(values, got, want) if a != b)


def test_format_floats_random_bit_patterns():
    # fresh patterns on every run; the seed is in the failure message
    seed = np.random.SeedSequence().entropy
    rng = np.random.default_rng(seed)
    values = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                          size=200_000, dtype=np.int64, endpoint=True)
    values = values.view(np.float64)
    got = format_floats(values)
    bad = [(v, a) for v, a in zip(values, got) if a != format_float(float(v))]
    assert not bad, (seed, bad[:5])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 60),
              elements=st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True)))
def test_format_floats_matches_format_float(values):
    assert_formats_like_format_float(values)


def constructed_ties():
    """Doubles N 2^-j, N odd, whose 18th significant digit is their last
    one, a 5: "%.17g" rounds each of them half to even."""
    rng = np.random.default_rng(11)
    ties = []
    for j in range(2, 18):
        lo, hi = 10 ** (17 - j) * 2**j, min(10 ** (18 - j) * 2**j, 2**53)
        odd = rng.integers(lo // 2, hi // 2, size=40) * 2 + 1
        ties += [int(n) / 2**j for n in odd]
    ties += [1125899906842624.25, 1125899906842624.75]
    return np.array(ties + [-t for t in ties])


def test_format_floats_ties_go_through_format_float(monkeypatch):
    ties = constructed_ties()
    assert format_floats(np.array([1125899906842624.25])) == [
        "1125899906842624.2"]
    assert_formats_like_format_float(ties)
    seen = []

    def spy(v):
        seen.append(v)
        return format_float(v)

    monkeypatch.setattr(cli, "format_float", spy)
    format_floats(ties)
    assert sorted(seen) == sorted(ties.tolist())


def test_format_floats_powers_of_ten_and_range_edges():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    edges = np.array([*FLOAT_RANGE, 1e-281, 1e281, 1e-279, 1e279])
    near = []
    for v in (powers, edges):
        down = up = v
        for _ in range(2):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            near += [down, up]
    values = np.concatenate([powers, edges, *near])
    assert_formats_like_format_float(np.concatenate([values, -values]))


def test_format_floats_special_values():
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2**52, size=200).view(np.float64)
    assert_formats_like_format_float(np.concatenate(
        [SPECIAL, NAN_PAYLOAD, subnormal, -subnormal, [np.finfo(float).max,
         -np.finfo(float).max, np.finfo(float).tiny, np.finfo(float).eps]]))
    assert format_floats(np.array([0.0, -0.0, np.inf, -np.inf, np.nan])) == [
        "0", "-0", '"inf"', '"-inf"', '"nan"']


def test_format_floats_formats_fig2_outputs_without_fallback(monkeypatch):
    # the values of fig2's wigner.csv take the vectorised path, apart from
    # the 0.0 in the middle of the x and p grids
    wig = run_steady(parse_config(json.loads(CONFIG_PATH.read_text())))[
        "wigner"]
    values = np.concatenate([table for table, _ in _wigner_columns(wig)])
    want = [format_float(float(v)) for v in values]
    seen = []

    def spy(v):
        seen.append(v)
        return format_float(v)

    monkeypatch.setattr(cli, "format_float", spy)
    assert format_floats(values) == want
    assert seen == [0.0, 0.0]


def test_setup_does_not_build_the_formatter_tables():
    # the benchmark's set-up code (import, load the config, run_device)
    # leaves the formatter's tables to the first CSV written
    code = ("import nanomech.cli as cli; "
            "cli.run_device(cli.load_config('configs/fig2.json')); "
            "print(cli._float_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(nanomech.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], cwd=CONFIG_PATH.parents[1],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# the Wigner grid: exactly antisymmetric, so W is exactly symmetric

@pytest.mark.parametrize("grid, points", [("fig2", 101), ("default", 121),
                                          ("three", 3)])
def test_wigner_grid_and_values_are_exactly_symmetric(grid, points):
    raw = json.loads(CONFIG_PATH.read_text())
    if grid == "default":
        del raw["simulation"]["wigner_grid"]
    elif grid == "three":
        raw["simulation"]["wigner_grid"]["points"] = 3
    wig = run_steady(parse_config(raw))["wigner"]
    x, w = wig.x, wig.values
    assert x.size == points and np.array_equal(x, wig.p)
    bits = x.view(np.int64)
    assert np.array_equal(x[::-1], -x)
    assert x[points // 2] == 0.0 and not np.signbit(x[points // 2])
    assert np.array_equal(np.delete(bits[::-1], points // 2),
                          np.delete((-x).view(np.int64), points // 2))
    wbits = w.view(np.int64)
    for image in (w[::-1], w[:, ::-1], w.T):
        assert np.array_equal(image.view(np.int64), wbits)
    if grid == "fig2":
        # the W table of wigner.csv: 3,819 values on np.linspace's grid
        assert np.unique(wbits).size <= 1300
