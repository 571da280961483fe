import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswitch import (
    ConfigError,
    DomainError,
    DriveSpec,
    IngestError,
    kappa_from_q,
    simulate_switching,
)
from qdswitch.cli import main
from qdswitch.config import parse_config
from qdswitch.constants import GHZ_PER_MEV
from qdswitch.csvio import (
    WRITE_CHUNK_ROWS,
    format_value,
    ingest_shift_csv,
    ingest_spectrum_csv,
    write_csv,
)
from qdswitch.fitting import stark_model
from qdswitch.manifest import read_manifest

TWO_PI = 2.0 * math.pi


# -- config ------------------------------------------------------------------

def test_empty_config_uses_documented_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("", encoding="utf-8")
    cfg = parse_config(path)
    assert cfg["screening"] == 1.0
    assert cfg["duty"] == 0.5
    assert cfg["rc_cutoff_mhz"] == 100.0
    assert cfg["seed"] == 0


def test_config_rejects_negative_doping(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nd_cm3 = -1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="donor_density"):
        parse_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("donor_density = 9e15\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'donor_density'"):
        parse_config(path)


def test_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("g_ghz = 20\ng_ghz = 15\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate key 'g_ghz'"):
        parse_config(path)


def test_config_rejects_non_numeric_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("phi_v = high\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="phi_v"):
        parse_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("no/such/file.cfg")


def test_config_overlay_order(tmp_path):
    base = tmp_path / "base.cfg"
    base.write_text("g_ghz = 20\ngamma_ghz = 2\n", encoding="utf-8")
    over = tmp_path / "over.cfg"
    over.write_text("gamma_ghz = 7\n", encoding="utf-8")
    cfg = parse_config(base, over)
    assert cfg["g_ghz"] == 20.0
    assert cfg["gamma_ghz"] == 7.0


def test_preset_carries_published_values():
    from qdswitch.cli import _preset_path
    cfg = parse_config(_preset_path("paper"))
    assert cfg["nd_cm3"] == 9e15
    assert cfg["phi_v"] == 0.36
    assert cfg["dx_um"] == 0.75
    assert cfg["q_factor"] == 4000.0
    assert cfg["g_ghz"] == 20.0
    assert cfg["lambda0_nm"] == 935.0
    assert cfg["contrast_targets"] == ((10.0, 1.5), (14.0, 2.0))


def test_config_builds_domain_objects():
    from qdswitch.cli import _preset_path
    cfg = parse_config(_preset_path("paper"))
    assert cfg.cqed_params().cavity_decay / TWO_PI == pytest.approx(40.079, abs=0.01)
    assert cfg.drive_spec().frequency_mhz == 150.0
    grid = cfg.voltage_grid()
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(10.0)


# -- CSV round trip ------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-200.0, 200.0, 171))
    y = np.abs(rng.standard_normal(171)) * 10.0 ** rng.integers(-8, 8, 171)
    path = write_csv(tmp_path / "spec.csv", ["detuning_GHz", "intensity"],
                     zip(x, y))
    spec = ingest_spectrum_csv(path)
    # file values are recovered bit exactly; the angular conversion costs
    # at most one ulp, far inside the 1e-12 relative contract
    np.testing.assert_array_equal(spec.detunings, TWO_PI * x)
    np.testing.assert_array_equal(spec.intensities, y)
    rel = np.abs(spec.detunings / TWO_PI - x) / np.abs(x)
    assert np.max(rel) < 1e-12


def test_format_value_kinds():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    assert format_value("weak") == "weak"


def test_write_csv_bytes_match_per_value_formatting(tmp_path):
    from qdswitch.csvio import WRITE_CHUNK_ROWS
    rng = np.random.default_rng(11)
    n = 2 * WRITE_CHUNK_ROWS + 37
    floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)).tolist()
    kinds = [
        lambda i: floats[i],
        lambda i: np.float64(floats[i]),
        lambda i: i - 5,
        lambda i: np.int64(i),
        lambda i: i % 3 == 0,
        lambda i: np.bool_(i % 2),
        lambda i: f"row{i}",
        lambda i: -0.0 if i % 7 == 0 else 1e-300,
    ]
    header = [f"c{k}" for k in range(len(kinds))]
    rows = [tuple(kind(i) for kind in kinds) for i in range(n)]
    path = write_csv(tmp_path / "mixed.csv", header, iter(rows))

    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


# Values at the edges of repr's output forms: signed zeros, subnormals, the
# switch to exponent notation below 1e-4 and from 1e16, and non-finite.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e-4, 9.999999999999999e-05, 1e-5, 1.0000000000000001e-05,
               1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
               math.inf, -math.inf, math.nan]


@st.composite
def float_tables(draw):
    """2-D float64 arrays whose columns are either drawn from a small pool
    (heavy repeats) or mostly distinct across many magnitudes."""
    n = draw(st.sampled_from([1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1,
                              2 * WRITE_CHUNK_ROWS + 37]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        pool = np.array(draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(),
                                      min_size=1, max_size=30)))
        if draw(st.booleans()):
            column = rng.choice(pool, n)
        else:
            column = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
            sprinkled = rng.random(n) < 0.1
            column[sprinkled] = rng.choice(pool, int(sprinkled.sum()))
        columns.append(column)
    return np.column_stack(columns)


@settings(max_examples=40, deadline=None)
@given(table=float_tables())
def test_write_csv_float_array_bytes_match_per_value_formatting(tmp_path_factory, table):
    header = [f"c{k}" for k in range(table.shape[1])]
    path = write_csv(tmp_path_factory.mktemp("arr") / "t.csv", header, table)
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in table.tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(table=float_tables())
def test_write_csv_column_major_table_matches_column_stack(tmp_path_factory, table):
    # The switch trace is passed column-major (np.array(columns).T), which
    # the float path formats without copying a column; the bytes must not
    # depend on the table's memory order.
    columns = list(table.T)
    header = [f"c{k}" for k in range(len(columns))]
    out = tmp_path_factory.mktemp("order")
    by_rows = write_csv(out / "rows.csv", header, np.column_stack(columns))
    by_columns = write_csv(out / "columns.csv", header, np.array(columns).T)
    assert by_columns.read_bytes() == by_rows.read_bytes()


ROW_KINDS = ["float", "float64", "float32", "int", "int64", "bool", "bool_", "str"]
# "floats": float or np.float64 per value; "mixed": any of ROW_KINDS per value.
CHUNK_KINDS = ROW_KINDS + ["floats", "mixed"]


def row_column(chunk_kinds, n, rng):
    """n values of one column; chunk c holds values of kind chunk_kinds[c]."""
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    edge = rng.random(n) < 0.1
    floats[edge] = rng.choice(EDGE_FLOATS, int(edge.sum()))
    with np.errstate(over="ignore"):
        floats32 = floats.astype(np.float32)
    ints = rng.integers(-2 ** 62, 2 ** 62, n)
    by_kind = {
        "float": floats.tolist(),
        "float64": list(floats),
        "float32": list(floats32),
        "int": ints.tolist(),
        "int64": list(ints),
        "bool": (ints % 2 == 0).tolist(),
        "bool_": list(ints % 3 == 0),
        "str": [f"s{i}" for i in ints.tolist()],
    }
    picks = {"floats": rng.integers(2, size=n), "mixed": rng.integers(len(ROW_KINDS), size=n)}
    column = []
    for c, kind in enumerate(chunk_kinds):
        for i in range(c * WRITE_CHUNK_ROWS, min((c + 1) * WRITE_CHUNK_ROWS, n)):
            column.append(by_kind[ROW_KINDS[picks[kind][i]] if kind in picks else kind][i])
    return column


@st.composite
def row_tables(draw):
    """Rows whose columns change value kinds from one write chunk to the next."""
    n = draw(st.sampled_from([1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1,
                              2 * WRITE_CHUNK_ROWS + 37]))
    chunks = -(-n // WRITE_CHUNK_ROWS)
    plan = draw(st.lists(st.lists(st.sampled_from(CHUNK_KINDS), min_size=chunks,
                                  max_size=chunks), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return list(zip(*(row_column(kinds, n, rng) for kinds in plan)))


@settings(max_examples=40, deadline=None)
@given(rows=row_tables(), bad_offset=st.integers(0, 36), bad_width=st.sampled_from([-1, 1]))
def test_write_csv_rows_bytes_match_per_value_formatting(tmp_path_factory, rows,
                                                         bad_offset, bad_width):
    header = [f"c{k}" for k in range(len(rows[0]))]
    path = tmp_path_factory.mktemp("rows") / "t.csv"
    write_csv(path, header, iter(rows))
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    if len(rows) > WRITE_CHUNK_ROWS:
        path.unlink()
        bad = WRITE_CHUNK_ROWS + bad_offset % (len(rows) - WRITE_CHUNK_ROWS)
        wrong = (rows[bad] + rows[bad])[:len(header) + bad_width]
        with pytest.raises(DomainError, match="width"):
            write_csv(path, header, iter(rows[:bad] + [wrong] + rows[bad + 1:]))
        assert not path.exists()


def _edge_float_rows(n, wrap):
    """The columns and rows of an n-row, two-column float table across many
    magnitudes with EDGE_FLOATS sprinkled in; a value is an np.float64
    where wrap(column, row) is true, a float otherwise."""
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-320, 300, (2, n))
    edge = rng.random((2, n)) < 0.1
    columns[edge] = rng.choice(EDGE_FLOATS, int(edge.sum()))
    table = [[np.float64(v) if wrap(k, i) else v for i, v in enumerate(column)]
             for k, column in enumerate(columns.tolist())]
    return list(columns), list(zip(*table))


def _formatted(header, rows):
    lines = [",".join(header)] + [",".join(map(format_value, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("n", [1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1,
                               2 * WRITE_CHUNK_ROWS + 37])
@pytest.mark.parametrize("wrap, kinds", [
    (lambda k, i: False, {float}),
    (lambda k, i: True, {np.float64}),
    (lambda k, i: (k + i) % 2 == 1, {float, np.float64}),
], ids=["float", "float64", "mixed"])
def test_write_csv_all_float_rows_match_columns_and_per_value_formatting(tmp_path, n,
                                                                         wrap, kinds):
    # All-float rows take the float-array path, chunk by chunk.
    columns, rows = _edge_float_rows(n, wrap)
    assert {type(v) for row in rows for v in row} == kinds
    by_rows = write_csv(tmp_path / "rows.csv", ["a", "b"], iter(rows))
    by_columns = write_csv(tmp_path / "columns.csv", ["a", "b"], columns=columns)
    assert by_rows.read_bytes() == by_columns.read_bytes() == _formatted(["a", "b"], rows)


def test_write_csv_rows_change_route_between_chunks(tmp_path, monkeypatch):
    # The first and last chunks are all-float; the middle one holds a flag
    # column, so it alone is formatted as strings.
    from qdswitch import csvio
    _, rows = _edge_float_rows(2 * WRITE_CHUNK_ROWS + 37, lambda k, i: i % 3 == 0)
    rows = [(a, b > 0.0) if WRITE_CHUNK_ROWS <= i < 2 * WRITE_CHUNK_ROWS else (a, b)
            for i, (a, b) in enumerate(rows)]
    float_chunks = []
    write_float_rows = csvio._write_float_rows

    def spy(f, chunk, width):
        float_chunks.append(len(chunk))
        write_float_rows(f, chunk, width)
    monkeypatch.setattr(csvio, "_write_float_rows", spy)
    path = write_csv(tmp_path / "t.csv", ["a", "b"], iter(rows))
    assert float_chunks == [WRITE_CHUNK_ROWS, 37]
    assert path.read_bytes() == _formatted(["a", "b"], rows)


def test_write_csv_all_float_rows_bad_width_in_second_chunk_leaves_no_file(tmp_path):
    _, rows = _edge_float_rows(2 * WRITE_CHUNK_ROWS + 37, lambda k, i: False)
    rows[WRITE_CHUNK_ROWS + 5] = rows[WRITE_CHUNK_ROWS + 5] * 2
    with pytest.raises(DomainError, match="width"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], iter(rows))
    assert not (tmp_path / "bad.csv").exists()


def _edge_float_table(n, width):
    """An n-row table of width columns across many magnitudes with EDGE_FLOATS
    sprinkled in: its columns, and its rows, whose values alternate between
    float and np.float64."""
    rng = np.random.default_rng(width * n)
    columns = rng.standard_normal((width, n)) * 10.0 ** rng.integers(-320, 300, (width, n))
    edge = rng.random((width, n)) < 0.1
    columns[edge] = rng.choice(EDGE_FLOATS, int(edge.sum()))
    rows = [tuple(np.float64(v) if (i + k) % 2 else v for k, v in enumerate(row))
            for i, row in enumerate(columns.T.tolist())]
    return list(columns), rows


@pytest.mark.parametrize("n", [1, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS,
                               WRITE_CHUNK_ROWS + 1, 2 * WRITE_CHUNK_ROWS + 37])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_write_csv_all_float_rows_of_any_width_take_one_kernel_call_per_chunk(
        tmp_path, monkeypatch, width, n):
    from qdswitch import floattext
    columns, rows = _edge_float_table(n, width)
    header = [f"c{k}" for k in range(width)]
    sizes = []
    float_text = floattext.float_text

    def spy(values):
        sizes.append(values.size)
        return float_text(values)
    monkeypatch.setattr(floattext, "float_text", spy)
    by_rows = write_csv(tmp_path / "rows.csv", header, iter(rows))
    assert sizes == [width * min(WRITE_CHUNK_ROWS, n - start)
                     for start in range(0, n, WRITE_CHUNK_ROWS)]
    monkeypatch.undo()
    by_columns = write_csv(tmp_path / "columns.csv", header, columns=columns)
    assert by_rows.read_bytes() == by_columns.read_bytes() == _formatted(header, rows)


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("width", [1, 3, 5])
def test_write_csv_all_float_row_of_wrong_width_inside_a_chunk_leaves_no_file(
        tmp_path, width, extra):
    _, rows = _edge_float_table(WRITE_CHUNK_ROWS + 37, width)
    row = rows[WRITE_CHUNK_ROWS // 2]
    rows[WRITE_CHUNK_ROWS // 2] = row[:extra] if extra < 0 else row + (1.0,)
    with pytest.raises(DomainError, match="width"):
        write_csv(tmp_path / "bad.csv", [f"c{k}" for k in range(width)], iter(rows))
    assert not (tmp_path / "bad.csv").exists()


def _sorted_edges(n):
    """n strictly increasing floats across many magnitudes, -inf to inf."""
    rng = np.random.default_rng(13)
    inner = np.unique(rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n))
    return np.concatenate([[-math.inf], inner[:n - 2], [math.inf]])


@pytest.mark.parametrize("column", [
    _sorted_edges(2 * WRITE_CHUNK_ROWS + 37),                      # strictly increasing
    np.repeat(_sorted_edges(WRITE_CHUNK_ROWS + 5), 2),             # increasing, not strictly
    np.array([-0.0, 0.0] * 3000 + [5e-324, math.nan]),             # few distinct bit patterns
])
def test_write_csv_float_column_kinds_match_per_value_formatting(tmp_path, column):
    table = np.column_stack([column, column[::-1]])
    path = write_csv(tmp_path / "k.csv", ["a", "b"], table)
    lines = ["a,b"] + [",".join(map(format_value, row)) for row in table.tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("period, count", [(1, 9000), (7, 1500), (3000, 3),
                                           (WRITE_CHUNK_ROWS + 5, 2), (5000, 1)])
def test_write_csv_periodic_column_formats_one_period(tmp_path, monkeypatch, period, count):
    # A column that holds two or more of its declared periods has one period
    # formatted; the rest of its text is taken from it, with per-value bytes.
    from qdswitch import floattext
    rng = np.random.default_rng(period)
    cycle = rng.standard_normal(period) * 10.0 ** rng.integers(-320, 300, period)
    cycle[::3] = rng.choice(EDGE_FLOATS, cycle[::3].size)
    column = np.tile(cycle, count)
    times = np.arange(column.size) * 0.25
    sizes = []
    float_text = floattext.float_text

    def spy(values):
        sizes.append(values.size)
        return float_text(values)
    monkeypatch.setattr(floattext, "float_text", spy)
    path = write_csv(tmp_path / "p.csv", ["t", "v"], columns=[times, column],
                     periods=(None, period))
    assert sum(sizes) == column.size + (period if count >= 2 else column.size)
    assert path.read_bytes() == _formatted(["t", "v"], zip(times.tolist(), column.tolist()))


def test_write_csv_trace_table_peak_memory_stays_below_the_table(tmp_path, device_elec,
                                                                 device_stark, device_cqed):
    # The switch trace table: a strictly increasing time column and an
    # intensity column that repeats every cycle.  A per-row index array or
    # a whole-column sort of the time axis exceeds this bound.
    drive = DriveSpec(0.0, 10.0, 12.5, cycles=30, samples_per_cycle=4096)
    trace = simulate_switching(drive, device_elec, device_stark, device_cqed, screening=0.2)
    table = np.array([trace.times, trace.values]).T
    write_csv(tmp_path / "trace.csv", ["time_ns", "intensity"], table)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "trace.csv", ["time_ns", "intensity"], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


@settings(max_examples=20, deadline=None)
@given(table=float_tables())
def test_write_csv_columns_match_the_stacked_table(tmp_path_factory, table):
    # columns= writes 1-D arrays as they are; the bytes are the 2-D table's.
    header = [f"c{k}" for k in range(table.shape[1])]
    out = tmp_path_factory.mktemp("columns")
    stacked = write_csv(out / "stacked.csv", header, table)
    by_columns = write_csv(out / "columns.csv", header, columns=list(table.T.copy()))
    assert by_columns.read_bytes() == stacked.read_bytes()


@pytest.mark.parametrize("columns", [
    [np.zeros(5)],                                  # too few for the header
    [np.zeros(5), np.zeros(5), np.zeros(5)],        # too many
    [np.zeros(5), np.zeros(4)],                     # unequal lengths
    [np.zeros((5, 1)), np.zeros((5, 1))],           # not 1-D
])
def test_write_csv_columns_of_wrong_shape_leave_no_file(tmp_path, columns):
    with pytest.raises(DomainError, match="shape"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], columns=columns)
    assert not (tmp_path / "bad.csv").exists()


def test_write_csv_takes_rows_or_columns(tmp_path):
    for kwargs in ({}, {"rows": np.zeros((2, 2)), "columns": [np.zeros(2)] * 2}):
        with pytest.raises(DomainError, match="rows or columns"):
            write_csv(tmp_path / "bad.csv", ["a", "b"], **kwargs)
    assert not (tmp_path / "bad.csv").exists()


def test_cli_switch_peak_memory_stays_near_the_trace(tmp_path):
    # The model runs on one cycle, the command writes the trace's two columns as
    # they are, and neither the CSV writer nor the manifest hash holds more
    # than a chunk or a block.
    cfg = tmp_path / "long.cfg"
    cfg.write_text("cycles = 30\nsamples_per_cycle = 4096\n", encoding="utf-8")
    argv = ["switch", "--preset", "paper", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert run_cli(*argv) == 0
    trace_bytes = 2 * 8 * (len((tmp_path / "o" / "switch_trace.csv").read_bytes()
                                .splitlines()) - 1)
    assert trace_bytes == 2 * 8 * 20 * 4096
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * trace_bytes


@pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 1), (5, 2, 1)])
def test_write_csv_array_of_wrong_shape_leaves_no_file(tmp_path, shape):
    with pytest.raises(DomainError, match="shape"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], np.zeros(shape))
    assert not (tmp_path / "bad.csv").exists()


def test_write_csv_bad_row_leaves_no_file(tmp_path):
    from qdswitch import DomainError
    rows = [(1.0, 2.0)] * 5000 + [(1.0,)]
    with pytest.raises(DomainError, match="width"):
        write_csv(tmp_path / "bad.csv", ["a", "b"], rows)
    assert not (tmp_path / "bad.csv").exists()


def test_sha256_file_spans_several_blocks(tmp_path):
    from qdswitch.manifest import HASH_BLOCK_BYTES, sha256_file
    data = np.random.default_rng(5).bytes(2 * HASH_BLOCK_BYTES + 123)
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


# -- spectrum ingestion ----------------------------------------------------------

def test_ingest_wavelength_mode_conversion(tmp_path):
    path = write_csv(tmp_path / "wl.csv", ["wavelength_nm", "intensity"],
                     [(935.0, 1.0), (935.21, 0.8)])
    spec = ingest_spectrum_csv(path, 935.0)
    shifts_mev = spec.detunings / TWO_PI / GHZ_PER_MEV
    # 0.21 nm red of the reference -> about -0.2978 meV
    assert shifts_mev[0] == pytest.approx(-0.2978, rel=1e-3)
    assert shifts_mev[1] == pytest.approx(0.0, abs=1e-12)


def test_ingest_small_wavelength_shift(tmp_path):
    path = write_csv(tmp_path / "wl.csv", ["wavelength_nm", "intensity"],
                     [(935.0, 1.0), (935.03, 0.9)])
    spec = ingest_spectrum_csv(path, 935.0)
    ghz = abs(spec.detunings[0]) / TWO_PI
    assert ghz == pytest.approx(10.288, rel=1e-3)
    # the quoted 0.04 meV equivalence holds to ~10%
    assert ghz / GHZ_PER_MEV == pytest.approx(0.04, rel=0.1)


def test_ingest_sorts_and_deduplicates(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["detuning_GHz", "intensity"],
                     [(5.0, 1.0), (-5.0, 2.0), (5.0, 1.0)])
    spec = ingest_spectrum_csv(path)
    assert len(spec) == 2
    assert spec.detunings[0] < spec.detunings[1]


def test_ingest_rejects_conflicting_duplicates(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["detuning_GHz", "intensity"],
                     [(5.0, 1.0), (5.0, 2.0)])
    with pytest.raises(IngestError, match="conflicting"):
        ingest_spectrum_csv(path)


def test_ingest_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(IngestError, match="empty"):
        ingest_spectrum_csv(path)


def test_ingest_reports_bad_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("detuning_GHz,intensity\n1.0,2.0\nx,3.0\n", encoding="utf-8")
    with pytest.raises(IngestError, match="bad.csv:3"):
        ingest_spectrum_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body, message", [
    ("1.0,2.0\n3.0\n4.0,x\n", "bad.csv:3: expected 2 values"),
    ("1.0,2.0\n4.0,x\n3.0\n", "bad.csv:3: non-numeric value"),
    ("1.0,2.0,9.0\n3.0,4.0,9.0\n", "bad.csv:2: expected 2 values"),
    # blank lines are not counted: the bad row is the third non-blank line
    ("\n1.0,2.0\n\n4.0,x\n", "bad.csv:3: non-numeric value"),
    ("1.0,2.0\n \t \n3.0\n", "bad.csv:3: expected 2 values"),
    ("1.0,2.0\r\n\r\n4.0,x\r\n", "bad.csv:3: non-numeric value"),
    ("1.0,2.0\n3.0", "bad.csv:3: expected 2 values"),
])
def test_ingest_names_first_malformed_row(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("detuning_GHz,intensity\n" + body, encoding="utf-8")
    with pytest.raises(IngestError, match=message):
        ingest_spectrum_csv(path)


# name -> the clean file's text laid out another way
LAYOUTS = {
    "empty lines between rows": lambda clean: clean.replace("\n", "\n\n"),
    "blank lines before the header": lambda clean: "\n \n\n" + clean,
    "whitespace-only lines": lambda clean: clean.replace("\n", "\n \t\n"),
    "CRLF endings": lambda clean: clean.replace("\n", "\r\n"),
    "no final newline": lambda clean: clean[:-1],
    "all at once": lambda clean: "\r\n\t\r\n" + clean[:-1].replace("\n", "\r\n \r\n\r\n"),
}

LAYOUT_VALUES = np.random.default_rng(11).uniform(-1.0, 1.0, (40, 2)) * [100.0, 1.0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("header, ingest, fields", [
    (("detuning_GHz", "intensity"), ingest_spectrum_csv, ("detunings", "intensities")),
    (("voltage_V", "shift_meV"), ingest_shift_csv, ("voltages", "shifts_mev")),
])
def test_ingest_reads_every_line_layout_like_the_clean_file(tmp_path, layout, header,
                                                            ingest, fields):
    values = np.abs(LAYOUT_VALUES) if ingest is ingest_spectrum_csv else LAYOUT_VALUES
    clean = write_csv(tmp_path / "clean.csv", header, values).read_text(encoding="utf-8")
    path = tmp_path / "laid_out.csv"
    path.write_bytes(LAYOUTS[layout](clean).encode("utf-8"))
    want, got = ingest(tmp_path / "clean.csv"), ingest(path)
    for field in fields:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_ingest_reads_every_float_syntax(tmp_path):
    # "1_0" and " 2 " are valid float() input that numpy's text parser
    # may reject; either way they are read like float() reads them.
    path = tmp_path / "s.csv"
    path.write_text("voltage_V,shift_meV\n1_0, 2 \n\n12.5,-0.25\n", encoding="utf-8")
    data = ingest_shift_csv(path)
    assert data.voltages.tolist() == [10.0, 12.5]
    assert data.shifts_mev.tolist() == [2.0, -0.25]
    assert data.voltages.flags.c_contiguous


def test_ingest_merges_grid_points_within_tolerance(tmp_path):
    x = 100.0
    near = x * (1.0 + 5e-13)
    path = write_csv(tmp_path / "d.csv", ["detuning_GHz", "intensity"],
                     [(x, 1.0), (near, 1.0 + 1e-12), (-x, 0.5), (x, 1.0)])
    spec = ingest_spectrum_csv(path)
    assert spec.detunings.tolist() == [-TWO_PI * x, TWO_PI * x]
    assert spec.intensities.tolist() == [0.5, 1.0]


def test_ingest_rejects_unknown_header(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["frequency_THz", "intensity"],
                     [(1.0, 1.0)])
    with pytest.raises(IngestError, match="first column"):
        ingest_spectrum_csv(path)


def test_ingest_shift_csv_contract(tmp_path):
    path = write_csv(tmp_path / "s.csv", ["voltage_V", "shift_meV"],
                     [(5.0, 0.1), (7.0, 0.3)])
    data = ingest_shift_csv(path)
    assert data.voltages.tolist() == [5.0, 7.0]
    with pytest.raises(IngestError, match="header"):
        ingest_shift_csv(write_csv(tmp_path / "bad.csv", ["v", "shift"],
                                   [(1.0, 2.0)]))


# -- CLI ---------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_cli_stark_contract(tmp_path):
    out = tmp_path / "run"
    assert run_cli("stark", "--preset", "paper", "--out", str(out)) == 0
    lines = (out / "stark.csv").read_text().splitlines()
    assert lines[0] == "voltage_V,x_d_um,field_V_per_um,shift_meV,extrapolated"
    assert len(lines) == 102
    rows = [line.split(",") for line in lines[1:]]
    by_voltage = {float(r[0]): r for r in rows}
    assert float(by_voltage[7.0][2]) == pytest.approx(4.1637, rel=1e-3)
    assert float(by_voltage[7.0][3]) == pytest.approx(0.2975, rel=1e-3)
    assert by_voltage[7.0][4] == "0"
    assert by_voltage[10.0][4] == "1"  # beyond the fitted field range
    assert (out / "manifest.txt").is_file()


def test_cli_switch_preset_matches_reported_ratio(tmp_path):
    out = tmp_path / "run"
    assert run_cli("switch", "--preset", "paper", "--out", str(out)) == 0
    summary = dict(
        line.split(",")[:2]
        for line in (out / "switch_summary.csv").read_text().splitlines()[1:])
    assert float(summary["on_off_ratio"]) == pytest.approx(1.3, abs=0.1)
    assert summary["calibrated"] == "1"
    trace_lines = (out / "switch_trace.csv").read_text().splitlines()
    assert trace_lines[0] == "time_ns,intensity"
    assert len(trace_lines) > 1000


def _switch_ratio(tmp_path, name, overlay):
    """The manifest's on/off ratio text of a paper-preset switch run."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(overlay, encoding="utf-8")
    out = tmp_path / name
    assert run_cli("switch", "--preset", "paper", "--config", str(cfg), "--out", str(out)) == 0
    return read_manifest(out / "manifest.txt")["summary.on_off_ratio"]


def test_cli_switch_ratio_on_a_slow_line_does_not_depend_on_cycles(tmp_path):
    # A 5 MHz line settles over many 150 MHz cycles.  Dropping the first third
    # of the cycles as transient read 1.0, 1.0036 and 1.0102980501651808 here.
    ratios = {_switch_ratio(tmp_path, f"c{cycles}", f"rc_cutoff_mhz = 5\ncycles = {cycles}\n")
              for cycles in (3, 9, 300)}
    assert len(ratios) == 1
    assert float(ratios.pop()) == pytest.approx(1.0102980501651808, rel=1e-9)


def test_cli_switch_on_a_line_too_slow_to_move_is_flat(tmp_path):
    # tau overflows to inf: the line stays at v_low, so the intensity is constant.
    assert _switch_ratio(tmp_path, "still", "rc_cutoff_mhz = 1e-310\n") == "1.0"


def test_cli_switch_rejects_an_infinite_on_off_ratio(tmp_path, capsys):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("contrast_targets =\ngamma_ghz = 1e-160\namplitude = 1e300\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("switch", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DegenerateTraceError"
    assert record["message"] == "on/off ratio must be finite, got inf"
    assert not out.exists() or not list(out.iterdir())


def test_cli_spectrum_and_metrics(tmp_path):
    out1 = tmp_path / "spec"
    assert run_cli("spectrum", "--preset", "paper", "--out", str(out1)) == 0
    lines = (out1 / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "detuning_GHz,reflectivity,pl"
    assert len(lines) == 602

    out2 = tmp_path / "met"
    assert run_cli("metrics", "--preset", "paper", "--out", str(out2)) == 0
    rows = dict(
        line.split(",")[:2]
        for line in (out2 / "metrics.csv").read_text().splitlines()[1:])
    assert float(rows["max_bandwidth_GHz"]) == pytest.approx(40.0)
    assert float(rows["weak_coupling_bandwidth_GHz"]) == pytest.approx(19.96, abs=0.01)
    assert rows["coupling_regime"] == "onset"
    assert float(rows["switching_energy_fJ"]) == pytest.approx(0.2855, rel=1e-3)
    assert float(rows["onset_voltage_V"]) == pytest.approx(3.19, abs=0.01)


def test_cli_spectrum_on_a_far_grid_exits_0_with_finite_cells(tmp_path):
    # Far out on the grid each PL term's square overflows; the term's limit
    # there, 0.0, is the value written, so the run must not warn either
    # (the suite turns a RuntimeWarning into an error).
    cfg = tmp_path / "far.cfg"
    cfg.write_text("detuning_stop_ghz = 1e307\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli("spectrum", "--preset", "paper", "--config", str(cfg),
                   "--out", str(out)) == 0
    cells = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
    assert cells.shape == (601, 3)
    assert np.isfinite(cells).all()


def test_cli_array_outputs_match_per_value_formatting(tmp_path):
    from qdswitch import pl_spectrum, reflectivity_spectrum, simulate_switching
    from qdswitch.cli import _calibrated_cqed, _preset_path
    long_cfg = tmp_path / "long.cfg"
    long_cfg.write_text("cycles = 6\nsamples_per_cycle = 4096\ndrive_mhz = 10\n",
                        encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("switch", "--preset", "paper", "--config", str(long_cfg),
                   "--out", str(out)) == 0
    assert run_cli("spectrum", "--preset", "paper", "--out", str(out)) == 0

    cfg = parse_config(_preset_path("paper"), long_cfg)
    cqed, screening, _ = _calibrated_cqed(cfg)
    trace = simulate_switching(
        cfg.drive_spec(), cfg.electrostatic_params(), cfg.stark_coefficients(), cqed,
        screening=screening, probe_freq=cqed.dot_freq + TWO_PI * cfg["probe_detuning_ghz"],
        field_sign=cfg["field_sign"])
    # several chunks, and a settled steady state that repeats each cycle
    assert trace.times.size > 2 * WRITE_CHUNK_ROWS
    assert 2 * np.unique(trace.values).size < trace.values.size
    lines = ["time_ns,intensity"] + [f"{format_value(t)},{format_value(v)}"
                                     for t, v in zip(trace.times, trace.values)]
    assert (out / "switch_trace.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    grid = cfg.detuning_grid()
    cqed = cfg.cqed_params()
    rows = write_csv(tmp_path / "rows.csv", ["detuning_GHz", "reflectivity", "pl"],
                     zip((grid / TWO_PI).tolist(),
                         reflectivity_spectrum(cqed, grid).intensities.tolist(),
                         pl_spectrum(cqed, grid).intensities.tolist()))
    assert (out / "spectrum.csv").read_bytes() == rows.read_bytes()


def test_cli_outputs_byte_identical_across_reruns(tmp_path):
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("switch", "--preset", "paper", "--out", str(out),
                       "--seed", "5") == 0
        digests.append([
            hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("switch_trace.csv", "switch_summary.csv")
        ])
    assert digests[0] == digests[1]


def test_cli_manifest_digest_matches_config(tmp_path):
    cfg = tmp_path / "my.cfg"
    cfg.write_text("drive_mhz = 80\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli("switch", "--preset", "paper", "--config", str(cfg),
                   "--out", str(out), "--seed", "9") == 0
    manifest = read_manifest(out / "manifest.txt")
    expected = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["input.config.sha256"] == expected
    assert manifest["seed"] == "9"
    assert manifest["config.drive_mhz"] == "80.0"
    assert "input.preset.sha256" in manifest
    assert manifest["output.switch_trace.csv.sha256"] == hashlib.sha256(
        (out / "switch_trace.csv").read_bytes()).hexdigest()


def test_cli_fit_stark_roundtrip(tmp_path, device_elec, device_stark):
    volts = np.linspace(0.0, 10.0, 21)
    data = tmp_path / "shifts.csv"
    write_csv(data, ["voltage_V", "shift_meV"],
              zip(volts, stark_model(device_elec, device_stark, volts)))
    out = tmp_path / "fit"
    assert run_cli("fit", "--kind", "stark", "--preset", "paper",
                   "--data", str(data), "--out", str(out)) == 0
    rows = dict(
        line.split(",")[:2]
        for line in (out / "fit_report.csv").read_text().splitlines()[1:])
    assert float(rows["dipole_mev_um_per_v"]) == pytest.approx(-0.009, rel=1e-8)
    assert float(rows["polarizability_mev_um2_per_v2"]) \
        == pytest.approx(-0.015, rel=1e-8)
    assert rows["converged"] == "1"


def test_cli_fit_spectrum_from_file(tmp_path):
    from qdswitch import CqedParams, reflectivity_spectrum
    truth = CqedParams(0.0, 0.0, TWO_PI * 18.0, TWO_PI * 42.0, TWO_PI * 6.0)
    grid = TWO_PI * np.linspace(-120.0, 120.0, 401)
    spec = reflectivity_spectrum(truth, grid)
    data = tmp_path / "spec.csv"
    write_csv(data, ["detuning_GHz", "intensity"],
              zip(grid / TWO_PI, spec.intensities))
    cfg = tmp_path / "start.cfg"
    cfg.write_text("g_ghz = 21\nkappa_ghz = 38\ngamma_ghz = 5\n", encoding="utf-8")
    out = tmp_path / "fit"
    assert run_cli("fit", "--kind", "spectrum", "--config", str(cfg),
                   "--data", str(data), "--out", str(out)) == 0
    rows = dict(
        line.split(",")[:2]
        for line in (out / "fit_report.csv").read_text().splitlines()[1:])
    assert float(rows["coupling"]) / TWO_PI == pytest.approx(18.0, rel=1e-6)
    assert float(rows["cavity_decay"]) / TWO_PI == pytest.approx(42.0, rel=1e-6)
    assert float(rows["dot_decay"]) / TWO_PI == pytest.approx(6.0, rel=1e-6)


def test_cli_fit_contrast_via_preset(tmp_path):
    out = tmp_path / "fit"
    assert run_cli("fit", "--kind", "contrast", "--preset", "paper",
                   "--out", str(out)) == 0
    rows = dict(
        line.split(",")[:2]
        for line in (out / "fit_report.csv").read_text().splitlines()[1:])
    assert float(rows["dot_decay"]) / TWO_PI == pytest.approx(17.06, abs=0.5)
    assert float(rows["screening"]) == pytest.approx(0.107, abs=0.01)


def test_cli_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n", encoding="utf-8")
    code = run_cli("metrics", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_code"] == 1
    assert "mystery" in record["message"]


@pytest.mark.parametrize("key, value", [("v_high_v", "inf"), ("drive_mhz", "nan"),
                                        ("contrast_targets", "10:nan, 14:2"),
                                        ("v_step", "nan"), ("probe_detuning_ghz", "nan"),
                                        ("phi_v", "inf"), ("g_ghz", "nan"),
                                        ("detuning_start_ghz", "nan")])
def test_cli_non_finite_value_names_its_key(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("switch", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert key in record["message"]
    assert not (out / "switch_trace.csv").exists()


@pytest.mark.parametrize("key", ["v_high_v", "v_low_v", "v_start", "bias_v"])
def test_cli_negative_rail_names_its_own_key(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = -1\n", encoding="utf-8")
    code = run_cli("switch", "--preset", "paper", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")


@pytest.mark.parametrize("command", ["switch", "metrics"])
def test_cli_rejects_negative_kappa(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kappa_ghz = -5\n", encoding="utf-8")
    code = run_cli(command, "--preset", "paper", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert "kappa_ghz" in record["message"]


@pytest.mark.parametrize("key", ["cavity_offset_ghz", "dot_offset_ghz"])
def test_cli_metrics_rejects_a_non_finite_figure(tmp_path, capsys, key):
    # Finite offsets whose half difference overflows when squared: the
    # splitting comes out inf, which must not reach metrics.csv.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(f"{key} = 1e300\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("metrics", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DomainError"
    assert "vacuum_rabi_splitting_GHz" in record["message"]
    assert not (out / "metrics.csv").exists()


# These inputs make numpy warn on the way to the non-finite value; the
# warning is expected stderr text here, the exit code and files are checked.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_stark_rejects_a_non_finite_column(tmp_path, capsys):
    # A donor density whose product with the charge underflows to zero
    # makes the depletion width infinite.
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("nd_cm3 = 1e-300\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("stark", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DomainError"
    assert "column x_d_um must be finite, got " in record["message"]
    assert not (out / "stark.csv").exists()
    assert not (out / "manifest.txt").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("override", ["dot_offset_ghz = 1e300", "q_factor = 1e300",
                                      "nd_cm3 = 1e-300"])
def test_cli_fit_contrast_rejects_a_non_finite_residual(tmp_path, capsys, override):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(override + "\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("fit", "--kind", "contrast", "--preset", "paper", "--config", str(cfg),
                   "--out", str(out))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DomainError"
    assert "parameter residual_norm must be finite, got " in record["message"]
    assert not (out / "fit_report.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("override", ["dot_offset_ghz = 1e300", "q_factor = 1e300",
                                      "nd_cm3 = 1e-300"])
def test_cli_switch_rejects_a_non_finite_calibration_residual(tmp_path, capsys, override):
    # The residual is NaN from the start point on: the device values are at
    # fault, so the refusal must not blame contrast_targets.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(override + "\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("switch", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DomainError"
    assert "calibration residual_norm must be finite, got " in record["message"]
    assert not list(out.glob("*.csv"))


# Sizes beyond the 47-bit address space: numpy refuses the allocation up
# front, even with memory overcommit, so no real memory is touched.
@pytest.mark.parametrize("command, overrides", [
    ("metrics", "detuning_points = 140737488355328"),
    ("stark", "detuning_points = 140737488355328"),
    ("switch", "cycles = 16777216\nsamples_per_cycle = 8388608"),
])
def test_cli_unallocatable_size_is_a_numeric_error(tmp_path, capsys, command, overrides):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(overrides + "\n", encoding="utf-8")
    code = run_cli(command, "--preset", "paper", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_code"] == 2
    assert "Unable to allocate" in record["message"]


def test_cli_unknown_preset_is_a_config_error(tmp_path, capsys):
    code = run_cli("stark", "--preset", "no_such_preset", "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert "unknown preset 'no_such_preset'" in record["message"]


@pytest.mark.parametrize("bias", ["0", "3"])
@pytest.mark.parametrize("volts, couplings, key", [
    ("5, 3", "20, 10", "g_anchor_v"),
    ("0, 7", "20, -1", "g_anchor_ghz"),
    ("0, 7, 9", "20, 10", "g_anchor_ghz"),
    ("7", "20", "g_anchor_ghz"),
    ("0, 5", "20, 1e308", "g_anchor_ghz"),
    ("0, 5", "20, 1e200", "g_anchor_ghz"),  # interpolated g ** 2 would overflow
])
def test_cli_rejects_bad_coupling_anchors_at_any_bias(tmp_path, capsys, volts, couplings,
                                                      key, bias):
    # bias_v = 0 never interpolates the anchors; they are checked anyway.
    cfg = tmp_path / "anchors.cfg"
    cfg.write_text(f"g_anchor_v = {volts}\ng_anchor_ghz = {couplings}\nbias_v = {bias}\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("spectrum", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert not (out / "spectrum.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("g_anchor_v = 5, 3\n",
     "g_anchor_v must be strictly increasing, got 3.0 (config key g_anchor_v)"),
    ("g_anchor_v = 0, 7\ng_anchor_ghz = 20, -1\n",
     "g_anchor_ghz must be in [0, 2.13392e+153], got -1.0 (config key g_anchor_ghz)"),
    ("g_anchor_v = 0, 7, 9\ng_anchor_ghz = 20, 10\n",
     "g_anchor_ghz must give one coupling per g_anchor_v voltage, got 2 for 3 "
     "(config key g_anchor_ghz)"),
    ("contrast_targets = 10:1.5\n",
     "contrast_targets voltages must be 1-D with >= 2 values, got shape (1,) "
     "(config key contrast_targets)"),
    ("contrast_targets = 10:1.5, 14:0.5\n",
     "contrast_targets ratios must be >= 1, got 0.5 (config key contrast_targets)"),
], ids=["anchor-order", "anchor-range", "anchor-count", "one-target", "target-ratio"])
def test_config_list_key_names_its_first_bad_value(tmp_path, text, message):
    cfg = tmp_path / "lists.cfg"
    cfg.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == message


def test_config_anchors_and_free_set_come_out_parsed(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("g_anchor_v = 0, 7\ng_anchor_ghz = 20, 15\n"
                   "fit_free = dot_decay, , coupling,\n", encoding="utf-8")
    parsed = parse_config(cfg)
    assert parsed.g_anchors() == ((0.0, TWO_PI * 20.0), (7.0, TWO_PI * 15.0))
    assert parsed.fit_free() == ["dot_decay", "coupling"]
    assert parsed["fit_free"] == "dot_decay, , coupling,"


def test_zero_kappa_derives_cavity_decay_from_q(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("kappa_ghz = 0\n", encoding="utf-8")
    derived = parse_config(cfg)
    assert derived.cavity_decay() == kappa_from_q(derived.optical_frame())


def test_cli_switch_refuses_unreachable_contrast_targets(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("contrast_targets = 10:50, 14:1.01\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli("switch", "--preset", "paper", "--config", str(cfg), "--out", str(out))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert "contrast_targets" in record["message"]
    assert not (out / "switch_trace.csv").exists()
    # the fit itself still reports how far it got
    assert run_cli("fit", "--kind", "contrast", "--preset", "paper", "--config", str(cfg),
                   "--out", str(tmp_path / "fit")) == 0
    rows = dict(line.split(",")[:2] for line in
                (tmp_path / "fit" / "fit_report.csv").read_text().splitlines()[1:])
    assert float(rows["residual_norm"]) > 1.0


def test_cli_exit_code_numeric_error(tmp_path, capsys):
    # every point below the depletion onset: degenerate stark fit
    volts = np.linspace(0.0, 2.0, 8)
    data = tmp_path / "shifts.csv"
    write_csv(data, ["voltage_V", "shift_meV"], zip(volts, np.zeros_like(volts)))
    code = run_cli("fit", "--kind", "stark", "--preset", "paper",
                   "--data", str(data), "--out", str(tmp_path / "o"))
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DegenerateFitError"


@pytest.mark.parametrize("row", ["6,nan", "6,inf", "6,-inf", "nan,0.05"])
def test_cli_fit_stark_rejects_non_finite_data(tmp_path, capsys, row):
    data = tmp_path / "shifts.csv"
    data.write_text("voltage_V,shift_meV\n4,0.01\n" + row
                    + "\n8,0.05\n10,0.1\n12,0.2\n")
    out = tmp_path / "o"
    code = run_cli("fit", "--kind", "stark", "--preset", "paper",
                   "--data", str(data), "--out", str(out))
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "IngestError"
    assert str(data) in record["message"]
    assert not (out / "fit_report.csv").exists()


def test_cli_exit_code_io_error(tmp_path, capsys):
    code = run_cli("fit", "--kind", "stark", "--preset", "paper",
                   "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o"))
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_code"] == 3


def test_cli_unknown_preset(tmp_path, capsys):
    code = run_cli("metrics", "--preset", "nope", "--out", str(tmp_path / "o"))
    assert code == 1
