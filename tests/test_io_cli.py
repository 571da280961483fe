import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdswitch import (
    ConfigError,
    DomainError,
    DriveSpec,
    IngestError,
    kappa_from_q,
    simulate_switching,
)
from qdswitch import cli, fitting
from qdswitch.cli import main
from qdswitch.config import _KEYS, parse_config
from qdswitch.constants import GHZ_PER_MEV
from qdswitch.cqed import WAVELENGTH_RANGE_NM
from qdswitch.csvio import (
    COLUMN_RANGES,
    WRITE_CHUNK_ROWS,
    format_value,
    ingest_shift_csv,
    ingest_spectrum_csv,
    write_csv,
)
from qdswitch.fitting import FitResult, stark_model
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


# Each key that builds a library type: a one-key config with an in-domain value
# moves (builder, field) to the given value, or only away from its default
# when None, and no other field of any builder.  A *_ghz key lands x 2 pi.
_BUILDERS = ("electrostatic_params", "stark_coefficients", "optical_frame",
             "cqed_params", "drive_spec")
KEY_MOVES = {
    "nd_cm3": ("1e16", {("electrostatic_params", "donor_density_cm3"): 1e16}),
    "phi_v": ("0.5", {("electrostatic_params", "barrier_potential_v"): 0.5}),
    "eps_r": ("13.5", {("electrostatic_params", "relative_permittivity"): 13.5}),
    "dx_um": ("0.9", {("electrostatic_params", "electrode_distance_um"): 0.9}),
    "dipole_mev_um_per_v": ("0.004", {("stark_coefficients", "dipole_mev_um_per_v"): 0.004}),
    "polarizability_mev_um2_per_v2": (
        "-0.02", {("stark_coefficients", "polarizability_mev_um2_per_v2"): -0.02}),
    "lambda0_nm": ("950", {("optical_frame", "reference_wavelength_nm"): 950.0,
                           ("cqed_params", "cavity_decay"): None}),
    "q_factor": ("5000", {("optical_frame", "quality_factor"): 5000.0,
                          ("cqed_params", "cavity_decay"): None}),
    "kappa_ghz": ("30", {("cqed_params", "cavity_decay"): TWO_PI * 30.0}),
    "cavity_offset_ghz": ("3", {("cqed_params", "cavity_freq"): TWO_PI * 3.0}),
    "dot_offset_ghz": ("-2", {("cqed_params", "dot_freq"): TWO_PI * -2.0}),
    "g_ghz": ("15", {("cqed_params", "coupling"): TWO_PI * 15.0}),
    "gamma_ghz": ("0.2", {("cqed_params", "dot_decay"): TWO_PI * 0.2}),
    "amplitude": ("2", {("cqed_params", "amplitude"): 2.0}),
    "background": ("0.1", {("cqed_params", "background"): 0.1}),
    "v_low_v": ("1", {("drive_spec", "v_low"): 1.0}),
    "v_high_v": ("8", {("drive_spec", "v_high"): 8.0}),
    "drive_mhz": ("200", {("drive_spec", "frequency_mhz"): 200.0}),
    "duty": ("0.25", {("drive_spec", "duty"): 0.25}),
    "rc_cutoff_mhz": ("80", {("drive_spec", "rc_cutoff_mhz"): 80.0}),
    "cycles": ("12", {("drive_spec", "cycles"): 12}),
    "samples_per_cycle": ("128", {("drive_spec", "samples_per_cycle"): 128}),
}
# Every other key, as config text with an in-domain value: it moves no field.
UNBUILT = {
    "field_sign": "field_sign = 1", "fit_field_limit_v_per_um": "fit_field_limit_v_per_um = 4",
    "screening": "screening = 0.5", "probe_detuning_ghz": "probe_detuning_ghz = 5",
    "g_anchor_v": "g_anchor_v = 0, 5\ng_anchor_ghz = 20, 25",
    "g_anchor_ghz": "g_anchor_v = 1, 6\ng_anchor_ghz = 15, 25",
    "contrast_targets": "contrast_targets = 10:1.5, 14:2", "v_start": "v_start = 1",
    "v_stop": "v_stop = 9", "v_step": "v_step = 0.2",
    "detuning_start_ghz": "detuning_start_ghz = -100",
    "detuning_stop_ghz": "detuning_stop_ghz = 100",
    "detuning_points": "detuning_points = 101", "bias_v": "bias_v = 3",
    "active_volume_um3": "active_volume_um3 = 0.3",
    "energy_field_v_per_um": "energy_field_v_per_um = 4", "fit_free": "fit_free = coupling",
    "seed": "seed = 7",
}


def _built_fields(tmp_path, text):
    path = tmp_path / "one.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    cfg = parse_config(path)
    return {(builder, name): value for builder in _BUILDERS
            for name, value in vars(getattr(cfg, builder)()).items()}


def test_key_tables_cover_every_config_key():
    assert not set(KEY_MOVES) & set(UNBUILT)
    assert set(KEY_MOVES) | set(UNBUILT) == set(_KEYS)


@pytest.mark.parametrize("key", sorted(KEY_MOVES))
def test_each_type_backed_key_moves_only_its_field(tmp_path, key):
    text, moves = KEY_MOVES[key]
    default = _built_fields(tmp_path, "")
    built = _built_fields(tmp_path, f"{key} = {text}")
    assert {site for site in built if built[site] != default[site]} == set(moves)
    for site, expected in moves.items():
        if expected is not None:
            assert type(built[site]) is type(expected) and built[site] == expected


@pytest.mark.parametrize("key", sorted(UNBUILT))
def test_a_key_no_type_holds_moves_no_field(tmp_path, key):
    assert _built_fields(tmp_path, UNBUILT[key]) == _built_fields(tmp_path, "")


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
    # A 2-D table's bytes do not depend on its memory order: a column-major
    # view writes the same file as the row-major stack.
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


def test_write_csv_needs_a_header(tmp_path):
    with pytest.raises(DomainError, match="header must not be empty"):
        write_csv(tmp_path / "bad.csv", [], columns=[])
    assert not (tmp_path / "bad.csv").exists()


_FLOATS = _sorted_edges(WRITE_CHUNK_ROWS + 37)


@pytest.mark.parametrize("columns", [
    [np.array([1, 2]), np.array([True, False])],
    [np.arange(-3, WRITE_CHUNK_ROWS + 34, dtype=np.int64), _FLOATS > 0.0],
    [_FLOATS, _FLOATS > 1.0],
    [np.array([0.1, -0.0, 3e38, math.inf, math.nan], dtype=np.float32),
     np.array([1e-4, 5e-324, 2.5, -1.0, 1e16])],
    [np.array(["weak", "strong"]), np.array([0.1, 0.2])],
], ids=["int and bool", "int64 and bool, two chunks", "float and bool, two chunks",
        "float32 and float64", "text and float"])
def test_write_csv_columns_of_any_dtype_give_per_value_bytes(tmp_path, columns):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], columns=columns)
    assert path.read_bytes() == _formatted(["a", "b"], zip(*columns))


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


def test_ingest_wavelength_reference_defaults_to_the_config_lambda0(tmp_path):
    path = write_csv(tmp_path / "wl.csv", ["wavelength_nm", "intensity"],
                     [(934.6, 0.7), (935.0, 1.0), (935.21, 0.8)])
    default = ingest_spectrum_csv(path)
    configured = ingest_spectrum_csv(path, parse_config()["lambda0_nm"])
    assert default.detunings.tobytes() == configured.detunings.tobytes()
    assert default.intensities.tobytes() == configured.intensities.tobytes()


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
    # blank and whitespace-only lines are counted: each names the file's line
    ("\n1.0,2.0\n\n4.0,x\n", "bad.csv:5: non-numeric value"),
    ("1.0,2.0\n \t \n3.0\n", "bad.csv:4: expected 2 values"),
    ("1.0,2.0\r\n\r\n4.0,x\r\n", "bad.csv:4: non-numeric value"),
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
    # Intensities and voltages are >= 0; Stark shifts keep their signs.
    values = np.abs(LAYOUT_VALUES)
    if ingest is ingest_shift_csv:
        values[:, 1] = LAYOUT_VALUES[:, 1]
    clean = write_csv(tmp_path / "clean.csv", header, values).read_text(encoding="utf-8")
    path = tmp_path / "laid_out.csv"
    path.write_bytes(LAYOUTS[layout](clean).encode("utf-8"))
    want, got = ingest(tmp_path / "clean.csv"), ingest(path)
    for field in fields:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


# header -> (ingest, interior rows of a valid file); no value repeats in its
# column, with the range ends added either, so each row's text is unique.
RANGE_FILES = {
    ("detuning_GHz", "intensity"): (
        ingest_spectrum_csv, np.column_stack([np.linspace(-100.0, 100.0, 6),
                                              np.linspace(0.1, 1.0, 6)])),
    ("wavelength_nm", "intensity"): (
        ingest_spectrum_csv, np.column_stack([np.linspace(934.5, 935.5, 6),
                                              np.linspace(0.1, 1.0, 6)])),
    ("voltage_V", "shift_meV"): (
        ingest_shift_csv, np.column_stack([np.linspace(1.0, 14.0, 6),
                                           np.linspace(-0.3, 0.3, 6)])),
}


@st.composite
def range_cases(draw):
    """(header, ingest, rows, reference, (row, column, bad value)): a valid
    file, its first two rows at its columns' range ends, the reference for a
    wavelength file, and a value just outside a range, or not finite, to
    plant in any row and column."""
    header = draw(st.sampled_from(sorted(RANGE_FILES)))
    ingest, interior = RANGE_FILES[header]
    (lo0, hi0), (lo1, hi1) = (COLUMN_RANGES[name] for name in header)
    rows = np.vstack([[[lo0, lo1], [hi0, hi1]], interior[:draw(st.integers(0, 6))]])
    reference = draw(st.sampled_from([*WAVELENGTH_RANGE_NM, 935.0]))
    column = draw(st.integers(0, 1))
    low, high = COLUMN_RANGES[header[column]]
    bad = draw(st.sampled_from([math.nextafter(low, -math.inf), math.nextafter(high, math.inf),
                                math.inf, -math.inf, math.nan]))
    return header, ingest, rows, reference, (draw(st.integers(0, len(rows) - 1)), column, bad)


@settings(max_examples=200, deadline=None)
@given(case=range_cases(), layout=st.sampled_from(sorted(LAYOUTS)))
def test_ingest_names_the_line_and_column_of_a_value_outside_its_range(tmp_path_factory, case,
                                                                      layout):
    header, ingest, rows, reference, (row, column, bad) = case

    def read(path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return ingest(path, reference) if header[0] == "wavelength_nm" else ingest(path)

    folder = tmp_path_factory.mktemp("ranges")
    clean = folder / "clean.csv"
    clean.write_text(LAYOUTS[layout](_rows(",".join(header), *rows.T)), encoding="utf-8")
    for values in dataclasses.astuple(read(clean)):  # every range end ingests, finite
        assert values.shape == (len(rows),) and np.isfinite(values).all()
    planted = rows.copy()
    planted[row, column] = bad
    text = LAYOUTS[layout](_rows(",".join(header), *planted.T))
    path = folder / "planted.csv"
    path.write_text(text, encoding="utf-8")
    # The physical line of the planted row, blank and whitespace-only lines counted.
    row_text = ",".join(map(repr, planted[row].tolist()))
    line = 1 + [physical.strip() for physical in text.splitlines()].index(row_text)
    low, high = COLUMN_RANGES[header[column]]
    rule = f"be in [{low:g}, {high:g}]" if math.isfinite(bad) else "be finite"
    with pytest.raises(IngestError) as info:
        read(path)
    assert str(info.value) == f"{path}:{line}: {header[column]} must {rule}, got {bad}"


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


# Values far past their key's range, with which a run used to reach a refusal
# (or, for a line too slow to move and a far PL grid, ran): each now exits 1 at
# load naming its key, with the one JSON record as all of stderr.  The refusals
# they reached keep their own tests, through a library call or a patched result.
@pytest.mark.parametrize("command, overrides, key", [
    ("switch", "rc_cutoff_mhz = 1e-310", "rc_cutoff_mhz"),
    ("switch", "contrast_targets =\ngamma_ghz = 1e-160\namplitude = 1e300", "gamma_ghz"),
    ("spectrum", "detuning_stop_ghz = 1e307", "detuning_stop_ghz"),
    ("metrics", "cavity_offset_ghz = 1e300", "cavity_offset_ghz"),
    ("metrics", "dot_offset_ghz = 1e300", "dot_offset_ghz"),
    *((command, f"{key} = {text}", key) for command in ("fit --kind contrast", "switch")
      for key, text in [("dot_offset_ghz", "1e300"), ("q_factor", "1e300"),
                        ("nd_cm3", "1e-300")]),
    ("metrics", "detuning_points = 140737488355328", "detuning_points"),
    ("stark", "detuning_points = 140737488355328", "detuning_points"),
    ("switch", "cycles = 16777216\nsamples_per_cycle = 8388608", "cycles"),
    # Each in its range, but a trace past the 10**6-sample cap.
    ("switch", "samples_per_cycle = 1000000", "cycles"),
])
def test_cli_value_past_its_range_exits_1_naming_its_key(tmp_path, capsys, command,
                                                         overrides, key):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(overrides + "\n", encoding="utf-8")
    out = tmp_path / "o"
    code = run_cli(*command.split(), "--preset", "paper", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error_class"] == "ConfigError"
    assert record["message"].endswith(f"(config key {key})")
    assert not out.exists()


def _failed_run(capsys, command, out):
    """The JSON error record of a paper-preset run of command that exits 2 and
    writes nothing."""
    assert run_cli(*command.split(), "--preset", "paper", "--out", str(out)) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "DomainError"
    assert not out.exists()
    return record["message"]


def test_cli_metrics_rejects_a_non_finite_figure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "vacuum_rabi_splitting", lambda params: math.inf)
    message = _failed_run(capsys, "metrics", tmp_path / "o")
    assert message == "metric vacuum_rabi_splitting_GHz must be finite, got inf"


def test_cli_stark_rejects_a_non_finite_column(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "depletion_width", lambda params, volts: np.full(volts.shape, np.inf))
    message = _failed_run(capsys, "stark", tmp_path / "o")
    assert message == "column x_d_um must be finite, got inf"


def _nan_contrast_fit(targets, *args, **kwargs):
    return FitResult({"dot_decay": 1.0, "screening": 0.5}, {}, math.nan, False, 1)


def test_cli_fit_contrast_rejects_a_non_finite_residual(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fitting, "fit_contrast", _nan_contrast_fit)
    message = _failed_run(capsys, "fit --kind contrast", tmp_path / "o")
    assert message == "parameter residual_norm must be finite, got nan"


def test_cli_switch_rejects_a_non_finite_calibration_residual(tmp_path, capsys, monkeypatch):
    # The device values are at fault, so the refusal must not blame contrast_targets.
    monkeypatch.setattr(fitting, "fit_contrast", _nan_contrast_fit)
    message = _failed_run(capsys, "switch", tmp_path / "o")
    assert message == "calibration residual_norm must be finite, got nan"


# The stark grid's point count, (v_stop - v_start) / v_step + 1, is capped at
# load; each of the three keys is first held to its own range.
@pytest.mark.parametrize("command", ["metrics", "stark"])
@pytest.mark.parametrize("overrides, key, rule", [
    ("v_step = 1e-310", "v_step", "must be in [1e-06, 100000]"),
    ("v_stop = 1e200", "v_stop", "must be in [0, 100000]"),
    ("v_step = 1\nv_stop = 1152921504606846976", "v_stop", "must be in [0, 100000]"),
    ("v_step = 7.105427357601002e-14\nv_stop = 10", "v_step", "must be in [1e-06, 100000]"),
    ("v_step = 1e-5", "v_step", "must give at most 1000000 grid points from v_start to "
                                "v_stop, got 1000001"),
], ids=["tiny step", "far stop", "2**60 + 1 points", "2**47 points", "one point past the cap"])
def test_cli_voltage_grid_size_is_bounded_at_load(tmp_path, capsys, command, overrides, key,
                                                  rule):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(overrides + "\n", encoding="utf-8")
    out = tmp_path / "o"
    assert run_cli(command, "--preset", "paper", "--config", str(cfg), "--out", str(out)) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert f"{key} {rule}" in record["message"]
    assert record["message"].endswith(f"(config key {key})")
    assert not out.exists()


def test_cli_unknown_preset_is_a_config_error(tmp_path, capsys):
    code = run_cli("stark", "--preset", "no_such_preset", "--out", str(tmp_path / "o"))
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error_class"] == "ConfigError"
    assert "unknown preset 'no_such_preset'" in record["message"]


# A preset is a file directly in presets/, named without its .cfg: a path
# to a config file elsewhere, or to the paper preset through "..", is no preset.
# {tmp} is the work directory, which holds a valid mine.cfg.
NOT_PRESETS = ["{tmp}/mine", "../presets/paper", "sub/name"]


@pytest.mark.parametrize("name", NOT_PRESETS,
                         ids=["absolute path", "dot-dot path", "sub/name path"])
def test_cli_preset_names_only_a_built_in_file(tmp_path, capsys, name):
    (tmp_path / "mine.cfg").write_text("bias_v = 1\n", encoding="utf-8")
    name = name.format(tmp=tmp_path)
    out = tmp_path / "o"
    assert run_cli("metrics", "--preset", name, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error_code": 1, "error_class": "ConfigError",
                                        "message": f"unknown preset '{name}'"}
    assert not out.exists()


@pytest.mark.parametrize("bias", ["0", "3"])
@pytest.mark.parametrize("volts, couplings, key", [
    ("5, 3", "20, 10", "g_anchor_v"),
    ("0, 7", "20, -1", "g_anchor_ghz"),
    ("0, 7, 9", "20, 10", "g_anchor_ghz"),
    ("7", "20", "g_anchor_ghz"),
    ("0, 5", "20, 1e308", "g_anchor_ghz"),
    ("0, 5", "20, 1000001", "g_anchor_ghz"),  # just past the coupling range
])
def test_cli_rejects_bad_coupling_anchors_at_any_bias(tmp_path, capsys, volts, couplings,
                                                      key, bias):
    # Every bias, 0 V included, reads the anchors, so each bad table fails at both.
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


FLAT_TABLE = "g_anchor_v = 0, 14\ng_anchor_ghz = 20, 20\n"   # g at g_ghz at every bias
MET_TABLE = "g_anchor_v = 0, 14\ng_anchor_ghz = 20, 18\n"    # the paper targets still met
SLOPE_TABLE = "g_anchor_v = 0, 14\ng_anchor_ghz = 5, 2\n"    # g(0 V) is 5 GHz, not g_ghz


def _model_spectrum(path, cfg, bias):
    """spectrum.csv as the library writes it with the device placed at bias:
    the dot at dot_freq + voltage_to_detuning(bias) and, with a table, the
    coupling at g_of_voltage(anchors, bias)."""
    from dataclasses import replace

    from qdswitch import g_of_voltage, pl_spectrum, reflectivity_spectrum, voltage_to_detuning

    cqed = cfg.cqed_params()
    detune = voltage_to_detuning(cfg.electrostatic_params(), cfg.stark_coefficients(), bias,
                                 screening=cfg.screening(), field_sign=cfg["field_sign"])
    anchors = cfg.g_anchors()
    coupling = cqed.coupling if anchors is None else g_of_voltage(anchors, bias)
    cqed = replace(cqed, dot_freq=cqed.dot_freq + detune, coupling=coupling)
    grid = cfg.detuning_grid()
    return write_csv(path, ["detuning_GHz", "reflectivity", "pl"],
                     columns=[grid / TWO_PI, reflectivity_spectrum(cqed, grid).intensities,
                              pl_spectrum(cqed, grid).intensities])


# At 0 V the spectrum places the device as at any other bias.  With this
# table g(0) is 5 GHz, not g_ghz; with the electrode this close the built-in
# potential depletes past the dot, so the onset is 0 V and the Stark shift
# at 0 V is not zero.
@pytest.mark.parametrize("text", [SLOPE_TABLE, "dx_um = 0.2\n"],
                         ids=["coupling table", "zero onset"])
def test_cli_spectrum_at_zero_bias_places_the_device_by_the_model(tmp_path, text):
    from qdswitch import g_of_voltage, onset_voltage, voltage_to_detuning
    from qdswitch.cli import _preset_path

    path = tmp_path / "device.cfg"
    path.write_text(text + "bias_v = 0\n", encoding="utf-8")
    cfg = parse_config(_preset_path("paper"), path)
    anchors, elec = cfg.g_anchors(), cfg.electrostatic_params()
    if anchors is None:
        assert onset_voltage(elec) == 0.0
        assert voltage_to_detuning(elec, cfg.stark_coefficients(), 0.0) != 0.0
    else:
        assert g_of_voltage(anchors, 0.0) != cfg.cqed_params().coupling
    out = tmp_path / "o"
    assert run_cli("spectrum", "--preset", "paper", "--config", str(path),
                   "--out", str(out)) == 0
    model = _model_spectrum(tmp_path / "model.csv", cfg, 0.0)
    assert (out / "spectrum.csv").read_bytes() == model.read_bytes()


@settings(max_examples=15, deadline=None)
@given(bias=st.floats(0.0, 14.0))
@example(bias=0.0)
def test_cli_spectrum_flat_coupling_table_changes_no_byte(tmp_path_factory, bias):
    # np.interp between equal anchors returns the anchor exactly, so a table
    # holding g at g_ghz gives the bytes of the run without one, and both are
    # the model's at that bias; the device has its onset at 0 V.
    from qdswitch.cli import _preset_path

    work = tmp_path_factory.mktemp("flat")
    device = f"dx_um = 0.2\nbias_v = {bias!r}\n"
    runs = {"plain": device, "table": device + FLAT_TABLE}
    written = {}
    for name, text in runs.items():
        (work / f"{name}.cfg").write_text(text, encoding="utf-8")
        assert run_cli("spectrum", "--preset", "paper", "--config", str(work / f"{name}.cfg"),
                       "--out", str(work / name)) == 0
        written[name] = (work / name / "spectrum.csv").read_bytes()
    cfg = parse_config(_preset_path("paper"), work / "plain.cfg")
    assert written["table"] == written["plain"]
    assert written["plain"] == _model_spectrum(work / "model.csv", cfg, bias).read_bytes()


def _switch_and_contrast_fit(work, name, text):
    """{file name: bytes} of a paper-preset switch and contrast fit run on text."""
    cfg = work / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    for command in (["switch"], ["fit", "--kind", "contrast"]):
        assert run_cli(*command, "--preset", "paper", "--config", str(cfg),
                       "--out", str(work / name)) == 0
    return {f: (work / name / f).read_bytes()
            for f in ("switch_trace.csv", "switch_summary.csv", "fit_report.csv")}


def _assert_library_composition(work, written, text):
    """The CLI outputs in written are the library's composition for the table
    in text, fit_contrast then simulate_switching, both given g_anchors:
    switch_trace.csv byte for byte, and the summary and report cells it fixes."""
    from dataclasses import replace

    from qdswitch import fit_contrast, on_off_ratio
    from qdswitch.cli import _preset_path

    (work / "library.cfg").write_text(text, encoding="utf-8")
    cfg = parse_config(_preset_path("paper"), work / "library.cfg")
    anchors, elec, stark = cfg.g_anchors(), cfg.electrostatic_params(), cfg.stark_coefficients()
    result = fit_contrast(cfg["contrast_targets"], elec, stark, cfg.cqed_params(),
                          field_sign=cfg["field_sign"], g_anchors=anchors)
    cqed = replace(cfg.cqed_params(), dot_decay=result.parameters["dot_decay"])
    screening = result.parameters["screening"]
    trace = simulate_switching(
        cfg.drive_spec(), elec, stark, cqed, screening=screening,
        probe_freq=cqed.dot_freq + TWO_PI * cfg["probe_detuning_ghz"], g_anchors=anchors,
        field_sign=cfg["field_sign"])
    path = write_csv(work / "library_trace.csv", ["time_ns", "intensity"],
                     columns=[trace.times, trace.values])
    assert written["switch_trace.csv"] == path.read_bytes()
    for name, cells in (
            ("switch_summary.csv", {"on_off_ratio": on_off_ratio(trace),
                                    "dot_decay_GHz": cqed.dot_decay / TWO_PI,
                                    "screening": screening}),
            ("fit_report.csv", {"dot_decay": cqed.dot_decay, "screening": screening,
                                "residual_norm": result.residual_norm})):
        rows = dict(line.split(",")[:2] for line in written[name].decode().splitlines()[1:])
        assert {key: rows[key] for key in cells} == {
            key: format_value(value) for key, value in cells.items()}


def test_cli_flat_coupling_table_changes_no_switch_or_contrast_fit_byte(tmp_path):
    # switch and both contrast calibrations read the table as spectrum does,
    # and np.interp between equal anchors returns the anchor exactly.
    written = {name: _switch_and_contrast_fit(tmp_path, name, text)
               for name, text in (("plain", ""), ("flat", FLAT_TABLE))}
    assert written["flat"] == written["plain"]
    _assert_library_composition(tmp_path, written["flat"], FLAT_TABLE)


def test_cli_switch_and_contrast_fit_follow_the_coupling_table(tmp_path):
    written = {name: _switch_and_contrast_fit(tmp_path, name, text)
               for name, text in (("plain", ""), ("table", MET_TABLE))}
    for name in written["plain"]:
        assert written["table"][name] != written["plain"][name]
    _assert_library_composition(tmp_path, written["table"], MET_TABLE)


@pytest.mark.parametrize("text, message", [
    ("g_anchor_v = 5, 3\n",
     "g_anchor_v must be strictly increasing, got 3.0 (config key g_anchor_v)"),
    ("g_anchor_v = 0, 7\ng_anchor_ghz = 20, -1\n",
     "g_anchor_ghz must be in [0, 1e+06], got -1.0 (config key g_anchor_ghz)"),
    ("g_anchor_v = 0, 7, 9\ng_anchor_ghz = 20, 10\n",
     "g_anchor_ghz must give one coupling per g_anchor_v voltage, got 2 for 3 "
     "(config key g_anchor_ghz)"),
    ("contrast_targets = 10:1.5\n",
     "contrast_targets voltages must be 1-D with >= 2 values, got shape (1,) "
     "(config key contrast_targets)"),
    ("contrast_targets = 10:1.5, 14:0.5\n",
     "contrast_targets ratios must be in [1, 1e+06], got 0.5 (config key contrast_targets)"),
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



def _rows(header, *columns):
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                    for row in zip(*(c.tolist() for c in columns)))


def _bom_cases():
    """name -> (fit kind, data file text, config text), each without a BOM."""
    from qdswitch import CqedParams, reflectivity_spectrum
    truth = CqedParams(0.0, 0.0, TWO_PI * 18.0, TWO_PI * 42.0, TWO_PI * 6.0)
    ghz = np.linspace(-120.0, 120.0, 81)
    intensity = reflectivity_spectrum(truth, TWO_PI * ghz).intensities
    # dlambda = -lambda0^2 dnu / c about the default lambda0 = 935 nm, c in nm GHz
    nm = 935.0 - 935.0 ** 2 * ghz / 299792458.0
    start = "g_ghz = 21\nkappa_ghz = 38\ngamma_ghz = 5\n"
    volts = np.linspace(4.0, 12.0, 9)
    return {
        "detuning_GHz": ("spectrum", _rows("detuning_GHz,intensity", ghz, intensity), start),
        "wavelength_nm": ("spectrum", _rows("wavelength_nm,intensity", nm, intensity), start),
        "stark": ("stark", _rows("voltage_V,shift_meV", volts, -0.002 * volts ** 2),
                  "seed = 3\n"),
    }


@pytest.mark.parametrize("marked", ["data", "config"])
@pytest.mark.parametrize("case", ["detuning_GHz", "wavelength_nm", "stark"])
def test_cli_fit_ignores_a_leading_byte_order_mark(tmp_path, capsys, case, marked):
    # Excel's "CSV UTF-8" and Notepad start a file with U+FEFF.
    kind, data_text, config_text = _bom_cases()[case]
    reports = []
    for bom in ("", "\ufeff"):
        texts = {"data": data_text, "config": config_text}
        texts[marked] = bom + texts[marked]
        paths = {name: tmp_path / f"{name}{len(bom)}.txt" for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8")
        out = tmp_path / f"out{len(bom)}"
        assert run_cli("fit", "--kind", kind, "--preset", "paper", "--config",
                       str(paths["config"]), "--data", str(paths["data"]),
                       "--out", str(out)) == 0, capsys.readouterr().err
        reports.append((out / "fit_report.csv").read_bytes())
    assert paths[marked].read_bytes().startswith(b"\xef\xbb\xbf")
    assert reports[0] == reports[1]
