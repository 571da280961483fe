"""CSV emission and ingestion.

Files are UTF-8, comma separated, newline terminated, always with a
header row.  Floats are serialized with Python's shortest round-trip
representation, so emit-then-ingest recovers values exactly; output is
byte-identical across reruns of the same configuration.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT_NM_NS, TWO_PI
from .cqed import Spectrum
from .electrostatics import ShiftDataset
from .errors import DomainError, IngestError

SPECTRUM_WAVELENGTH_HEADER = "wavelength_nm"
SPECTRUM_DETUNING_HEADER = "detuning_GHz"

# Rows formatted and written per file write; bounds the text held in memory.
WRITE_CHUNK_ROWS = 4096
# Exact value types whose format_value text is float.__repr__ of the value.
_REPR_TYPES = {float, np.float64}


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path | str, header: Sequence[str],
              rows: Iterable[Sequence] | np.ndarray) -> Path:
    """Write rows under a mandatory header, WRITE_CHUNK_ROWS at a time;
    returns the path.  Values are formatted by format_value, column by
    column within each chunk, with the same bytes as value by value.  rows
    may be a 2-D array with one column per header name; a float array
    formats each distinct value of a repetitive column once, skips the
    search for repeats in a strictly increasing column, and holds no
    per-row index array.  A column-major one (np.array(columns).T) is
    formatted with no column copied, so the extra memory is a chunk of
    text plus, per repetitive column, its distinct values.  A row of the
    wrong width, or an array of the wrong shape, raises and leaves no
    file."""
    if not header:
        raise DomainError("CSV header must not be empty")
    path = Path(path)
    width = len(header)
    if isinstance(rows, np.ndarray) and (rows.ndim != 2 or rows.shape[1] != width):
        raise DomainError(f"CSV array of shape {rows.shape} does not match "
                          f"a {width}-column header")
    try:
        with path.open("w", encoding="utf-8") as f:
            f.write(",".join(header) + "\n")
            if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
                _write_float_columns(f, rows)
            else:
                _write_rows(f, iter(rows), width)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _write_rows(f, rows, width: int) -> None:
    while chunk := list(islice(rows, WRITE_CHUNK_ROWS)):
        if any(len(row) != width for row in chunk):
            raise DomainError("CSV row width differs from header")
        _write_cells(f, [_format_column(column) for column in zip(*chunk)])


def _format_column(column: tuple) -> list[str]:
    """format_value of each value, with the formatter chosen once per column:
    float.__repr__ gives repr(float(v)) for a float or np.float64 value."""
    if set(map(type, column)) <= _REPR_TYPES:
        return list(map(float.__repr__, column))
    return list(map(format_value, column))


def _write_float_columns(f, table: np.ndarray) -> None:
    columns = [_column_text(column) for column in np.asarray(table, dtype=np.float64).T]
    for start in range(0, table.shape[0], WRITE_CHUNK_ROWS):
        stop = start + WRITE_CHUNK_ROWS
        _write_cells(f, [text(start, stop) for text in columns])


def _write_cells(f, cells: list[list[str]]) -> None:
    """Write one chunk given as formatted columns of equal length."""
    f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _column_text(column: np.ndarray):
    """(start, stop) -> repr of each value in column[start:stop].

    A strictly increasing column (a time axis) has no repeats, so it is
    formatted chunk by chunk with no search for them.  Any other column
    has its distinct values found by bit pattern, so -0.0 and 0.0 stay
    apart.  If at most half its values are distinct, as in a periodic
    steady-state trace, each distinct value is formatted once and every
    chunk looks its values up in that table with np.searchsorted, so no
    per-row index array is held; otherwise it too is formatted chunk by
    chunk, and no whole-column string table is held.
    """
    column = np.ascontiguousarray(column)
    if not np.all(column[1:] > column[:-1]):
        # Sorted rather than np.unique, whose hash-table path (taken when no
        # indices are asked for) is several times slower on these columns.
        bits = column.view(np.int64)
        ordered = np.sort(bits)
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        del ordered
        if 2 * distinct.size <= column.size:
            table = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)

            def lookup(start: int, stop: int) -> list[str]:
                # Searching in key order keeps the binary search's branches
                # predictable: about half the time of searching row by row.
                chunk = bits[start:stop]
                order = np.argsort(chunk)
                index = np.empty(chunk.size, dtype=np.intp)
                index[order] = np.searchsorted(distinct, chunk[order])
                return table[index].tolist()
            return lookup
    return lambda start, stop: list(map(repr, column[start:stop].tolist()))


def _read_rows(path: Path | str, expected_columns: int) -> tuple[list[str], np.ndarray]:
    """Header names and one contiguous float array per column."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"data file not found: {path}")
    text = path.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) != expected_columns:
        raise IngestError(
            f"{path}: expected {expected_columns} columns, header has {len(header)}")
    body = lines[1:]
    if not body:
        raise IngestError(f"{path}: no data rows")
    with suppress(ValueError):
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if values.shape[1] == expected_columns:
            return header, values.T.copy()
    # Row by row: names the first malformed line (counting non-blank lines)
    # and reads any number syntax float() accepts but loadtxt does not.
    rows = []
    for lineno, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != expected_columns:
            raise IngestError(f"{path}:{lineno}: expected {expected_columns} values")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric value") from exc
    return header, np.array(rows).T.copy()


def ingest_spectrum_csv(path: Path | str, reference_wavelength_nm: float = 935.0) -> Spectrum:
    """Read a two-column spectrum file into a sorted, deduplicated Spectrum.

    The first header name declares the mode: 'wavelength_nm' values are
    converted to detunings about the reference via dnu = -c dlambda /
    lambda0^2; 'detuning_GHz' values are ordinary GHz.  Duplicate grid
    points must agree in intensity, otherwise the file is rejected.
    """
    header, (x, y) = _read_rows(path, 2)
    mode = header[0]
    if mode not in (SPECTRUM_WAVELENGTH_HEADER, SPECTRUM_DETUNING_HEADER):
        raise IngestError(
            f"{path}: first column must be '{SPECTRUM_WAVELENGTH_HEADER}' or "
            f"'{SPECTRUM_DETUNING_HEADER}', got '{mode}'")
    if np.any(y < 0.0):
        bad = int(np.argmax(y < 0.0)) + 2
        raise IngestError(f"{path}:{bad}: negative intensity")

    if mode == SPECTRUM_WAVELENGTH_HEADER:
        dlam = x - reference_wavelength_nm
        x = -SPEED_OF_LIGHT_NM_NS * dlam / reference_wavelength_nm ** 2  # ordinary GHz
    x = TWO_PI * x  # angular GHz

    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    # A point within 1e-12 (relative) of its sorted predecessor repeats it;
    # a run of such points is one grid point, kept at its first member.
    repeat = np.append(False, np.abs(np.diff(x)) <= 1e-12 * np.maximum(np.abs(x[1:]), 1.0))
    y_kept = y[np.maximum.accumulate(np.where(repeat, 0, np.arange(x.size)))]
    tol = 1e-9 * np.maximum(np.maximum(np.abs(y), np.abs(y_kept)), 1.0)
    if np.any(repeat & (np.abs(y - y_kept) > tol)):
        raise IngestError(f"{path}: conflicting intensities for duplicated grid point")
    try:
        return Spectrum(x[~repeat], y[~repeat])
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def ingest_shift_csv(path: Path | str) -> ShiftDataset:
    """Read (voltage_V, shift_meV) rows into a ShiftDataset."""
    header, (volts, shifts) = _read_rows(path, 2)
    if header[0] != "voltage_V" or header[1] != "shift_meV":
        raise IngestError(f"{path}: expected header 'voltage_V,shift_meV'")
    try:
        return ShiftDataset(volts, shifts)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc
