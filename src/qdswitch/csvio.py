"""CSV emission and ingestion.

Files are UTF-8, comma separated, newline terminated, always with a
header row.  Floats are written as repr(float(v)), Python's shortest
round-trip representation, so emit-then-ingest recovers values exactly;
output is byte-identical across reruns of the same configuration.
Float columns, and chunks of rows that hold only floats, are formatted
by floattext's array kernel, with the same bytes as repr.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, islice
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
              rows: Iterable[Sequence] | np.ndarray | None = None, *,
              columns: Sequence[np.ndarray] | None = None,
              periods: Sequence[int | None] = ()) -> Path:
    """Write rows under a mandatory header, WRITE_CHUNK_ROWS at a time;
    returns the path.  Give either rows (a 2-D array may stand for them),
    or columns: one equal-length 1-D float array per header name, written
    without being stacked.  periods[k], when set, is the row count after
    which column k repeats: a column holding two or more periods has one
    period formatted, once.  The bytes are format_value's, value by value.
    A row of the wrong width, or columns or an array of the wrong shape,
    raises and leaves no file."""
    if not header:
        raise DomainError("CSV header must not be empty")
    path = Path(path)
    width = len(header)
    if (rows is None) == (columns is None):
        raise DomainError("write_csv takes either rows or columns")
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != width:
            raise DomainError(f"CSV array of shape {rows.shape} does not match "
                              f"a {width}-column header")
        if rows.dtype.kind == "f":
            columns = list(rows.T)
    if columns is not None:
        columns = [np.asarray(column, dtype=np.float64) for column in columns]
        shapes = {column.shape for column in columns}
        if len(columns) != width or len(shapes) != 1 or len(shapes.pop()) != 1:
            raise DomainError(f"CSV columns of shapes {[c.shape for c in columns]} do not "
                              f"match a {width}-column header")
    try:
        with path.open("wb") as f:
            f.write((",".join(header) + "\n").encode("utf-8"))
            if columns is not None:
                _write_floats(f, columns, periods)
            else:
                _write_rows(f, iter(rows), width)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _write_rows(f, rows, width: int) -> None:
    """Each chunk of all-float rows goes to _write_float_rows; any other
    chunk has each column's formatter picked once from the types it holds."""
    while chunk := list(islice(rows, WRITE_CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            raise DomainError("CSV row width differs from header")
        if set(map(type, chain.from_iterable(chunk))) <= _REPR_TYPES:
            _write_float_rows(f, chunk, width)
        else:
            cells = [list(map(float.__repr__ if set(map(type, column)) <= _REPR_TYPES
                              else format_value, column))
                     for column in zip(*chunk)]
            f.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8"))


def _write_float_rows(f, chunk: list, width: int) -> None:
    """A chunk of all-float rows, read row-major into one array."""
    values = np.fromiter(chain.from_iterable(chunk), np.float64, len(chunk) * width)
    _write_floats(f, list(values.reshape(len(chunk), width).T))


def _write_floats(f, columns: list[np.ndarray], periods: Sequence[int | None] = ()) -> None:
    """Float columns, a chunk at a time, each chunk packed as one buffer.

    A column holding two or more of its periods has its first period
    formatted once, and each chunk takes its rows from that text.  The
    other columns of a chunk are formatted together by one float_text call.
    """
    # Imported here, so that commands writing no float column never load it.
    from .floattext import TEXT_BYTES, float_text

    size = columns[0].size
    cycles = {}
    for k, period in enumerate(periods):
        if period and 2 * period <= size:
            cycles[k] = np.empty((period, TEXT_BYTES), dtype=np.uint8)
            for start in range(0, period, WRITE_CHUNK_ROWS):
                stop = min(start + WRITE_CHUNK_ROWS, period)
                cycles[k][start:stop] = float_text(columns[k][start:stop])
    plain = [column for k, column in enumerate(columns) if k not in cycles]
    for start in range(0, size, WRITE_CHUNK_ROWS):
        stop = min(start + WRITE_CHUNK_ROWS, size)
        if plain:
            text = iter(float_text(np.concatenate([c[start:stop] for c in plain]))
                        .reshape(len(plain), stop - start, TEXT_BYTES))
        rows = np.arange(start, stop)
        _pack(f, [cycles[k].take(rows % periods[k], axis=0) if k in cycles else next(text)
                  for k in range(len(columns))])


def _pack(f, fields) -> None:
    """Write a chunk as one buffer; fields[k] is column k's (rows, TEXT_BYTES)
    text.  Each text is followed by a comma or a newline byte, in a row
    matrix whose zero bytes are dropped."""
    rows, size = fields[0].shape
    line = np.empty((rows, len(fields), size + 1), dtype=np.uint8)
    for k, field in enumerate(fields):
        line[:, k, :-1] = field
    line[:, :, -1] = ord(",")
    line[:, -1, -1] = ord("\n")
    line = line.ravel()
    f.write(line[line != 0])


def _read_rows(path: Path | str, expected_columns: int) -> tuple[list[str], np.ndarray]:
    """Header names and one contiguous float array per column.  The first
    non-blank line is the header; blank lines anywhere are skipped."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"data file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    first = next((k for k, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[first].split(",")]
    if len(header) != expected_columns:
        raise IngestError(
            f"{path}: expected {expected_columns} columns, header has {len(header)}")
    body = lines[first + 1:]
    if any(body):  # loadtxt skips empty lines, and warns when no line is left
        with suppress(ValueError):
            values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if values.shape[1] == expected_columns:
                return header, values.T.copy()
    # Row by row: drops whitespace-only lines, names the first malformed line
    # (counting non-blank lines) and reads any number syntax float() accepts
    # but loadtxt does not.
    body = [line for line in body if line.strip()]
    if not body:
        raise IngestError(f"{path}: no data rows")
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
    if repeat.any():
        y_kept = y[np.maximum.accumulate(np.where(repeat, 0, np.arange(x.size)))]
        tol = 1e-9 * np.maximum(np.maximum(np.abs(y), np.abs(y_kept)), 1.0)
        if np.any(repeat & (np.abs(y - y_kept) > tol)):
            raise IngestError(f"{path}: conflicting intensities for duplicated grid point")
        x, y = x[~repeat], y[~repeat]
    try:
        return Spectrum(x, y)
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
