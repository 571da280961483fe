"""CSV emission and ingestion.

Files are UTF-8, comma separated, newline terminated, always with a
header row.  Floats are written as repr(float(v)), Python's shortest
round-trip representation, so emit-then-ingest recovers values exactly;
output is byte-identical across reruns of the same configuration.
Columns that are all float, and chunks of rows that hold only floats,
are formatted by floattext's array kernel, with the same bytes as repr.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT_NM_NS, TWO_PI
from .cqed import DETUNING_RANGE_GHZ, INTENSITY_RANGE, WAVELENGTH_RANGE_NM, OpticalFrame, Spectrum
from .electrostatics import BIAS_RANGE_V, ShiftDataset
from .errors import DomainError, IngestError, check_value, read_text

# Closed range of each data-file column, checked as the file is read (NaN and inf
# are outside); a spectrum file's second column is the intensity, whatever its header.
COLUMN_RANGES = {"detuning_GHz": DETUNING_RANGE_GHZ, "wavelength_nm": WAVELENGTH_RANGE_NM,
                 "intensity": INTENSITY_RANGE, "voltage_V": BIAS_RANGE_V, "shift_meV": (-1e3, 1e3)}

# Rows formatted and written per file write; bounds the text held in memory.
WRITE_CHUNK_ROWS = 4096
# Exact value types whose format_value text is float.__repr__ of the value.
_REPR_TYPES = {float, np.float64}
_INGEST_COLUMNS = 2  # columns of every file the ingest functions read


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
    or columns: one equal-length 1-D array of any dtype per header name.
    All-float columns are written without being stacked, and periods[k],
    when set, is the row count after which column k repeats: a column
    holding two or more periods has one period formatted, once.  The
    bytes are format_value's, value by value.  A row of the wrong width,
    or columns or an array of the wrong shape, raises and leaves no file."""
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
        columns = list(rows.T)
    if columns is not None:
        columns = [np.asarray(column) for column in columns]
        shapes = {column.shape for column in columns}
        if len(columns) != width or len(shapes) != 1 or len(shapes.pop()) != 1:
            raise DomainError(f"CSV columns of shapes {[c.shape for c in columns]} do not "
                              f"match a {width}-column header")
        if any(column.dtype.kind != "f" for column in columns):
            rows, columns = zip(*columns), None
    try:
        with path.open("wb") as f:
            f.write((",".join(header) + "\n").encode("utf-8"))
            if columns is not None:
                _write_floats(f, [c.astype(np.float64, copy=False) for c in columns], periods)
            else:
                _write_rows(f, iter(rows), width)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _write_rows(f, rows, width: int) -> None:
    """Each chunk of all-float rows goes to _write_float_rows; any other
    chunk is formatted by format_value, a row at a time."""
    while chunk := list(islice(rows, WRITE_CHUNK_ROWS)):
        if set(map(len, chunk)) != {width}:
            raise DomainError("CSV row width differs from header")
        if set(map(type, chain.from_iterable(chunk))) <= _REPR_TYPES:
            _write_float_rows(f, chunk, width)
        else:
            f.write("".join(",".join(map(format_value, row)) + "\n" for row in chunk)
                    .encode("utf-8"))


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


def _read_rows(path: Path | str) -> tuple[list[str], np.ndarray]:
    """Header names and one contiguous float array per column.  The first
    non-blank line is the header; blank lines anywhere are skipped.  A message
    names a line by its number, counting every line as str.splitlines does."""
    if not Path(path).is_file():
        raise IngestError(f"data file not found: {str(path)!r}")
    path = Path(path)
    lines = read_text(path, IngestError).splitlines()
    first = next((k for k, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in lines[first].split(",")]
    if len(header) != _INGEST_COLUMNS:
        raise IngestError(f"{path}: expected {_INGEST_COLUMNS} columns, header has {len(header)}")
    body = lines[first + 1:]
    if any(body):  # loadtxt skips empty lines, and warns when no line is left
        with suppress(ValueError):
            values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
            if values.shape[1] == _INGEST_COLUMNS:
                return header, values.T.copy()
    # Row by row: drops whitespace-only lines, names the first malformed line
    # and reads any number syntax float() accepts but loadtxt does not.
    body = [(lineno, line) for lineno, line in enumerate(body, start=first + 2) if line.strip()]
    if not body:
        raise IngestError(f"{path}: no data rows")
    rows = []
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != _INGEST_COLUMNS:
            raise IngestError(f"{path}:{lineno}: expected {_INGEST_COLUMNS} values")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: non-numeric value") from exc
    return header, np.array(rows).T.copy()


def _line_of(path: Path | str, row: int) -> int:
    """The line number, as _read_rows counts, of data row row (from 0)."""
    lines = read_text(Path(path), IngestError).splitlines()
    return [k for k, line in enumerate(lines, start=1) if line.strip()][row + 1]


def _check_ranges(path: Path | str, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Raise IngestError("<file>:<line>: <name> must ..., got <v>") at the first bad row."""
    ranges = [COLUMN_RANGES[name] for name in names]
    inside = [(lo <= c) & (c <= hi) for c, (lo, hi) in zip(columns, ranges)]
    if not (rows := inside[0] & inside[1]).all():
        row = int(rows.argmin())
        k = int(inside[0][row])  # 0 if the first column is outside on that row, else 1
        try:
            check_value(names[k], float(columns[k][row]), "[]", ranges[k])
        except DomainError as exc:
            raise IngestError(f"{path}:{_line_of(path, row)}: {exc}") from None


def ingest_spectrum_csv(path: Path | str, reference_wavelength_nm: float =
                        OpticalFrame.reference_wavelength_nm) -> Spectrum:
    """Read a two-column spectrum file into a sorted, deduplicated Spectrum.

    The first header name declares the mode: 'wavelength_nm' values are
    converted to detunings about the reference via dnu = -c dlambda /
    lambda0^2; 'detuning_GHz' values are ordinary GHz.  Duplicate grid
    points must agree in intensity, otherwise the file is rejected.
    """
    lambda0 = check_value("reference_wavelength", reference_wavelength_nm, "[]",
                          WAVELENGTH_RANGE_NM)
    header, (x, y) = _read_rows(path)
    mode = header[0]
    if mode not in ("wavelength_nm", "detuning_GHz"):
        raise IngestError(f"{path}: first column must be 'wavelength_nm' or 'detuning_GHz', "
                          f"got '{mode}'")
    _check_ranges(path, (mode, "intensity"), (x, y))
    if mode == "wavelength_nm":
        x = -SPEED_OF_LIGHT_NM_NS * (x - lambda0) / lambda0 ** 2  # ordinary GHz, < 3e17
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
    return Spectrum(x, y)


def ingest_shift_csv(path: Path | str) -> ShiftDataset:
    """Read (voltage_V, shift_meV) rows into a ShiftDataset."""
    header, columns = _read_rows(path)
    if header != ["voltage_V", "shift_meV"]:
        raise IngestError(f"{path}: expected header 'voltage_V,shift_meV'")
    _check_ranges(path, header, columns)
    try:
        return ShiftDataset(*columns)
    except DomainError as exc:
        raise IngestError(f"{path}: {exc}") from exc
