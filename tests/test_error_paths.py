"""Error paths: each bad input fails with its own exit code and message.

A CLI run ends in one of two ways.  On exit 0 the manifest lists every
CSV the run wrote and the summary is printed after it.  On any other
exit there is one JSON record on stderr, nothing on stdout, and --out
holds what it held before the run: no new CSV, no staging directory.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from qdswitch import (
    ConfigError,
    CqedParams,
    DegenerateFitError,
    DomainError,
    ElectrostaticParams,
    IngestError,
    ShiftDataset,
    Spectrum,
    TimeTrace,
)
from qdswitch import cli
from qdswitch.cli import main
from qdswitch.config import parse_config
from qdswitch.csvio import ingest_shift_csv, ingest_spectrum_csv, write_csv
from qdswitch.fitting import fit_spectrum, fit_stark_curve, stark_model
from qdswitch.manifest import MANIFEST_NAME, read_manifest

TWO_PI = 2.0 * math.pi

SPECTRUM_TEXT = "detuning_GHz,intensity\n-1,0.5\n0,0.1\n1,0.5\n"

# case -> (command line after "qdswitch", with {tmp} for the work directory;
#          {file name: text} written there first; exit code; error class;
#          message, with {tmp} too)
CLI_FAILURES = {
    "spectrum fit without data": (
        ["fit", "--kind", "spectrum"], {},
        1, "ConfigError", "fit --kind spectrum requires --data"),
    "contrast fit without targets": (
        ["fit", "--kind", "contrast", "--config", "{tmp}/c.cfg"],
        {"c.cfg": "contrast_targets =\n"},
        1, "ConfigError", "fit --kind contrast requires contrast_targets in the config"),
    "contrast fit with missing data": (
        ["fit", "--kind", "contrast", "--data", "{tmp}/missing.csv"], {},
        1, "ConfigError", "fit --kind contrast takes no --data; it fits contrast_targets"),
    "contrast fit with unread data": (
        ["fit", "--kind", "contrast", "--data", "{tmp}/d.csv"], {"d.csv": SPECTRUM_TEXT},
        1, "ConfigError", "fit --kind contrast takes no --data; it fits contrast_targets"),
    "config line without '='": (
        ["metrics", "--config", "{tmp}/c.cfg"], {"c.cfg": "seed = 1\ng_ghz 20\n"},
        1, "ConfigError", "{tmp}/c.cfg:2: expected 'key = value', got 'g_ghz 20'"),
    # A value outside its column's range, or not finite, names its line and column.
    "negative intensity": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": "detuning_GHz,intensity\n0,1\n1,-1\n"},
        3, "IngestError", "{tmp}/d.csv:3: intensity must be in [0, 1e+30], got -1.0"),
    "nan intensity": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/n.csv"],
        {"n.csv": SPECTRUM_TEXT + "2,nan\n"},
        3, "IngestError", "{tmp}/n.csv:5: intensity must be finite, got nan"),
    "intensity past its range": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": "detuning_GHz,intensity\n-1,0.5\n0,1e308\n1,0.5\n"},
        3, "IngestError", "{tmp}/d.csv:3: intensity must be in [0, 1e+30], got 1e+308"),
    "detuning far below its range": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": SPECTRUM_TEXT + "-1e300,0.5\n"},
        3, "IngestError",
        "{tmp}/d.csv:5: detuning_GHz must be in [-1e+06, 1e+06], got -1e+300"),
    "negative wavelength": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": "wavelength_nm,intensity\n935,0.5\n-100,0.1\n935.1,0.5\n"},
        3, "IngestError", "{tmp}/d.csv:3: wavelength_nm must be in [0.1, 1e+07], got -100.0"),
    "negative Stark voltage": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": "voltage_V,shift_meV\n0,0\n-1,0\n5,0.1\n"},
        3, "IngestError", "{tmp}/d.csv:3: voltage_V must be in [0, 100000], got -1.0"),
    "Stark voltage past its range": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": "voltage_V,shift_meV\n0,0\n1e300,0\n5,0.1\n"},
        3, "IngestError", "{tmp}/d.csv:3: voltage_V must be in [0, 100000], got 1e+300"),
    "Stark shift past its range": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": "voltage_V,shift_meV\n0,0\n3,1e308\n5,0.1\n"},
        3, "IngestError", "{tmp}/d.csv:3: shift_meV must be in [-1000, 1000], got 1e+308"),
    # An inf point is checked before duplicates merge, within whose relative
    # tolerance it would repeat its neighbour: dropped, or a false conflict.
    "inf detuning, its neighbour's intensity": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": SPECTRUM_TEXT + "inf,0.5\n"},
        3, "IngestError", "{tmp}/d.csv:5: detuning_GHz must be finite, got inf"),
    "inf detuning, another intensity": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": SPECTRUM_TEXT + "inf,0.7\n"},
        3, "IngestError", "{tmp}/d.csv:5: detuning_GHz must be finite, got inf"),
    # A finite value whose conversion to angular detuning would overflow is
    # outside its column's range.
    "detuning overflows": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": SPECTRUM_TEXT + "1e308,0.5\n"},
        3, "IngestError", "{tmp}/d.csv:5: detuning_GHz must be in [-1e+06, 1e+06], got 1e+308"),
    "wavelength detuning overflows": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": "wavelength_nm,intensity\n935,0.5\n1e308,0.5\n935.1,0.1\n"},
        3, "IngestError", "{tmp}/d.csv:3: wavelength_nm must be in [0.1, 1e+07], got 1e+308"),
    "repeated voltage": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": "voltage_V,shift_meV\n0,0\n1,0.1\n1,0.2\n"},
        3, "IngestError", "{tmp}/d.csv: voltages must be distinct, got 1.0"),
    # A file that is not UTF-8 names the line of its first undecodable byte:
    # a Latin-1 "µ" in a config comment, a Latin-1 "é" in a data row.
    "config file not UTF-8": (
        ["metrics", "--config", "{tmp}/c.cfg"], {"c.cfg": b"seed = 1\n# 0.5 \xb5m\n"},
        1, "ConfigError", "{tmp}/c.cfg:2: not UTF-8 text (invalid start byte: 0xb5)"),
    "data file not UTF-8": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": b"voltage_V,shift_meV\r\n0,0\r\n1,0.1 \xe9\r\n"},
        3, "IngestError", "{tmp}/d.csv:3: not UTF-8 text (invalid continuation byte: 0xe9)"),
    "zero coupling on a log scale": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv", "--config", "{tmp}/c.cfg"],
        {"d.csv": SPECTRUM_TEXT, "c.cfg": "g_ghz = 0\n"},
        2, "DomainError", "coupling must be > 0, got 0.0"),
    # Three points cannot fix the preset's four free parameters.
    "spectrum fit with fewer points than free parameters": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"], {"d.csv": SPECTRUM_TEXT},
        2, "DegenerateFitError", "need >= 4 points for 4 free parameters, found 3"),
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_cli_failure_prints_one_record_and_nothing_else(tmp_path, capsys, case):
    command, files, code, error_class, message = CLI_FAILURES[case]
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    argv = [part.format(tmp=tmp_path) for part in command]
    assert main(argv + ["--preset", "paper", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error_code": code, "error_class": error_class,
                                        "message": message.format(tmp=tmp_path)}
    assert not list(out.glob("*.csv"))
    assert not (out / MANIFEST_NAME).exists()
    assert _left_in(out) == {}


EXIT_TABLE = [
    (ConfigError("c"), 1), (IngestError("i"), 3), (DomainError("d"), 2),
    (DegenerateFitError("f"), 2), (OSError("o"), 3), (FileNotFoundError("n"), 3),
    (ValueError("v"), 2), (OverflowError("math range error"), 2), (ZeroDivisionError("z"), 2),
    (MemoryError("m"), 2), (np.linalg.LinAlgError("Singular matrix"), 2),
]


@pytest.mark.parametrize("exc, code", EXIT_TABLE, ids=[type(e).__name__ for e, _ in EXIT_TABLE])
def test_cli_exit_code_is_the_first_matching_class(tmp_path, capsys, monkeypatch, exc, code):
    def command(cfg, args):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "metrics", (command, None))
    out = tmp_path / "o"
    assert main(["metrics", "--preset", "paper", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error_code": code, "error_class": type(exc).__name__,
                                        "message": str(exc)}
    assert _left_in(out) == {}


@pytest.mark.parametrize("exc", [TypeError("t"), KeyError("k")], ids=["TypeError", "KeyError"])
def test_cli_lets_a_class_outside_the_exit_table_propagate(tmp_path, capsys, monkeypatch, exc):
    def command(cfg, args):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "metrics", (command, None))
    with pytest.raises(type(exc)):
        main(["metrics", "--preset", "paper", "--out", str(tmp_path / "o")])
    assert capsys.readouterr() == ("", "")


# An empty flag value is a value: each flag fails by its own rule, as any
# other name it cannot use would, instead of running on the defaults.
# case -> (command line after "qdswitch"; exit code; error class; message start)
EMPTY_FLAGS = {
    "--preset ''": (["metrics", "--preset", ""], 1, "ConfigError", "unknown preset ''"),
    "--config ''": (["metrics", "--config", ""], 1, "ConfigError", "config file not found: "),
    "contrast --data ''": (
        ["fit", "--kind", "contrast", "--preset", "paper", "--data", ""], 1, "ConfigError",
        "fit --kind contrast takes no --data; it fits contrast_targets"),
    "stark --data ''": (["fit", "--kind", "stark", "--preset", "paper", "--data", ""],
                        3, "IngestError", "data file not found: "),
    "spectrum --data ''": (["fit", "--kind", "spectrum", "--preset", "paper", "--data", ""],
                           3, "IngestError", "data file not found: "),
}


@pytest.mark.parametrize("case", sorted(EMPTY_FLAGS))
def test_cli_empty_flag_value_fails_by_its_own_rule(tmp_path, capsys, case):
    command, code, error_class, message = EMPTY_FLAGS[case]
    out = tmp_path / "o"
    assert main(["metrics", "--preset", "paper", "--out", str(out)]) == 0
    before = _left_in(out)
    capsys.readouterr()
    assert main(command + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    record = json.loads(captured.err)
    assert (record["error_code"], record["error_class"]) == (code, error_class)
    assert record["message"].startswith(message)
    assert _left_in(out) == before


@pytest.mark.parametrize("case", sorted(case for case, (*_, message) in EMPTY_FLAGS.items()
                                         if message.endswith("not found: ")))
def test_cli_empty_path_names_the_value_as_given(tmp_path, capsys, case):
    # Path('') is the working directory; the message names the flag's value.
    command, code, _, message = EMPTY_FLAGS[case]
    assert main(command + ["--out", str(tmp_path / "o")]) == code
    assert json.loads(capsys.readouterr().err)["message"] == message + "''"


# An --out that cannot be made a directory exits 3: an empty one, instead of
# writing into the working directory, one that names a file, and one through
# a file.  case -> (--out value, relative to a directory holding only
# FILE_IN_CWD; error class)
FILE_IN_CWD = ("data.csv", b"x\n1\n")
BAD_OUTS = {
    "empty": ("", "FileNotFoundError"),
    "a file": ("data.csv", "FileExistsError"),
    "through a file": ("data.csv/o", "NotADirectoryError"),
}


@pytest.mark.parametrize("case", BAD_OUTS)
@pytest.mark.parametrize("command", [["metrics", "--preset", "paper"],
                                     ["switch", "--preset", "paper"]], ids=["metrics", "switch"])
def test_cli_out_that_is_no_directory_exits_3(tmp_path, capsys, monkeypatch, command, case):
    out, error_class = BAD_OUTS[case]
    name, data = FILE_IN_CWD
    (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main(command + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    record = json.loads(captured.err)
    assert (record["error_code"], record["error_class"]) == (3, error_class)
    assert record["message"].endswith(f": {out!r}")
    assert _left_in(tmp_path) == {name: data}


# switch and the contrast fit read g(V) from the table at every bias, so a
# table the paper targets cannot meet fails the switch calibration, and a
# steep one fails both runs; either way --out keeps what it held.
@pytest.mark.parametrize("couplings, command, code", [
    ("20, 15", ["switch"], 1),
    ("20, 2", ["switch"], None),
    ("20, 2", ["fit", "--kind", "contrast"], None),
], ids=["unmet-switch", "steep-switch", "steep-fit"])
def test_cli_coupling_table_fails_the_calibration_cleanly(tmp_path, capsys, couplings,
                                                          command, code):
    cfg = tmp_path / "table.cfg"
    cfg.write_text(f"g_anchor_v = 0, 14\ng_anchor_ghz = {couplings}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(command + ["--preset", "paper", "--out", str(out)]) == 0
    before = _left_in(out)
    capsys.readouterr()
    exit_code = main(command + ["--preset", "paper", "--config", str(cfg), "--out", str(out)])
    assert exit_code != 0 if code is None else exit_code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    record = json.loads(captured.err)
    assert record["error_code"] == exit_code
    if code == 1:
        assert record["message"].endswith("(config key contrast_targets)")
    assert _left_in(out) == before


def _left_in(out):
    """{name: bytes} of every file in out, None for a directory; {} if out is absent."""
    if not out.exists():
        return {}
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


def _fail_csv_write(monkeypatch, n):
    """Make a run's nth CSV write put part of its file down, then raise OSError."""
    calls = []

    def write(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == n:
            path.write_bytes(b"voltage_V,x_d")
            raise OSError("no space left on device")
        return write_csv(path, *args, **kwargs)
    monkeypatch.setattr(cli, "write_csv", write)


SUCCESSFUL_RUNS = [["stark"], ["spectrum"], ["switch"], ["metrics"],
                   ["fit", "--kind", "contrast"]]


@pytest.mark.parametrize("command", SUCCESSFUL_RUNS, ids=" ".join)
def test_cli_success_lists_every_csv_then_prints(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main(command + ["--preset", "paper", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip()
    manifest = read_manifest(out / MANIFEST_NAME)
    csvs = sorted(out.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert manifest[f"output.{path.name}.sha256"] == \
            hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", SUCCESSFUL_RUNS, ids=" ".join)
def test_cli_failed_manifest_write_prints_no_summary(tmp_path, capsys, monkeypatch,
                                                     command):
    def refuse(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr("qdswitch.cli.write_manifest", refuse)
    assert main(command + ["--preset", "paper", "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error_class"] == "OSError"
    assert _left_in(tmp_path / "o") == {}


def test_cli_failed_run_removes_the_out_it_created(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr("qdswitch.cli.write_manifest", refuse)
    out = tmp_path / "fresh" / "nested"
    assert main(["stark", "--preset", "paper", "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert not out.exists()
    assert not out.parent.exists()


def test_cli_failed_second_csv_write_leaves_nothing(tmp_path, capsys, monkeypatch):
    # switch writes its trace, then its summary; the summary's write fails.
    _fail_csv_write(monkeypatch, 2)
    out = tmp_path / "o"
    assert main(["switch", "--preset", "paper", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error_code": 3, "error_class": "OSError",
                                        "message": "no space left on device"}
    assert _left_in(out) == {}


def test_cli_failed_rerun_keeps_the_previous_outputs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    assert main(["stark", "--preset", "paper", "--out", str(out)]) == 0
    before = _left_in(out)
    assert sorted(before) == [MANIFEST_NAME, "stark.csv"]
    capsys.readouterr()
    _fail_csv_write(monkeypatch, 1)
    assert main(["stark", "--preset", "paper", "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert _left_in(out) == before


def test_cli_failed_publication_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    # The first move into --out fails: the old manifest is already gone, so
    # none lists a file that is not there.
    out = tmp_path / "o"
    assert main(["stark", "--preset", "paper", "--out", str(out)]) == 0
    before = _left_in(out)

    def refuse(src, dst):
        raise OSError("cross-device link")
    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["stark", "--preset", "paper", "--out", str(out)]) == 3
    monkeypatch.undo()
    capsys.readouterr()
    assert _left_in(out) == {"stark.csv": before["stark.csv"]}


def test_stark_fit_on_nearly_equal_fields_is_degenerate(device_elec, device_stark):
    # Zero bias carries no field; the other three fields differ by ~1e-10,
    # so the design has no curvature to resolve.
    volts = np.array([0.0, 10.0, 10.0 + 1e-9, 10.0 + 2e-9])
    data = ShiftDataset(volts, stark_model(device_elec, device_stark, volts))
    with pytest.raises(DegenerateFitError, match="rank-deficient"):
        fit_stark_curve(data, device_elec)


CQED = CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1)
GRID = np.array([-1.0, 0.0, 1.0])

# case -> (call, message)
LIBRARY_FAILURES = {
    "no free parameters": (
        lambda: fit_spectrum(Spectrum(GRID, np.ones(3)), CQED, []),
        "^free parameter set must not be empty$"),
    "fewer spectrum points than free parameters": (
        lambda: fit_spectrum(Spectrum(GRID[:1], np.ones(1)), CQED, ["coupling", "dot_decay"]),
        "^need >= 2 points for 2 free parameters, found 1$"),
    "two Stark points above the onset": (
        lambda: fit_stark_curve(ShiftDataset(np.array([0.0, 8.0, 10.0]), np.zeros(3)),
                                ElectrostaticParams(9e15, 0.36, 12.9, 0.75)),
        "^need >= 3 points above the depletion onset, found 2$"),
    "decreasing times": (
        lambda: TimeTrace(np.array([0.0, 2.0, 1.0]), np.ones(3)),
        "^times must be strictly increasing, got 1.0$"),
    "trace shapes differ": (
        lambda: TimeTrace(GRID, np.ones(2)),
        r"^values must have shape \(3,\) like times, got shape \(2,\)$"),
    "negative intensity": (
        lambda: Spectrum(GRID, np.array([1.0, -1.0, 1.0])),
        "^intensities must be >= 0, got -1.0$"),
    "spectrum lengths differ": (
        lambda: Spectrum(GRID, np.ones(2)),
        r"^intensities must have shape \(3,\) like detunings, got shape \(2,\)$"),
    # The reference is checked before the file is read.
    "zero reference wavelength": (
        lambda: ingest_spectrum_csv("unread.csv", 0.0),
        r"^reference_wavelength must be in \[0.1, 1e\+07\], got 0.0$"),
    "tiny reference wavelength": (
        lambda: ingest_spectrum_csv("unread.csv", 1e-300),
        r"^reference_wavelength must be in \[0.1, 1e\+07\], got 1e-300$"),
    "negative reference wavelength": (
        lambda: ingest_spectrum_csv("unread.csv", -935.0),
        r"^reference_wavelength must be in \[0.1, 1e\+07\], got -935.0$"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_FAILURES))
def test_library_rejects_bad_input(case):
    call, message = LIBRARY_FAILURES[case]
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ingest, text, message", [
    (ingest_spectrum_csv, "detuning_GHz,intensity,pl\n1,2,3\n",
     "d.csv: expected 2 columns, header has 3$"),
    (ingest_shift_csv, "voltage_V,shift_meV\n\n", "d.csv: no data rows$"),
    (ingest_shift_csv, "voltage_V,shift_meV", "d.csv: no data rows$"),
    (ingest_shift_csv, "\n\nvoltage_V,shift_meV\r\n\r\n\r\n", "d.csv: no data rows$"),
    (ingest_spectrum_csv, "detuning_GHz,intensity\n \n\t\n\n", "d.csv: no data rows$"),
    (ingest_spectrum_csv, " \n\r\n", "d.csv: empty file$"),
    (ingest_spectrum_csv, "\r\n\r\ndetuning_GHz,intensity\r\n\r\n0,1\r\n1,x\r\n",
     "d.csv:6: non-numeric value$"),
    (ingest_spectrum_csv, "\n \ndetuning_GHz,intensity\n0,1\n1,-2\n",
     r"d.csv:5: intensity must be in \[0, 1e\+30\], got -2.0$"),
    (ingest_spectrum_csv, "\n\t\ndetuning_GHz,intensity\n0,1\n-1e308,1\n",
     r"d.csv:5: detuning_GHz must be in \[-1e\+06, 1e\+06\], got -1e\+308$"),
    (ingest_spectrum_csv, "detuning_GHz,intensity\n0,1\n-1e308,1\n",
     r"d.csv:3: detuning_GHz must be in \[-1e\+06, 1e\+06\], got -1e\+308$"),
    (ingest_spectrum_csv, "wavelength_nm,intensity\n1e308,1\n935,1\n",
     r"d.csv:2: wavelength_nm must be in \[0.1, 1e\+07\], got 1e\+308$"),
    (ingest_shift_csv, b"\xef\xbb\xbfvoltage_V,shift_meV\n\n0,0\n1,0.1\xb5\n",
     r"d.csv:4: not UTF-8 text \(invalid start byte: 0xb5\)$"),
], ids=["wrong-width header", "no data rows", "no data rows, header without newline",
        "no data rows, CRLF and blank lines", "no data rows, whitespace-only lines",
        "only blank lines", "malformed row after blank lines",
        "negative intensity after blank lines", "overflow after blank lines",
        "finite detuning that overflows", "finite wavelength whose detuning overflows",
        "Latin-1 byte after a byte-order mark"])
def test_ingest_rejects_a_malformed_file(tmp_path, ingest, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(IngestError, match=message):
        ingest(path)


def test_config_that_is_not_utf8_names_its_file_and_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"\xef\xbb\xbfg_ghz = 20\r\n\r\n# 0.5 \xb5m\r\n")
    message = r"c.cfg:3: not UTF-8 text \(invalid start byte: 0xb5\)$"
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
