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
    CqedParams,
    DegenerateFitError,
    DomainError,
    IngestError,
    ShiftDataset,
    Spectrum,
    TimeTrace,
)
from qdswitch import cli
from qdswitch.cli import main
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
    "negative intensity": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv"],
        {"d.csv": "detuning_GHz,intensity\n0,1\n1,-1\n"},
        3, "IngestError", "{tmp}/d.csv:3: negative intensity"),
    "repeated voltage": (
        ["fit", "--kind", "stark", "--data", "{tmp}/d.csv"],
        {"d.csv": "voltage_V,shift_meV\n0,0\n1,0.1\n1,0.2\n"},
        3, "IngestError", "{tmp}/d.csv: voltages must be distinct, got 1.0"),
    "zero coupling on a log scale": (
        ["fit", "--kind", "spectrum", "--data", "{tmp}/d.csv", "--config", "{tmp}/c.cfg"],
        {"d.csv": SPECTRUM_TEXT, "c.cfg": "g_ghz = 0\n"},
        2, "DomainError", "coupling must be > 0, got 0.0"),
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_cli_failure_prints_one_record_and_nothing_else(tmp_path, capsys, case):
    command, files, code, error_class, message = CLI_FAILURES[case]
    for name, text in files.items():
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
     "d.csv:3: non-numeric value$"),
], ids=["wrong-width header", "no data rows", "no data rows, header without newline",
        "no data rows, CRLF and blank lines", "no data rows, whitespace-only lines",
        "only blank lines", "malformed row after blank lines"])
def test_ingest_rejects_a_malformed_file(tmp_path, ingest, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(IngestError, match=message):
        ingest(path)
