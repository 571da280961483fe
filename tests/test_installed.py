"""The installed package, run as a user runs it: the `qdswitch` console
script and `python -m qdswitch.cli`, each a fresh interpreter that imports
qdswitch from site-packages with its bytecode.

Every case here needs such an install, so the module skips unless a
`qdswitch` script is on PATH and the qdswitch imported here lies outside
this checkout's src/.  To run it, install the package and start pytest
from a directory where src/ is not importable:

    python -m pip install ".[test]"
    cd "$(mktemp -d)" && python -m pytest /path/to/checkout/tests/test_installed.py

The failure tables are the tier-1 ones, which run the same cases in process.
"""

import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import qdswitch
from qdswitch import cli
from qdswitch.manifest import MANIFEST_NAME
from test_config_contract import BAD_KEYS, FAR_CONFIGS
from test_entry_point import IMPORT, RUNS, _outputs
from test_error_paths import (BAD_OUTS, CLI_FAILURES, EMPTY_FLAGS, FILE_IN_CWD, SUCCESSFUL_RUNS,
                              _left_in)
from test_io_cli import FLAT_TABLE, MET_TABLE, NOT_PRESETS, SLOPE_TABLE

PACKAGE_ROOT = Path(qdswitch.__file__).resolve().parents[1]
SCRIPT = shutil.which("qdswitch")
INSTALLED = SCRIPT is not None and PACKAGE_ROOT != Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not INSTALLED,
                                reason="no qdswitch script with a package outside src/")


def run(argv: list[str], entry: str, cwd: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `qdswitch argv` started in cwd: in this
    process through cli.main ("main"), as `python -m qdswitch.cli`
    ("module") or as the installed script ("script")."""
    if entry == "main":
        stdout, stderr, here = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(cwd)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(here)
        return code, stdout.getvalue(), stderr.getvalue()
    command = [sys.executable, "-m", "qdswitch.cli"] if entry == "module" else [SCRIPT]
    proc = subprocess.run(command + argv, cwd=cwd, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def script(cwd: Path, *argv: str) -> str:
    """stdout of a paper-preset script run in cwd that must exit 0."""
    code, out, err = run([*argv, "--preset", "paper"], "script", cwd)
    assert code == 0, err
    return out


def record(result: tuple[int, str, str], code: int) -> dict:
    """The JSON record of a run that must exit code with it as all of stderr."""
    exit_code, out, err = result
    assert (exit_code, out, err.count("\n")) == (code, "", 1), err
    fields = json.loads(err)
    assert fields["error_code"] == code
    return fields


def write(work: Path, files: dict) -> None:
    for name, text in files.items():
        (work / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def lists_its_sha256(out: Path, name: str) -> bool:
    digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    return f"output.{name}.sha256 = {digest}" in (out / MANIFEST_NAME).read_text().splitlines()


# -- entries ---------------------------------------------------------------------

@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("case", sorted(RUNS))
def test_entry_matches_main(tmp_path, case, entry):
    command, files, code = RUNS[case]
    write(tmp_path, files)
    argv = [part.format(tmp=tmp_path) for part in command] + ["--preset", "paper"]
    expected = run(argv + ["--out", "main"], "main", tmp_path)
    assert run(argv + ["--out", entry], entry, tmp_path) == expected
    assert _outputs(tmp_path / entry) == _outputs(tmp_path / "main")
    if code:
        record(expected, code)
    else:
        assert all(_outputs(tmp_path / "main").values())


def test_installed_cli_imports_from_bytecode_with_no_gc_pass(tmp_path):
    # IMPORT prints the collector's state around the import, whether it
    # failed and the GC passes run in cli.py's module body.
    code = IMPORT + "print(qdswitch.cli.__file__)\nprint(qdswitch.cli.__cached__)\n"
    proc = subprocess.run([sys.executable, "-c", code, ""], cwd=tmp_path, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    state, source, cached = proc.stdout.splitlines()
    assert state.split()[-2:] == ["False", "0"]
    assert "site-packages" in source
    assert os.path.isfile(cached)


# -- runs that exit 0 ------------------------------------------------------------

@pytest.mark.parametrize("command", SUCCESSFUL_RUNS, ids=" ".join)
def test_script_lists_every_csv_it_wrote_with_its_sha256(tmp_path, command):
    assert script(tmp_path, *command, "--out", "o")
    csvs = [path.name for path in (tmp_path / "o").glob("*.csv")]
    assert csvs
    assert all(lists_its_sha256(tmp_path / "o", name) for name in csvs)


def test_script_switch_ratio_on_a_slow_line_does_not_depend_on_cycles(tmp_path):
    ratios = set()
    for cycles in (3, 30):
        (tmp_path / "slow.cfg").write_text(f"rc_cutoff_mhz = 5\ncycles = {cycles}\n")
        script(tmp_path, "switch", "--config", "slow.cfg", "--out", f"slow{cycles}")
        manifest = (tmp_path / f"slow{cycles}" / MANIFEST_NAME).read_text().splitlines()
        ratios |= {line for line in manifest if line.startswith("summary.on_off_ratio = ")}
    assert len(ratios) == 1


def test_script_stark_fit_reads_a_spaced_crlf_file_as_the_clean_one(tmp_path):
    rows = ["voltage_V,shift_meV"] + [f"{v},{-0.002 * v * v}" for v in range(4, 13)]
    (tmp_path / "shifts.csv").write_text("".join(row + "\n" for row in rows))
    # CRLF endings, blank lines before the header, blank or whitespace-only
    # lines between rows.
    (tmp_path / "spaced.csv").write_bytes(
        ("\r\n \r\n" + "".join(row + "\r\n\r\n\t\r\n" for row in rows)).encode())
    assert script(tmp_path, "fit", "--kind", "stark", "--data", "shifts.csv", "--out", "fs")
    assert lists_its_sha256(tmp_path / "fs", "fit_report.csv")
    script(tmp_path, "fit", "--kind", "stark", "--data", "spaced.csv", "--out", "fs2")
    assert (tmp_path / "fs2" / "fit_report.csv").read_bytes() == \
        (tmp_path / "fs" / "fit_report.csv").read_bytes()


def test_script_spectrum_fit_recovers_the_spectrum_commands_coupling(tmp_path):
    # The spectrum command's reflectivity column fits back to the paper's
    # coupling, 2 pi 20 GHz, from a start 10 % off it.
    script(tmp_path, "spectrum", "--out", "run")
    lines = (tmp_path / "run" / "spectrum.csv").read_text().splitlines()
    (tmp_path / "refl.csv").write_text("".join(
        ",".join(line.split(",")[:2]) + "\n" for line in lines))
    (tmp_path / "start.cfg").write_text("g_ghz = 18\ngamma_ghz = 0.15\n")
    script(tmp_path, "fit", "--kind", "spectrum", "--config", "start.cfg", "--data", "refl.csv",
           "--out", "fsp")
    rows = (tmp_path / "fsp" / "fit_report.csv").read_text().splitlines()
    assert "converged,1,flag" in rows
    report = dict(row.split(",")[:2] for row in rows)
    assert abs(float(report["coupling"]) / (2 * math.pi * 20) - 1) <= 1e-6
    assert lists_its_sha256(tmp_path / "fsp", "fit_report.csv")


# -- runs that fail --------------------------------------------------------------

@pytest.mark.parametrize("key, text", BAD_KEYS)
def test_script_rejects_a_key_out_of_range_and_keeps_the_last_outputs(tmp_path, key, text):
    assert run(["metrics", "--preset", "paper", "--out", "m"], "main", tmp_path)[0] == 0
    before = _left_in(tmp_path / "m")
    (tmp_path / "bad.cfg").write_text(f"{key} = {text}\n")
    message = record(run(["metrics", "--preset", "paper", "--config", "bad.cfg", "--out", "m"],
                         "script", tmp_path), 1)["message"]
    assert message.endswith(f"(config key {key})")
    if key == "detuning_stop_ghz":   # checked as its line is read
        assert message.startswith("bad.cfg:1:")
    assert _left_in(tmp_path / "m") == before
    assert lists_its_sha256(tmp_path / "m", "metrics.csv")


@pytest.mark.parametrize("command, key, text", FAR_CONFIGS)
def test_script_rejects_a_far_key_before_writing(tmp_path, command, key, text):
    (tmp_path / "far.cfg").write_text(f"{key} = {text}\n")
    message = record(run([command, "--preset", "paper", "--config", "far.cfg", "--out", "far"],
                         "script", tmp_path), 1)["message"]
    assert message.endswith(f"(config key {key})")
    assert not (tmp_path / "far").exists()


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_script_failure_prints_one_record_and_nothing_else(tmp_path, case):
    command, files, code, error_class, message = CLI_FAILURES[case]
    write(tmp_path, files)
    argv = [part.format(tmp=tmp_path) for part in command]
    fields = record(run(argv + ["--preset", "paper", "--out", "o"], "script", tmp_path), code)
    assert fields == {"error_code": code, "error_class": error_class,
                      "message": message.format(tmp=tmp_path)}
    assert _left_in(tmp_path / "o") == {}


@pytest.mark.parametrize("name", NOT_PRESETS)
def test_script_preset_names_only_a_built_in_file(tmp_path, name):
    (tmp_path / "mine.cfg").write_text("bias_v = 1\n")
    name = name.format(tmp=tmp_path)
    fields = record(run(["metrics", "--preset", name, "--out", "o"], "script", tmp_path), 1)
    assert fields["message"] == f"unknown preset '{name}'"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", sorted(EMPTY_FLAGS))
def test_script_empty_flag_value_fails_in_an_empty_directory_it_leaves_empty(tmp_path, case):
    # No --out: the default, the working directory, must stay empty.
    command, code, error_class, message = EMPTY_FLAGS[case]
    fields = record(run(command, "script", tmp_path), code)
    assert fields["error_class"] == error_class
    assert fields["message"].startswith(message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", BAD_OUTS)
def test_script_out_that_is_no_directory_exits_3(tmp_path, case):
    out, error_class = BAD_OUTS[case]
    name, data = FILE_IN_CWD
    (tmp_path / name).write_bytes(data)
    fields = record(run(["metrics", "--out", out], "script", tmp_path), 3)
    assert fields["error_class"] == error_class
    assert fields["message"].endswith(f": {out!r}")
    assert _left_in(tmp_path) == {name: data}


# -- the coupling table ----------------------------------------------------------

def _spectrum(work: Path, name: str, text: str) -> bytes:
    (work / f"{name}.cfg").write_text(text)
    script(work, "spectrum", "--config", f"{name}.cfg", "--out", name)
    return (work / name / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("bias", ["0", "3"])
def test_script_spectrum_flat_coupling_table_changes_no_byte(tmp_path, bias):
    device = f"bias_v = {bias}\n"
    assert _spectrum(tmp_path, "flat", device + FLAT_TABLE) == _spectrum(tmp_path, "plain", device)


def test_script_spectrum_at_zero_bias_follows_a_sloped_coupling_table(tmp_path):
    device = "bias_v = 0\n"
    assert _spectrum(tmp_path, "slope", device + SLOPE_TABLE) != \
        _spectrum(tmp_path, "plain", device)


def test_script_switch_and_contrast_fit_read_the_coupling_table(tmp_path):
    written = {}
    for name, text in (("plain", ""), ("flat", FLAT_TABLE), ("met", MET_TABLE)):
        (tmp_path / f"{name}.cfg").write_text(text)
        for command in (["switch"], ["fit", "--kind", "contrast"]):
            script(tmp_path, *command, "--config", f"{name}.cfg", "--out", name)
        written[name] = {f: (tmp_path / name / f).read_bytes()
                         for f in ("switch_trace.csv", "switch_summary.csv", "fit_report.csv")}
    assert written["flat"] == written["plain"]
    assert written["met"]["switch_trace.csv"] != written["plain"]["switch_trace.csv"]
