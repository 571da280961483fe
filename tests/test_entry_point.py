"""The process entry point: `qdswitch` and `python -m qdswitch.cli` both go
through cli.run(), which freezes the import-time heap and exits with
main's code.  main(argv), the in-process API, changes no GC state and
gives the same bytes as a process run."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdswitch
from qdswitch import cli
from qdswitch.manifest import MANIFEST_NAME

SRC = Path(qdswitch.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file the run left in out; the manifest without the lines that
    differ between two identical runs (its timestamp and input paths)."""
    if not out.is_dir():
        return {}
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    if MANIFEST_NAME in files:
        files[MANIFEST_NAME] = b"".join(
            line for line in files[MANIFEST_NAME].splitlines(keepends=True)
            if not line.startswith(b"created_utc = ")
            and not (line.startswith(b"input.") and b".path = " in line))
    return files


@pytest.mark.parametrize("argv", [["metrics"], ["switch"], ["fit", "--kind", "contrast"]],
                         ids=" ".join)
def test_main_changes_no_gc_state(tmp_path, capsys, argv):
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main([*argv, "--preset", "paper", "--out", str(tmp_path / "o")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# case -> (command line after "qdswitch", with {tmp} for the work directory;
#          {file name: text} written there first; exit code)
RUNS = {
    "metrics": (["metrics"], {}, 0),
    "rejected key": (["metrics", "--config", "{tmp}/bad.cfg"], {"bad.cfg": "nd_cm3 = -1\n"}, 1),
    "missing data file": (["fit", "--kind", "spectrum", "--data", "{tmp}/missing.csv"], {}, 3),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_module_run_matches_main(tmp_path, capsys, case):
    command, files, code = RUNS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [part.format(tmp=tmp_path) for part in command] + ["--preset", "paper"]

    assert cli.main(argv + ["--out", str(tmp_path / "main")]) == code
    captured = capsys.readouterr()
    proc = fresh_python("-m", "qdswitch.cli", *argv, "--out", str(tmp_path / "module"))

    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert _outputs(tmp_path / "module") == _outputs(tmp_path / "main")
    assert (MANIFEST_NAME in _outputs(tmp_path / "main")) == (code == 0)


# Calls cli.run() as the console script does; an atexit hook reports the
# GC state the interpreter shuts down with.
RUN = """
import atexit, gc, sys
from qdswitch import cli
atexit.register(lambda: print("gc", gc.get_freeze_count(), gc.isenabled()))
sys.argv = ["qdswitch", *sys.argv[1:]]
cli.run()
"""


def test_run_freezes_the_import_heap_and_exits_with_mains_code(tmp_path):
    proc = fresh_python("-c", RUN, "metrics", "--preset", "paper", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    _, count, enabled = proc.stdout.splitlines()[-1].split()
    assert int(count) > 0
    assert enabled == "True"
    assert (tmp_path / "o" / "metrics.csv").is_file()


def test_console_script_enters_through_run():
    text = PYPROJECT.read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip().splitlines() == ['qdswitch = "qdswitch.cli:run"']


# argv -> SHA-256 of its --help text at an 80-column terminal
HELP_SHA256 = {
    (): "cd3b572335ff21215e189a06224925950f19f099b717bfda5f092c3094ed6c31",
    ("spectrum",): "a2e3fbc59e8f272bd40ff9197b28cec00702e5dd643b2305bb643f32fcfbd70c",
    ("stark",): "ba9d88561dc581464d370b22d870192ca57665e0fd7d427cb7e21f292ec24d83",
    ("switch",): "c9c8d982f79701fda31424657b9e5b66bfc3c8d7545fefb5e19b7b4094ce2a73",
    ("fit",): "44a0da6c344979e208e8c1448c80b457a032df3e9efafde185fb4c74d37b3cca",
    ("metrics",): "061ef2c3493f9511091c7500ee0d06799b7073e574184147ec2d71f54ffa222b",
}


@pytest.mark.parametrize("argv", sorted(HELP_SHA256), ids=lambda a: " ".join(a) or "qdswitch")
def test_help_texts_keep_their_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv], out


# Imports qdswitch.cli in a fresh interpreter after running the setup code in
# argv[1].  Prints the collector's (on/off, freeze count) before and after the
# import, whether the import raised ImportError, and the GC passes that started
# while cli.py's module body was on the stack.
IMPORT = """
import gc, os, sys
exec(sys.argv[1])
CLI = os.path.join("qdswitch", "cli.py")
passes = []
def count(phase, info):
    frame = sys._getframe()
    while phase == "start" and frame is not None:
        if frame.f_code.co_name == "<module>" and frame.f_code.co_filename.endswith(CLI):
            passes.append(info["generation"])
            break
        frame = frame.f_back
before = gc.isenabled(), gc.get_freeze_count()
gc.callbacks.append(count)
try:
    import qdswitch.cli
    failed = False
except ImportError:
    failed = True
gc.callbacks.remove(count)
print(*before, gc.isenabled(), gc.get_freeze_count(), failed, len(passes))
"""


def import_cli(setup: str = "") -> tuple[str, ...]:
    proc = fresh_python("-c", IMPORT, setup)
    assert proc.returncode == 0, proc.stderr
    return tuple(proc.stdout.split())


def test_importing_cli_runs_no_gc_pass():
    *_, failed, passes = import_cli()
    assert (failed, passes) == ("False", "0")


@pytest.mark.parametrize("setup", ["", "gc.disable()", "gc.freeze()", "gc.disable(); gc.freeze()"],
                         ids=["enabled", "disabled", "frozen", "disabled and frozen"])
def test_importing_cli_leaves_the_collector_as_it_found_it(setup):
    enabled, frozen, enabled_after, frozen_after, failed, _ = import_cli(setup)
    assert failed == "False"
    assert (enabled_after, frozen_after) == (enabled, frozen)
    assert (frozen == "0") == ("freeze" not in setup)


def test_failed_import_of_cli_restores_the_collector():
    enabled, frozen, enabled_after, frozen_after, failed, _ = import_cli(
        'sys.modules["numpy"] = None')
    assert failed == "True"
    assert (enabled_after, frozen_after) == (enabled, frozen) == ("True", "0")
