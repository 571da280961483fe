"""Each CLI command imports only the layers it runs; the package root
imports nothing until a name is used."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdswitch

SRC = Path(qdswitch.__file__).resolve().parents[1]

# Runs cli.main on argv in a fresh interpreter; the last stdout line is
# the exit code followed by every loaded module.
LOADED = """
import sys
from qdswitch.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def fresh_python(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout


def loaded_by_command(tmp_path, argv) -> tuple[str, set[str]]:
    """The exit code of a fresh run of argv on the paper preset, and the
    modules it loaded."""
    if argv[0] == "fit":
        data = tmp_path / "shift.csv"
        data.write_text("voltage_V,shift_meV\n"
                        + "".join(f"{v},{-0.002 * v * v}\n" for v in range(4, 13)),
                        encoding="utf-8")
        argv = [*argv, "--data", str(data)]
    out = fresh_python("-c", LOADED, *argv, "--preset", "paper",
                       "--out", str(tmp_path / "o"))
    code, *modules = out.splitlines()[-1].split()
    return code, set(modules)


# The commands whose tables hold a flag or text column write them as
# strings, so they never load the float kernel.
@pytest.mark.parametrize("argv, absent", [
    (["stark"], {"fitting", "switching", "floattext"}),
    (["spectrum"], {"fitting", "switching"}),
    (["metrics"], {"fitting", "floattext"}),
    (["fit", "--kind", "stark"], {"switching", "floattext"}),
], ids=["stark", "spectrum", "metrics", "fit-stark"])
def test_cli_command_loads_only_its_layers(tmp_path, argv, absent):
    code, modules = loaded_by_command(tmp_path, argv)
    assert code == "0"
    assert "qdswitch.cli" in modules
    assert not {f"qdswitch.{name}" for name in absent} & modules


def test_cli_fit_stark_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on first use: 12-18 ms of a fresh start.
    code, modules = loaded_by_command(tmp_path, ["fit", "--kind", "stark"])
    assert code == "0"
    assert "numpy" in modules and "numpy.ma" not in modules


def test_package_import_loads_no_submodule():
    out = fresh_python("-c", "import sys, qdswitch; "
                             "print([m for m in sys.modules if m.startswith('qdswitch.')])")
    assert out.strip() == "[]"


def test_every_public_name_resolves_to_its_home_module():
    for name in qdswitch.__all__:
        obj = getattr(qdswitch, name)
        assert obj.__module__.startswith("qdswitch.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace = {}
    exec("from qdswitch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qdswitch.__all__)
    # The moved data types stay importable from their former modules.
    from qdswitch.fitting import ShiftDataset
    from qdswitch.switching import DriveSpec
    assert DriveSpec is qdswitch.DriveSpec and ShiftDataset is qdswitch.ShiftDataset


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qdswitch.no_such_name
    with pytest.raises(ImportError):
        from qdswitch import no_such_name  # noqa: F401
