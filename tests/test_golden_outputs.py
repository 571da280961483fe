"""End-to-end output bytes are pinned.

Every command runs through cli.main on --preset paper, plus one long
switching trace and one uncalibrated switch; the SHA-256 of each CSV, of
each manifest with its timestamp and path lines dropped, and of each
run's stdout must match the table below.  The fit
inputs are written here from fixed seeds with repr, so they do not
depend on the CSV writer under test.

A change that means to move bytes regenerates the table
(``PYTHONPATH=src python tests/test_golden_outputs.py``) in the same
commit and says why.  numpy and CPython round some complex arithmetic
differently, so a numpy release can move bytes too: that is a finding to
report, never a reason to loosen this check.
"""

import hashlib
import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from qdswitch import CqedParams, ElectrostaticParams, StarkCoefficients
from qdswitch.cli import main
from qdswitch.cqed import reflectivity_model
from qdswitch.fitting import stark_model

TWO_PI = 2.0 * math.pi

# The numpy release the table was generated with.
NUMPY_VERSION = "2.4.6"

# (run, file) -> SHA-256; manifest.txt is hashed without its variable lines,
# and "stdout" is the run's printed summary.
GOLDEN = {
    ("fit_contrast", "fit_report.csv"):
        "47c13f6fa9a250805f318165e26336c65428baacc4ed866ac2ec2d856358a898",
    ("fit_contrast", "manifest.txt"):
        "c4738c205dd3782882325cc3e84b0e4b070673deb08b8bb45bfea7f5e2ebb1d6",
    ("fit_contrast", "stdout"):
        "332ac9ed614487cf05c1381147fb4e34e59443613d1e84aeb957a07ced25a727",
    ("fit_spectrum", "fit_report.csv"):
        "58353c6db811e64f8f4c422af00805988f9d4b9ce284159813c8d4fa011ae729",
    ("fit_spectrum", "manifest.txt"):
        "521663504f40231983680a4e792d4457bbd7d54f35b7fbf9f2a0b551c518389f",
    ("fit_spectrum", "stdout"):
        "bc6ffb0ad124a082b7830b79541a9f3abebd405bc4755f4a9b5401e671a0b1de",
    ("fit_stark", "fit_report.csv"):
        "cfcc0918d0a410365c3a08370d9f4661cbde6ede1b2c1140bc188dd65452a3c6",
    ("fit_stark", "manifest.txt"):
        "2013028f8bfb5d20f7b2e300f3cd0e38ee9e7e76ec13cedcfeb484452e571264",
    ("fit_stark", "stdout"):
        "a1821c5902ef81182fdd99759ca28267a24008298eedab6fa0a5baf76aefd19f",
    ("metrics", "manifest.txt"):
        "eb90d4f297d5ba06fb9e78dc72f95b2c3ff4bdf00335117f57e287d6d44e3772",
    ("metrics", "metrics.csv"):
        "2c14a1ff8f22437143b8b962af408db6a644883bdb5b3389072d505d6d1dd1a0",
    ("metrics", "stdout"):
        "8dccdd630549b8848bfec660b1ec025ca52ebb9af8f6267e5a52f3df370882b8",
    ("spectrum", "manifest.txt"):
        "c5cd3f0523ff11502ddd8f75ae3651ed05432a1b6d18d692e67dbd4f89458631",
    ("spectrum", "spectrum.csv"):
        "1bf71164cbb1d1d926a886f6358ffc6b7dfd112065fbc2d771bb907258746c77",
    ("spectrum", "stdout"):
        "0779b30ecae031f102d0b3f420cabce75486fea9f47a58b22a5bc91af883e472",
    ("spectrum_bias", "manifest.txt"):
        "852339c9f92393b350aa8edf19eeea26caa935e047f55907caf3f5b86448d6ae",
    ("spectrum_bias", "spectrum.csv"):
        "70d406304c6b2fc355a417386aba354e8ce50fc3046790e3e8da32451b40ffc6",
    ("spectrum_bias", "stdout"):
        "0779b30ecae031f102d0b3f420cabce75486fea9f47a58b22a5bc91af883e472",
    ("stark", "manifest.txt"):
        "bc163a70916713c4754aee5331df3bbea8f86dfed573341f628244839c042432",
    ("stark", "stark.csv"):
        "a7a97ae30ea5e3ee0f242397a471ef9ccccdd43d471248d41dfe817c73e3235e",
    ("stark", "stdout"):
        "d1c68ed7dda5ebad98677b918e0fcf8fc35f9b5cfef7c03058bdd959232e0227",
    ("switch", "manifest.txt"):
        "c7384aaab5b7f7cd31394e3f46ead1d3acda11a84a06ca02a1398951c325e9a8",
    ("switch", "stdout"):
        "2ef97b8c887e91e7725991efb62045dde5fcc07b73052938ff4afdc059efbfa1",
    ("switch", "switch_summary.csv"):
        "9cf971efa3ed414b17b20e8e4b34e8a2fe478583c9c2b699549bdc042051f319",
    ("switch", "switch_trace.csv"):
        "47e928dbbd2e5355b3d77c14bbfcc06d31b334c4e400704d351d86a68b4404dd",
    ("switch_long", "manifest.txt"):
        "0d92133baa0fd62d8447c103c365a712fd967d33c06b92e66e0ee9585e18858a",
    ("switch_long", "stdout"):
        "ca1c358dc785f22185adbbc94e28b5e47b0f3e5008d042b0a00b7e6fa4b443bc",
    ("switch_long", "switch_summary.csv"):
        "4894d39359e34673d8c6b6d27dd84a088a0239156d12684b4427d23b81f3505c",
    ("switch_long", "switch_trace.csv"):
        "716456759bb8d5e26a567a8711c48e13cf707fa182064a7f39b91b506c46430d",
    ("switch_uncalibrated", "manifest.txt"):
        "b4b15766bbbc85788ab6acb319860c55a2774c39d3077c9f028b83dc13346c23",
    ("switch_uncalibrated", "stdout"):
        "ba3deafff4009f2f6fdc1ee85a7b9bcbf4bddb331394006bc657bce88b7481d2",
    ("switch_uncalibrated", "switch_summary.csv"):
        "c0856147f0b05afa22e67c78b7845f901a7d40f06000d6b6d6ced135dae7c4c2",
    ("switch_uncalibrated", "switch_trace.csv"):
        "95dac7d5f5d88c674e60e4c5652a5a62f1564b8fd75fd1d385ca6c794c8de213",
}

# run -> (command line after "qdswitch", config overlay text or None)
RUNS = {
    "stark": (["stark"], None),
    "spectrum": (["spectrum"], None),
    # A biased spectrum: the Stark-shifted dot and an interpolated coupling.
    "spectrum_bias": (["spectrum"], "bias_v = 7.5\ng_anchor_v = 0, 5, 10\n"
                                    "g_anchor_ghz = 20, 17, 12\n"),
    "switch": (["switch"], None),
    "switch_long": (["switch"], "drive_mhz = 10\ncycles = 6\nsamples_per_cycle = 4096\n"),
    # No contrast targets: the configured dot_decay and screening, no calibration.
    "switch_uncalibrated": (["switch"], "contrast_targets =\n"),
    "metrics": (["metrics"], None),
    "fit_stark": (["fit", "--kind", "stark", "--data", "shifts.csv"], None),
    "fit_spectrum": (["fit", "--kind", "spectrum", "--data", "spectrum_data.csv"],
                     "g_ghz = 21\nkappa_ghz = 38\ngamma_ghz = 5\n"
                     "dot_offset_ghz = 30\nbackground = 0.05\n"),
    "fit_contrast": (["fit", "--kind", "contrast"], None),
}


def _write_table(path: Path, header: str, columns) -> None:
    rows = (",".join(map(repr, map(float, row))) for row in zip(*columns))
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_fit_inputs(work: Path) -> None:
    """Seeded noisy Stark and spectrum data for the two data-driven fits."""
    elec = ElectrostaticParams(9e15, 0.36, 12.9, 0.75)
    stark = StarkCoefficients(-0.009, -0.015)
    volts = np.linspace(0.0, 10.0, 41)
    shifts = stark_model(elec, stark, volts)
    shifts = shifts + np.random.default_rng(11).normal(0.0, 1e-4, volts.size)
    _write_table(work / "shifts.csv", "voltage_V,shift_meV", [volts, shifts])

    truth = CqedParams(0.0, TWO_PI * 30.0, TWO_PI * 18.0, TWO_PI * 42.0, TWO_PI * 6.0,
                       background=0.05)
    grid = np.linspace(-150.0, 150.0, 601)
    intensity = reflectivity_model(truth, TWO_PI * grid)
    intensity = intensity + np.random.default_rng(12).normal(0.0, 0.005, grid.size)
    _write_table(work / "spectrum_data.csv", "detuning_GHz,intensity", [grid, intensity])


def manifest_digest(path: Path) -> str:
    """Digest of a manifest without its timestamp and input path lines,
    the only lines that differ between identical runs in other places."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not (line.startswith("created_utc =")
                     or line.startswith("input.") and ".path =" in line)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def run_all(work: Path) -> dict[tuple[str, str], str]:
    """Run every entry of RUNS under work; (run, file) -> digest."""
    write_fit_inputs(work)
    digests = {}
    for name, (command, overlay) in RUNS.items():
        out = work / name
        argv = [part if not part.endswith(".csv") else str(work / part) for part in command]
        argv += ["--preset", "paper", "--out", str(out)]
        if overlay is not None:
            cfg = work / f"{name}.cfg"
            cfg.write_text(overlay, encoding="utf-8")
            argv += ["--config", str(cfg)]
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}")
        digests[name, "stdout"] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        for path in sorted(out.iterdir()):
            digests[name, path.name] = (manifest_digest(path) if path.name == "manifest.txt"
                                        else hashlib.sha256(path.read_bytes()).hexdigest())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


def test_golden_table_lists_every_output(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("run, name", sorted(GOLDEN))
def test_output_bytes_match_the_golden_table(digests, run, name):
    assert digests.get((run, name)) == GOLDEN[run, name], (
        f"{run}/{name} moved; the table was generated with numpy {NUMPY_VERSION}, "
        f"this is numpy {np.__version__}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sys.stderr):
        table = run_all(Path(tmp))
    print(f'NUMPY_VERSION = "{np.__version__}"')
    for (run, name), digest in sorted(table.items()):
        print(f'    ("{run}", "{name}"):\n        "{digest}",')
