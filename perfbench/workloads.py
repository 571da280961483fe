"""Workloads: seeded inputs, the op cycle of each workload, how an op runs,
and the checks it must pass.

Every input is generated here from the workload seed; the program sees
only the generated files and configs.  Ops run one at a time (closed loop,
one client).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qdswitch import cli, config, cqed, csvio, electrostatics, fitting, manifest, switching
from qdswitch.constants import SPEED_OF_LIGHT_NM_NS

from stats import digest_files, digest_text

MODULES = {"cli": cli, "config": config, "electrostatics": electrostatics, "cqed": cqed,
           "switching": switching, "fitting": fitting, "csvio": csvio, "manifest": manifest}

TWO_PI = 2.0 * math.pi
PRESET = "paper"
OP_TIMEOUT_S = 120

# Spectrum-fit inputs.  The bias puts the dot 10-140 GHz from the cavity:
# inside the +-150 GHz scan and clear of the cavity line, where every free
# parameter is identifiable from the data.
SPECTRUM_FREE = ("coupling", "cavity_decay", "dot_decay", "amplitude")
BIAS_RANGE_V = (4.5, 8.5)
BACKGROUND = 0.05
NOISE = 0.005                 # additive, 0.5 % of the bare-cavity peak
START_FACTOR = 1.5            # each free parameter starts up to 1.5x off the truth
SCAN_GHZ = (-150.0, 150.0)

# Contrast-calibration truths sit around the paper preset's calibrated point
# (dot_decay / 2 pi ~ 17 GHz, screening ~ 0.11).
CONTRAST_VOLTS = (10.0, 14.0)
CONTRAST_GAMMA_GHZ = 17.0

# Tolerances for "recovered the generated truth" (relative, except screening).
SPECTRUM_RTOL = {"coupling": 0.02, "cavity_decay": 0.02, "amplitude": 0.02,
                 "dot_decay": 0.25}
STARK_RTOL = 1e-6             # noise-free data, closed-form fit
CONTRAST_TOL = 1e-4           # dot_decay relative, screening absolute
CONTRAST_RESIDUAL = 1e-6      # preset targets, no truth: model must hit them

# Nonlinear solves: their failures (raise, no convergence, truth missed) are
# counted as failed ops but are not treated as wrong output.  Every other
# failed check also marks the run incorrect.
SOLVER_KINDS = ("fit_spectrum", "fit_contrast")


def is_solver(kind: str) -> bool:
    return kind.startswith(SOLVER_KINDS)


@dataclass
class Op:
    kind: str
    key: str                        # identifies the input; reruns must match
    argv: list[str] | None = None   # CLI ops
    out: Path | None = None         # CLI ops: output directory
    data: Path | None = None        # library ops: input file
    start: object = None            # library ops: start point or targets
    truth: dict | None = None


@dataclass
class Outcome:
    ms: float
    digest: str
    failure: str | None             # None when every check passed


class Workload:
    name = ""
    in_process = False              # True: ops call the library in this process

    def __init__(self, root: Path, seed: int, child_env: dict):
        self.root = root
        self.seed = seed
        self.child_env = child_env
        self.preset = root / "src" / "qdswitch" / "presets" / f"{PRESET}.cfg"
        cfg = config.parse_config(self.preset)
        self.elec = cfg.electrostatic_params()
        self.stark = cfg.stark_coefficients()
        self.cqed0 = cfg.cqed_params()
        self.sign = cfg["field_sign"]
        self.lambda0 = cfg["lambda0_nm"]
        self.cfg = cfg

    # -- set-up ------------------------------------------------------------

    def setup(self, base: Path) -> list[Op]:
        """Fresh inputs under base; returns the op cycle."""
        shutil.rmtree(base, ignore_errors=True)
        for sub in ("data", "cfg", "out"):
            (base / sub).mkdir(parents=True)
        return self.make_ops(base, np.random.default_rng(self.seed))

    def make_ops(self, base: Path, rng) -> list[Op]:
        raise NotImplementedError

    def cli_op(self, base: Path, kind: str, key: str, *args: str, truth=None) -> Op:
        out = base / "out" / kind
        argv = [*args, "--preset", PRESET, "--out", str(out)]
        return Op(kind, key, argv=argv, out=out, truth=truth)

    def spectrum_case(self, rng):
        """(truth, start) CqedParams: the dot Stark-shifted by a seeded bias,
        seeded device spread, and a seeded off-optimum start."""
        bias = rng.uniform(*BIAS_RANGE_V)
        detune = electrostatics.voltage_to_detuning(self.elec, self.stark, bias,
                                                    field_sign=self.sign)
        c = self.cqed0
        truth = replace(c, dot_freq=c.dot_freq + detune,
                        coupling=c.coupling * rng.uniform(0.8, 1.2),
                        cavity_decay=c.cavity_decay * rng.uniform(0.8, 1.2),
                        dot_decay=c.dot_decay * math.exp(rng.uniform(-0.7, 0.7)),
                        amplitude=c.amplitude * rng.uniform(0.8, 1.2),
                        background=BACKGROUND)
        span = math.log(START_FACTOR)
        start = replace(truth, **{name: getattr(truth, name) * math.exp(rng.uniform(-span, span))
                                  for name in SPECTRUM_FREE})
        return truth, start

    def write_spectrum(self, path: Path, rng, truth, points: int, wavelength: bool) -> None:
        nu = np.linspace(*SCAN_GHZ, points)
        intensity = cqed.reflectivity_spectrum(truth, TWO_PI * nu).intensities
        intensity = np.maximum(intensity + rng.normal(0.0, NOISE, points), 0.0)
        if wavelength:
            lam = self.lambda0 - nu * self.lambda0 ** 2 / SPEED_OF_LIGHT_NM_NS
            csvio.write_csv(path, ["wavelength_nm", "intensity"], zip(lam[::-1], intensity[::-1]))
        else:
            csvio.write_csv(path, ["detuning_GHz", "intensity"], zip(nu, intensity))

    def write_stark(self, path: Path, rng, volts) -> dict:
        coeffs = electrostatics.StarkCoefficients(
            self.stark.dipole_mev_um_per_v * rng.uniform(0.8, 1.2),
            self.stark.polarizability_mev_um2_per_v2 * rng.uniform(0.8, 1.2))
        shifts = fitting.stark_model(self.elec, coeffs, volts, field_sign=self.sign)
        csvio.write_csv(path, ["voltage_V", "shift_meV"], zip(volts, shifts))
        return {"dipole_mev_um_per_v": coeffs.dipole_mev_um_per_v,
                "polarizability_mev_um2_per_v2": coeffs.polarizability_mev_um2_per_v2}

    # -- running one op ----------------------------------------------------

    def run(self, op: Op, in_process: bool = False, timed=contextlib.nullcontext) -> Outcome:
        """Run op once and check it.  in_process runs a CLI op through
        cli.main(argv); timed() wraps only the timed part of the op."""
        shutil.rmtree(op.out, ignore_errors=True)
        with timed():
            t0 = time.perf_counter()
            code, stderr = run_cli_main(op.argv) if in_process else self.run_cli_child(op.argv)
            ms = 1e3 * (time.perf_counter() - t0)
        files = sorted(op.out.iterdir()) if op.out.is_dir() else []
        digest = digest_files(files, str(self.root), f"exit={code}")
        if code != 0:
            return Outcome(ms, digest, f"exit {code} {error_class(stderr)}".strip())
        return Outcome(ms, digest, check_csv_finite(files) or self.check_cli(op))

    def run_cli_child(self, argv: list[str]) -> tuple[int | str, str]:
        cmd = [sys.executable, "-m", "qdswitch.cli", *argv]
        try:
            proc = subprocess.run(cmd, env=self.child_env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        return proc.returncode, proc.stderr.decode(errors="replace")

    def check_cli(self, op: Op) -> str | None:
        if op.kind == "switch":
            summary = read_report(op.out / "switch_summary.csv")
            ratio = float(summary["on_off_ratio"])
            if not (math.isfinite(ratio) and ratio >= 1.0):
                return f"on/off ratio {ratio!r}"
            converged = manifest.read_manifest(op.out / "manifest.txt").get(
                "summary.calibration_converged")
            if converged != "1":
                return "calibration not converged"
            return None
        if op.kind.startswith("fit_"):
            report = read_report(op.out / "fit_report.csv")
            values = {k: float(v) for k, v in report.items()
                      if k not in ("converged", "iterations")}
            return check_fit(op, values, report["converged"] == "1",
                             values["residual_norm"])
        return None


def run_cli_main(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in this process, looked up at call time so a traced
    run sees the wrapped function; stdout is discarded, stderr returned."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


def error_class(stderr: str) -> str:
    """error_class from the CLI's one-line JSON error record, if any."""
    for line in reversed(stderr.splitlines()):
        try:
            return json.loads(line)["error_class"]
        except (ValueError, KeyError, TypeError):
            continue
    return ""


def read_report(path: Path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return {row[0]: row[1] for row in rows[1:]}


def check_csv_finite(files) -> str | None:
    """Every field of every CSV that reads as a number must be finite."""
    for path in files:
        if path.suffix != ".csv":
            continue
        with open(path, newline="", encoding="utf-8") as f:
            for row in csv.reader(f):
                for field in row:
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        return f"non-finite value in {path.name}"
    return None


def check_fit(op: Op, params: dict[str, float], converged: bool,
              residual_norm: float) -> str | None:
    """Converged and close to the generated truth, within the stated tolerances."""
    if not all(math.isfinite(v) for v in params.values()):
        return "non-finite fit output"
    if not converged:
        return "not converged"
    if op.truth is None:          # preset contrast targets
        return None if residual_norm <= CONTRAST_RESIDUAL else "targets missed"
    for name, want in op.truth.items():
        got = params[name]
        if op.kind.startswith("fit_stark"):
            ok = abs(got / want - 1.0) <= STARK_RTOL
        elif op.kind.startswith("fit_contrast"):
            ok = abs(got - want) <= CONTRAST_TOL if name == "screening" \
                else abs(got / want - 1.0) <= CONTRAST_TOL
        else:
            ok = abs(got / want - 1.0) <= SPECTRUM_RTOL[name]
        if not ok:
            return f"truth missed: {name}"
    return None


def fit_text(result) -> str:
    """Canonical text of a FitResult: every output value, digested as bytes."""
    lines = [f"{k}={v!r}" for k, v in sorted(result.parameters.items())]
    lines += [f"residual_norm={result.residual_norm!r}",
              f"converged={result.converged}", f"iterations={result.iterations}"]
    for k, v in sorted((result.covariance_diag or {}).items()):
        lines.append(f"variance.{k}={v!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------

class CliPaper(Workload):
    """Seven commands on --preset paper, each in a fresh interpreter."""

    name = "cli_paper"

    def make_ops(self, base: Path, rng) -> list[Op]:
        data, cfg = base / "data", base / "cfg"
        stark_truth = self.write_stark(data / "shift.csv", rng, self.cfg.voltage_grid())
        truth, start = self.spectrum_case(rng)
        n_points = self.cfg["detuning_points"]
        self.write_spectrum(data / "spectrum.csv", rng, truth, n_points, wavelength=False)
        overlay = {"g_ghz": start.coupling, "kappa_ghz": start.cavity_decay,
                   "gamma_ghz": start.dot_decay, "dot_offset_ghz": start.dot_freq,
                   "cavity_offset_ghz": start.cavity_freq}
        lines = [f"{k} = {v / TWO_PI!r}" for k, v in overlay.items()]
        lines += [f"amplitude = {start.amplitude!r}", f"background = {start.background!r}"]
        (cfg / "start.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        spectrum_truth = {name: getattr(truth, name) for name in SPECTRUM_FREE}
        return [
            self.cli_op(base, "stark", "stark", "stark"),
            self.cli_op(base, "spectrum", "spectrum", "spectrum"),
            self.cli_op(base, "switch", "switch", "switch"),
            self.cli_op(base, "metrics", "metrics", "metrics"),
            self.cli_op(base, "fit_contrast", "fit_contrast", "fit", "--kind", "contrast"),
            self.cli_op(base, "fit_stark", "fit_stark", "fit", "--kind", "stark",
                        "--data", str(data / "shift.csv"), truth=stark_truth),
            self.cli_op(base, "fit_spectrum", "fit_spectrum", "fit", "--kind", "spectrum",
                        "--config", str(cfg / "start.cfg"),
                        "--data", str(data / "spectrum.csv"), truth=spectrum_truth),
        ]


class SwitchLong(Workload):
    """switch --preset paper with 30 cycles x 4096 samples per cycle."""

    name = "switch_long"
    overlays = 4

    def make_ops(self, base: Path, rng) -> list[Op]:
        ops = []
        for i in range(self.overlays):
            path = base / "cfg" / f"switch_{i}.cfg"
            path.write_text(
                "cycles = 30\nsamples_per_cycle = 4096\n"
                f"drive_mhz = {rng.uniform(5.0, 20.0)!r}\n"
                f"v_high_v = {rng.uniform(8.0, 14.0)!r}\n", encoding="utf-8")
            ops.append(self.cli_op(base, "switch", f"switch_{i}", "switch", "--config", str(path)))
        return ops


class FitBatch(Workload):
    """In-process ingest + fit of files written at set-up."""

    name = "fit_batch"
    in_process = True
    # One block of the op cycle: S 481-point spectrum, F 4001-point spectrum,
    # T 2001-point Stark file, C two-target contrast calibration.
    block = "SSSCSTSSFC"
    blocks = 20

    def make_ops(self, base: Path, rng) -> list[Op]:
        data = base / "data"
        volts = np.linspace(0.0, 14.0, 2001)
        ops, made = [], dict.fromkeys(self.block, 0)
        for letter in self.block * self.blocks:
            i = made[letter]
            made[letter] += 1
            if letter in "SF":
                points = 481 if letter == "S" else 4001
                truth, start = self.spectrum_case(rng)
                path = data / f"spectrum{points}_{i}.csv"
                self.write_spectrum(path, rng, truth, points, wavelength=True)
                ops.append(Op(f"fit_spectrum_{points}", path.stem, data=path, start=start,
                              truth={n: getattr(truth, n) for n in SPECTRUM_FREE}))
            elif letter == "T":
                path = data / f"shift2001_{i}.csv"
                ops.append(Op("fit_stark_2001", path.stem, data=path,
                              truth=self.write_stark(path, rng, volts)))
            else:
                gamma = TWO_PI * CONTRAST_GAMMA_GHZ * math.exp(rng.uniform(-0.5, 0.5))
                screening = rng.uniform(0.05, 0.5)
                device = replace(self.cqed0, dot_decay=gamma)
                targets = [(v, fitting.dc_contrast(self.elec, self.stark, device, v,
                                                   screening=screening, field_sign=self.sign))
                           for v in CONTRAST_VOLTS]
                ops.append(Op("fit_contrast", f"contrast_{i}", start=targets,
                              truth={"dot_decay": gamma, "screening": screening}))
        return ops

    def run(self, op: Op, in_process: bool = True, timed=contextlib.nullcontext) -> Outcome:
        with timed():
            t0 = time.perf_counter()
            result, error = self.fit(op)
            ms = 1e3 * (time.perf_counter() - t0)
        if error is not None:
            return Outcome(ms, digest_text(f"error={type(error).__name__}: {error}"),
                           type(error).__name__)
        values = dict(result.parameters, residual_norm=result.residual_norm,
                      **{f"variance.{k}": v for k, v in (result.covariance_diag or {}).items()})
        return Outcome(ms, digest_text(fit_text(result)),
                       check_fit(op, values, result.converged, result.residual_norm))

    def fit(self, op: Op):
        """(FitResult, None), or (None, exception) for a failed op."""
        try:
            # Module attributes are looked up per call so a traced run sees
            # the wrapped functions.
            if op.kind.startswith("fit_spectrum"):
                spectrum = csvio.ingest_spectrum_csv(op.data, self.lambda0)
                result = fitting.fit_spectrum(spectrum, op.start, SPECTRUM_FREE)
            elif op.kind.startswith("fit_stark"):
                shifts = csvio.ingest_shift_csv(op.data)
                result = fitting.fit_stark_curve(shifts, self.elec, field_sign=self.sign)
            else:
                result = fitting.fit_contrast(op.start, self.elec, self.stark, self.cqed0,
                                              field_sign=self.sign)
        except Exception as exc:  # a failed op is counted; it never stops the run
            return None, exc
        return result, None


WORKLOADS = {w.name: w for w in (CliPaper, SwitchLong, FitBatch)}
