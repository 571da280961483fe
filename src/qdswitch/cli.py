"""Command-line interface.

Subcommands: spectrum | stark | switch | fit | metrics.  Each run reads
a preset and/or config file, writes plot-ready CSV files plus a
reproducibility manifest into --out, prints a short summary to stdout,
and exits 0.  Failures exit nonzero (1 config, 2 numeric, 3 I/O) with a
one-line JSON error record on stderr.

A layer only some commands run (fitting, switching) is imported inside
those commands, so each command loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .constants import TWO_PI
from .cqed import (
    cooperativity,
    coupling_regime,
    g_of_voltage,
    max_bandwidth,
    pl_spectrum,
    reflectivity_spectrum,
    vacuum_rabi_splitting,
    weak_coupling_bandwidth,
)
from .csvio import ingest_shift_csv, ingest_spectrum_csv, write_csv
from .electrostatics import (
    depletion_width,
    field_at_cavity,
    onset_voltage,
    stark_shift,
    voltage_to_detuning,
)
from .errors import ConfigError, DomainError, IngestError, QdSwitchError
from .manifest import write_manifest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

# A calibration is applied only when it converged and its residual norm
# (in on/off-ratio units) is at most this fraction of the largest target.
CALIBRATION_RESIDUAL_REL = 1e-6


def _preset_path(name: str) -> Path:
    path = Path(__file__).with_name("presets") / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"unknown preset '{name}'")
    return path


def _load(args: argparse.Namespace) -> RunConfig:
    paths = []
    if args.preset:
        paths.append(_preset_path(args.preset))
    if args.config:
        paths.append(Path(args.config))
    cfg = parse_config(*paths)
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    return cfg


def _finish(cfg: RunConfig, args, command: str, outputs: list[Path],
            extra: dict | None = None) -> None:
    inputs = {}
    if args.preset:
        inputs["preset"] = _preset_path(args.preset)
    if args.config:
        inputs["config"] = Path(args.config)
    if getattr(args, "data", None):
        inputs["data"] = Path(args.data)
    write_manifest(
        Path(args.out),
        command=command,
        version=__version__,
        seed=cfg["seed"],
        inputs=inputs,
        outputs=outputs,
        config_values=cfg.values,
        extra=extra,
    )


def _calibrated_cqed(cfg: RunConfig):
    """Apply the DC contrast calibration when targets are configured.

    Returns (cqed, screening, calibration FitResult or None).  The
    calibration holds the coupling at its configured value; fitted
    dot_decay and screening replace the configured ones.  A calibration
    that did not converge or misses its targets raises ConfigError; one
    whose residual is not finite raises DomainError.
    """
    from .fitting import fit_contrast

    cqed = cfg.cqed_params()
    targets = cfg["contrast_targets"]
    if not targets:
        return cqed, cfg.screening(), None
    result = fit_contrast(targets, cfg.electrostatic_params(), cfg.stark_coefficients(),
                          cqed, field_sign=cfg["field_sign"])
    # A non-finite residual comes from the device values, not the targets.
    _require_finite("calibration", [("residual_norm", result.residual_norm)])
    limit = CALIBRATION_RESIDUAL_REL * max(ratio for _, ratio in targets)
    if not (result.converged and result.residual_norm <= limit):
        raise ConfigError(
            f"contrast_targets cannot be reached by the model: calibration "
            f"converged = {result.converged}, residual_norm = {result.residual_norm!r} "
            f"(limit {limit!r}) (config key contrast_targets)")
    cqed = replace(cqed, dot_decay=result.parameters["dot_decay"])
    return cqed, result.parameters["screening"], result


def _require_finite(kind: str, rows) -> None:
    """Raise DomainError naming the first (name, value, ...) row whose float
    value or float array holds a NaN or inf, so none reaches a CSV."""
    for name, value, *_ in rows:
        values = np.asarray(value)
        if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
            bad = values[~np.isfinite(values)].flat[0]
            raise DomainError(f"{kind} {name} is not finite: {float(bad)!r}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_stark(cfg: RunConfig, args) -> int:
    elec = cfg.electrostatic_params()
    coeffs = cfg.stark_coefficients()
    sign = cfg["field_sign"]
    limit = cfg["fit_field_limit_v_per_um"]
    volts = cfg.voltage_grid()
    fields = field_at_cavity(elec, volts)
    columns = {
        "voltage_V": volts,
        "x_d_um": depletion_width(elec, volts),
        "field_V_per_um": fields,
        "shift_meV": stark_shift(coeffs, sign * fields),
        "extrapolated": fields > limit,
    }
    _require_finite("column", columns.items())
    out = write_csv(Path(args.out) / "stark.csv", list(columns), zip(*columns.values()))
    _finish(cfg, args, "stark", [out],
            {"summary.onset_voltage_V": onset_voltage(elec)})
    print(f"onset_voltage_V = {onset_voltage(elec)!r}")
    print(f"rows = {volts.size}")
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig, args) -> int:
    cqed = cfg.cqed_params()
    bias = cfg["bias_v"]
    if bias > 0.0:
        detune = voltage_to_detuning(cfg.electrostatic_params(), cfg.stark_coefficients(),
                                     bias, screening=cfg.screening(),
                                     field_sign=cfg["field_sign"])
        updates = {"dot_freq": cqed.dot_freq + detune}
        anchors = cfg.g_anchors()
        if anchors is not None:
            updates["coupling"] = g_of_voltage(anchors, bias)
        cqed = replace(cqed, **updates)
    grid = cfg.detuning_grid()
    refl = reflectivity_spectrum(cqed, grid)
    pl = pl_spectrum(cqed, grid)
    out = write_csv(Path(args.out) / "spectrum.csv",
                    ["detuning_GHz", "reflectivity", "pl"],
                    np.column_stack([grid / TWO_PI, refl.intensities, pl.intensities]))
    _finish(cfg, args, "spectrum", [out], {"summary.bias_V": bias})
    print(f"points = {len(refl)}")
    return EXIT_OK


def _cmd_switch(cfg: RunConfig, args) -> int:
    from .switching import on_off_ratio, simulate_switching

    cqed, screening, calibration = _calibrated_cqed(cfg)
    drive = cfg.drive_spec()
    trace = simulate_switching(
        drive, cfg.electrostatic_params(), cfg.stark_coefficients(), cqed,
        screening=screening,
        probe_freq=cqed.dot_freq + TWO_PI * cfg["probe_detuning_ghz"],
        field_sign=cfg["field_sign"],
    )
    ratio = on_off_ratio(trace)
    trace_path = write_csv(Path(args.out) / "switch_trace.csv",
                           ["time_ns", "intensity"],
                           np.array([trace.times, trace.values]).T)
    summary_rows = [
        ("drive_MHz", drive.frequency_mhz, "MHz"),
        ("on_off_ratio", ratio, "dimensionless"),
        ("intensity_max", float(np.max(trace.values)), "dimensionless"),
        ("intensity_min", float(np.min(trace.values)), "dimensionless"),
        ("dot_decay_GHz", cqed.dot_decay / TWO_PI, "GHz"),
        ("screening", screening, "dimensionless"),
        ("calibrated", calibration is not None, "flag"),
    ]
    summary_path = write_csv(Path(args.out) / "switch_summary.csv",
                             ["quantity", "value", "unit"], summary_rows)
    extra = {"summary.on_off_ratio": ratio}
    if calibration is not None:
        extra["summary.calibration_residual"] = calibration.residual_norm
        extra["summary.calibration_converged"] = calibration.converged
    _finish(cfg, args, "switch", [trace_path, summary_path], extra)
    print(f"on_off_ratio = {ratio!r} at {drive.frequency_mhz!r} MHz")
    return EXIT_OK


def _cmd_metrics(cfg: RunConfig, args) -> int:
    # Figures of merit describe the configured operating point; the
    # contrast calibration only feeds the switching path.
    from .switching import EnergyBudget, switching_energy

    cqed = cfg.cqed_params()
    elec = cfg.electrostatic_params()
    budget = EnergyBudget(cfg["active_volume_um3"], cfg["energy_field_v_per_um"],
                          cfg["eps_r"])
    rows = [
        ("kappa_over_2pi_GHz", cqed.cavity_decay / TWO_PI, "GHz"),
        ("g_over_2pi_GHz", cqed.coupling / TWO_PI, "GHz"),
        ("gamma_over_2pi_GHz", cqed.dot_decay / TWO_PI, "GHz"),
        ("coupling_regime", coupling_regime(cqed).value, "category"),
        ("cooperativity", cooperativity(cqed), "dimensionless"),
        ("vacuum_rabi_splitting_GHz", vacuum_rabi_splitting(cqed), "GHz"),
        ("max_bandwidth_GHz", max_bandwidth(cqed), "GHz"),
        ("weak_coupling_bandwidth_GHz", weak_coupling_bandwidth(cqed), "GHz"),
        ("onset_voltage_V", onset_voltage(elec), "V"),
        ("switching_energy_fJ", switching_energy(budget), "fJ"),
        ("screening", cfg.screening(), "dimensionless"),
    ]
    _require_finite("metric", rows)
    out = write_csv(Path(args.out) / "metrics.csv", ["metric", "value", "unit"], rows)
    _finish(cfg, args, "metrics", [out])
    for name, value, _ in rows:
        print(f"{name} = {value}")
    return EXIT_OK


def _cmd_fit(cfg: RunConfig, args) -> int:
    from .fitting import fit_contrast, fit_spectrum, fit_stark_curve

    if args.kind in ("stark", "spectrum") and not args.data:
        raise ConfigError(f"fit --kind {args.kind} requires --data")
    if args.kind == "stark":
        data = ingest_shift_csv(args.data)
        result = fit_stark_curve(data, cfg.electrostatic_params(),
                                 field_sign=cfg["field_sign"])
    elif args.kind == "spectrum":
        spectrum = ingest_spectrum_csv(args.data, cfg["lambda0_nm"])
        result = fit_spectrum(spectrum, cfg.cqed_params(), cfg.fit_free())
    else:
        targets = cfg["contrast_targets"]
        if not targets:
            raise ConfigError("fit --kind contrast requires contrast_targets in the config")
        result = fit_contrast(targets, cfg.electrostatic_params(),
                              cfg.stark_coefficients(), cfg.cqed_params(),
                              field_sign=cfg["field_sign"])

    rows = [(name, value, result.units.get(name, "")) for name, value in
            sorted(result.parameters.items())]
    rows.append(("residual_norm", result.residual_norm, "dimensionless"))
    rows.append(("converged", result.converged, "flag"))
    rows.append(("iterations", result.iterations, "count"))
    if result.covariance_diag:
        for name, var in sorted(result.covariance_diag.items()):
            rows.append((f"variance.{name}", var, ""))
    _require_finite("parameter", rows)
    out = write_csv(Path(args.out) / "fit_report.csv",
                    ["parameter", "value", "unit"], rows)
    _finish(cfg, args, f"fit:{args.kind}", [out],
            {"summary.residual_norm": result.residual_norm,
             "summary.converged": result.converged})
    print(f"converged = {result.converged} residual_norm = {result.residual_norm!r}")
    for name, value in sorted(result.parameters.items()):
        print(f"{name} = {value!r}")
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "stark": _cmd_stark,
    "switch": _cmd_switch,
    "fit": _cmd_fit,
    "metrics": _cmd_metrics,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdswitch",
        description="Electrically switched dot-cavity device: spectra, Stark "
                    "sweeps, time-domain switching, fits, and figures of merit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "reflectivity and PL spectra on the configured grid"),
        ("stark", "depletion, field, and shift sweep over bias"),
        ("switch", "calibrated time-domain switching trace and on/off ratio"),
        ("fit", "least-squares parameter recovery from data or targets"),
        ("metrics", "scalar figures of merit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file overlaying the preset/defaults")
        p.add_argument("--preset", help="named built-in preset (e.g. 'paper')")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "fit":
            p.add_argument("--kind", choices=["stark", "spectrum", "contrast"],
                           required=True)
            p.add_argument("--data", help="input CSV for stark/spectrum fits")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = _load(args)
        return _COMMANDS[args.command](cfg, args)
    except QdSwitchError as exc:
        return _fail(exc)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except (ValueError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        return _fail(exc, EXIT_NUMERIC)


def _fail(exc: Exception, code: int | None = None) -> int:
    import json

    if code is None:
        if isinstance(exc, ConfigError):
            code = EXIT_CONFIG
        elif isinstance(exc, IngestError):
            code = EXIT_IO
        else:
            code = EXIT_NUMERIC
    record = {"error_code": code, "error_class": type(exc).__name__,
              "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
