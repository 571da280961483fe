"""Command-line interface.

Subcommands: spectrum | stark | switch | fit | metrics.  Each run reads
a preset and/or config file and writes plot-ready CSV files into --out.
A command only computes and returns its tables; main writes them, with
the reproducibility manifest that lists them, through one sink, then
prints a short summary to stdout and exits 0.  A failure exits with
the code of the first _EXIT_CODES class it matches (1 config, 3 ingest
or other I/O, 2 any other package or numeric error), a one-line JSON
error record on stderr and nothing on stdout, and leaves --out as it
was; any other exception propagates.

run() is the process entry of both `qdswitch` and `python -m
qdswitch.cli`; main(argv) is the in-process API and changes no GC state.

A layer only some commands run (fitting, switching) is imported inside
those commands, so each command loads only the modules it uses.
"""

from __future__ import annotations

import gc

# The imports build numpy's and the layers' heap with no cyclic-GC pass
# walking it as it grows.  freeze() then unfreeze() moves every object into
# the oldest generation, so the first pass after the collector is back does
# not walk them all as young ones; it is skipped when something was frozen
# before, which unfreeze() would thaw.  The block runs on every entry path
# and leaves the collector's on/off state as it found it.
_gc_was_enabled, _gc_nothing_frozen = gc.isenabled(), gc.get_freeze_count() == 0
gc.disable()
try:
    import argparse
    import os
    import sys
    import tempfile
    from contextlib import suppress
    from dataclasses import replace
    from pathlib import Path
    from typing import NamedTuple

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
    from .errors import ConfigError, IngestError, QdSwitchError, check_array, check_value
    from .manifest import MANIFEST_NAME, write_manifest
finally:
    if _gc_nothing_frozen:
        gc.freeze()
        gc.unfreeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled, _gc_nothing_frozen

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
# (exception class, exit code), in order: the first class a failure matches wins.
_EXIT_CODES = ((ConfigError, EXIT_CONFIG), (IngestError, EXIT_IO),
               (QdSwitchError, EXIT_NUMERIC), (OSError, EXIT_IO),
               (ValueError, EXIT_NUMERIC), (ArithmeticError, EXIT_NUMERIC),
               (MemoryError, EXIT_NUMERIC))

# A calibration is applied only when it converged and its residual norm
# (in on/off-ratio units) is at most this fraction of the largest target.
CALIBRATION_RESIDUAL_REL = 1e-6


def _preset_path(name: str) -> Path:
    """The built-in preset file name.cfg; a name that is a path, absolute or
    through another directory, names no preset."""
    presets = Path(__file__).with_name("presets")
    path = presets / f"{name}.cfg"
    if path.parent != presets or not path.is_file():
        raise ConfigError(f"unknown preset '{name}'")
    return path


def _load(args: argparse.Namespace) -> tuple[RunConfig, dict[str, Path]]:
    """The parsed config, and the run's input files keyed by their manifest name."""
    inputs = {}
    if args.preset is not None:
        inputs["preset"] = _preset_path(args.preset)
    if args.config is not None:
        inputs["config"] = args.config  # as given: Path('') would name the working directory
    cfg = parse_config(*inputs.values())
    if getattr(args, "data", None) is not None:
        inputs["data"] = args.data
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    return cfg, {name: Path(path) for name, path in inputs.items()}


def _calibrated_cqed(cfg: RunConfig):
    """Apply the DC contrast calibration when targets are configured.

    Returns (cqed, screening, calibration FitResult or None).  The
    calibration reads g(V) from any g_anchor_* table, as every command that
    places the device at a bias does; fitted dot_decay and screening replace
    the configured ones.  A calibration that did not converge or misses its
    targets raises ConfigError; one whose residual is not finite raises DomainError.
    """
    from .fitting import fit_contrast

    cqed = cfg.cqed_params()
    targets = cfg["contrast_targets"]
    if not targets:
        return cqed, cfg.screening(), None
    result = fit_contrast(targets, cfg.electrostatic_params(), cfg.stark_coefficients(),
                          cqed, field_sign=cfg["field_sign"], g_anchors=cfg.g_anchors())
    # A non-finite residual comes from the device values, not the targets.
    check_value("calibration residual_norm", result.residual_norm, "finite")
    limit = CALIBRATION_RESIDUAL_REL * max(ratio for _, ratio in targets)
    if not (result.converged and result.residual_norm <= limit):
        raise ConfigError(
            f"contrast_targets cannot be reached by the model: calibration "
            f"converged = {result.converged}, residual_norm = {result.residual_norm!r} "
            f"(limit {limit!r}) (config key contrast_targets)")
    cqed = replace(cqed, dot_decay=result.parameters["dot_decay"])
    return cqed, result.parameters["screening"], result


class _Table(NamedTuple):
    """A CSV a command returns: file name, header, and either key/value rows
    or one 1-D array per header name, with periods as write_csv takes them
    (they apply only when every column is float)."""

    name: str
    header: list[str]
    rows: list | None = None
    columns: list[np.ndarray] | None = None
    periods: tuple = ()


# ---------------------------------------------------------------------------
# subcommands: each returns its tables with the manifest's extra lines and
# the stdout summary lines, which main writes, records and prints.
_Written = tuple[list[_Table], dict[str, object], list[str]]


def _cmd_stark(cfg: RunConfig, args) -> _Written:
    elec = cfg.electrostatic_params()
    coeffs = cfg.stark_coefficients()
    sign = cfg["field_sign"]
    limit = cfg["fit_field_limit_v_per_um"]
    volts = cfg.voltage_grid()
    fields = field_at_cavity(elec, volts)
    columns = [volts, depletion_width(elec, volts), fields,
               stark_shift(coeffs, sign * fields), fields > limit]
    table = _Table("stark.csv", ["voltage_V", "x_d_um", "field_V_per_um", "shift_meV",
                                 "extrapolated"], columns=columns)
    onset = onset_voltage(elec)
    return [table], {"summary.onset_voltage_V": onset}, [
        f"onset_voltage_V = {onset!r}", f"rows = {volts.size}"]


def _cmd_spectrum(cfg: RunConfig, args) -> _Written:
    cqed = cfg.cqed_params()
    bias = cfg["bias_v"]
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
    table = _Table("spectrum.csv", ["detuning_GHz", "reflectivity", "pl"],
                  columns=[grid / TWO_PI, refl.intensities, pl.intensities])
    return [table], {"summary.bias_V": bias}, [f"points = {len(refl)}"]


def _cmd_switch(cfg: RunConfig, args) -> _Written:
    from .switching import on_off_ratio, simulate_switching

    cqed, screening, calibration = _calibrated_cqed(cfg)
    drive = cfg.drive_spec()
    trace = simulate_switching(
        drive, cfg.electrostatic_params(), cfg.stark_coefficients(), cqed,
        screening=screening,
        probe_freq=cqed.dot_freq + TWO_PI * cfg["probe_detuning_ghz"],
        g_anchors=cfg.g_anchors(), field_sign=cfg["field_sign"],
    )
    ratio = on_off_ratio(trace)
    # The intensities tile one steady-state cycle; the times do not repeat.
    trace_table = _Table("switch_trace.csv", ["time_ns", "intensity"],
                         columns=[trace.times, trace.values],
                         periods=(None, int(drive.samples_per_cycle)))
    summary_rows = [
        ("drive_MHz", drive.frequency_mhz, "MHz"),
        ("on_off_ratio", ratio, "dimensionless"),
        ("intensity_max", float(np.max(trace.values)), "dimensionless"),
        ("intensity_min", float(np.min(trace.values)), "dimensionless"),
        ("dot_decay_GHz", cqed.dot_decay / TWO_PI, "GHz"),
        ("screening", screening, "dimensionless"),
        ("calibrated", calibration is not None, "flag"),
    ]
    summary = _Table("switch_summary.csv", ["quantity", "value", "unit"], summary_rows)
    extra = {"summary.on_off_ratio": ratio}
    if calibration is not None:
        extra["summary.calibration_residual"] = calibration.residual_norm
        extra["summary.calibration_converged"] = calibration.converged
    return [trace_table, summary], extra, [
        f"on_off_ratio = {ratio!r} at {drive.frequency_mhz!r} MHz"]


def _cmd_metrics(cfg: RunConfig, args) -> _Written:
    # Figures of merit describe the configured operating point; the
    # contrast calibration only feeds the switching path.
    from .switching import switching_energy

    cqed = cfg.cqed_params()
    elec = cfg.electrostatic_params()
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
        ("switching_energy_fJ", switching_energy(cfg.energy_budget()), "fJ"),
        ("screening", cfg.screening(), "dimensionless"),
    ]
    return [_Table("metrics.csv", ["metric", "value", "unit"], rows)], {}, [
        f"{name} = {value}" for name, value, _ in rows]


def _cmd_fit(cfg: RunConfig, args) -> _Written:
    from .fitting import fit_contrast, fit_spectrum, fit_stark_curve

    if args.kind in ("stark", "spectrum") and args.data is None:
        raise ConfigError(f"fit --kind {args.kind} requires --data")
    if args.kind == "contrast" and args.data is not None:
        raise ConfigError("fit --kind contrast takes no --data; it fits contrast_targets")
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
                              field_sign=cfg["field_sign"], g_anchors=cfg.g_anchors())

    rows = [(name, value, result.units.get(name, "")) for name, value in
            sorted(result.parameters.items())]
    rows.append(("residual_norm", result.residual_norm, "dimensionless"))
    rows.append(("converged", result.converged, "flag"))
    rows.append(("iterations", result.iterations, "count"))
    if result.covariance_diag:
        for name, var in sorted(result.covariance_diag.items()):
            rows.append((f"variance.{name}", var, ""))
    table = _Table("fit_report.csv", ["parameter", "value", "unit"], rows)
    extra = {"summary.residual_norm": result.residual_norm,
             "summary.converged": result.converged}
    summary = [f"converged = {result.converged} residual_norm = {result.residual_norm!r}"]
    summary += [f"{name} = {value!r}" for name, value in sorted(result.parameters.items())]
    return [table], extra, summary


# name -> (handler, help), in the order --help lists them
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "reflectivity and PL spectra on the configured grid"),
    "stark": (_cmd_stark, "depletion, field, and shift sweep over bias"),
    "switch": (_cmd_switch, "calibrated time-domain switching trace and on/off ratio"),
    "fit": (_cmd_fit, "least-squares parameter recovery from data or targets"),
    "metrics": (_cmd_metrics, "scalar figures of merit"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdswitch",
        description="Electrically switched dot-cavity device: spectra, Stark "
                    "sweeps, time-domain switching, fits, and figures of merit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
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
        cfg, inputs = _load(args)
        tables, extra, summary = _COMMANDS[args.command][0](cfg, args)
        command = f"fit:{args.kind}" if args.command == "fit" else args.command
        _emit(args.out, tables, command=command, version=__version__,
              seed=cfg["seed"], inputs=inputs, config_values=cfg.values, extra=extra)
        print("\n".join(summary))
        return EXIT_OK
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        return _fail(exc)


def _emit(out: str, tables: list[_Table], **record) -> None:
    """The one output sink.  It checks every float cell of tables, writes
    them and the manifest (record, as write_manifest takes it) into a
    staging directory under out (as given: '' is no directory), then moves each CSV into place and
    the manifest last.  The old manifest is removed before the first move,
    so a failed move leaves none; any earlier failure leaves out_dir as it
    was, and absent if the run created it.  The staging directory is
    removed either way."""
    for table in tables:
        if table.columns is None:
            for row in table.rows:
                for cell in row:
                    if isinstance(cell, float):
                        check_value(f"{table.header[0]} {row[0]}", cell, "finite")
        else:
            for name, column in zip(table.header, table.columns):
                check_array(f"column {name}", column, (("finite",),))
    out_dir = Path(out)
    created = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    os.makedirs(out, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir,
                                         ignore_cleanup_errors=True) as staging:
            stage, written = Path(staging), []
            for name, header, rows, columns, periods in tables:
                written.append(write_csv(stage / name, header, rows, columns=columns,
                                         periods=periods))
            manifest = write_manifest(stage, outputs=written, **record)
            (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
            for path in written:
                os.replace(path, out_dir / path.name)
            os.replace(manifest, out_dir / MANIFEST_NAME)
        created = []  # published: the directories stay
    finally:
        for path in created:  # innermost first; a directory something was moved into stays
            with suppress(OSError):
                path.rmdir()


def _fail(exc: Exception) -> int:
    import json

    code = next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    record = {"error_code": code, "error_class": type(exc).__name__,
              "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return code


def run() -> None:
    """Run main on sys.argv and exit the process with its code.  The
    objects alive now (numpy's and qdswitch's import-time heap) move to
    the permanent generation first, so no cyclic-GC pass, the last ones at
    shutdown included, walks them; what main creates is still collected."""
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
