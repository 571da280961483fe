"""Time-domain electro-optic switching.

A square-wave bias is low-pass filtered by a first-order RC line, the
filtered voltage modulates the dot detuning (and optionally the
coupling) quasi-statically, and the probe intensity follows the
instantaneous spectrum.  The quasi-static step is justified by the
timescale separation: drives of at most a few hundred MHz against
optical rates of tens of GHz.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import JOULE_PER_FJ, VACUUM_PERMITTIVITY_F_UM
from .cqed import CqedParams, g_of_voltage, reflectivity_model
from .electrostatics import (
    DEFAULT_FIELD_SIGN,
    DriveSpec,
    ElectrostaticParams,
    EnergyBudget,
    StarkCoefficients,
    voltage_to_detuning,
)
from .errors import AdiabaticityWarning, DegenerateTraceError, check_domains, domain

# Adiabaticity guard: warn when drive frequency exceeds kappa/(2 pi)/10.
ADIABATIC_MARGIN = 10.0


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled, finite, non-negative trace: times in ns."""

    times: np.ndarray = domain("array", (2, "increasing", ("finite",), "uniform"))
    values: np.ndarray = domain("array", ((">=", 0.0),))

    __post_init__ = check_domains


def drive_samples(drive: DriveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sampled ideal square wave over all cycles, high first.

    Transitions land exactly on sample boundaries, so the drive is
    constant over every sample interval.
    """
    spc = int(drive.samples_per_cycle)
    pos = np.arange(int(drive.cycles) * spc) % spc
    values = np.where(pos < drive.high_samples, drive.v_high, drive.v_low)
    return _sample_times(drive), values.astype(float)


def _sample_times(drive: DriveSpec, first: int = 0) -> np.ndarray:
    """Start time in ns of every sample from index first to the end."""
    spc = int(drive.samples_per_cycle)
    times = np.arange(first, int(drive.cycles) * spc, dtype=float)
    times *= drive.period_ns / spc
    return times


def _rc_line(drive: DriveSpec, start: float, cycles: int) -> np.ndarray:
    """Line voltage at every sample of cycles whole cycles from start: the
    exact zero-order-hold solution of tau dVf/dt = V(t) - Vf.

    The drive holds a level U over whole segments of samples (two per
    cycle), so m samples into a segment that starts at Vf = y0 the line
    sits at U + (y0 - U) exp(-m dt / tau), with no integration error.
    """
    spc = int(drive.samples_per_cycle)
    out = np.empty(cycles * spc + 1)  # the last segment also writes one sample past the end
    decay = np.exp(-(np.arange(1, spc + 1) * (drive.period_ns / spc)) / drive.tau_ns)
    out[0], i = start, 0
    for level, length in [(drive.v_high, drive.high_samples),
                          (drive.v_low, spc - drive.high_samples)] * cycles:
        out[i + 1:i + length + 1] = level + (out[i] - level) * decay[:length]
        i += length
    return out[:-1]


def rc_response(drive: DriveSpec) -> TimeTrace:
    """Line-filtered voltage over all cycles, transient included, from Vf(0) = v_low.

    The fundamental harmonic of the steady-state output is attenuated by
    |H(f)| = (1 + (f/f_c)^2)^(-1/2) relative to the ideal square wave.
    """
    return TimeTrace(_sample_times(drive), _rc_line(drive, drive.v_low, int(drive.cycles)))


def simulate_switching(
    drive: DriveSpec,
    elec: ElectrostaticParams,
    stark: StarkCoefficients,
    cqed: CqedParams,
    *,
    screening: float = 1.0,
    probe_freq: float | None = None,
    g_anchors: Sequence[tuple[float, float]] | None = None,
    field_sign: float = DEFAULT_FIELD_SIGN,
) -> TimeTrace:
    """Probe-intensity trace for a modulated bias in its periodic steady state.

    The dot frequency follows w_d0 + detuning(Vf(t)); the coupling stays
    at cqed.coupling unless g_anchors supplies a bias dependence.  The
    probe sits at the zero-bias dot frequency unless probe_freq is
    given.  One cycle of the line from its closed-form fixed point goes
    through the model, and its intensities repeat over the output, which
    spans the sample times of the last cycles - ceil(cycles/3) cycles:
    cycles sets only the trace length.
    """
    drive_ghz = drive.frequency_mhz * 1e-3
    if drive_ghz > cqed.cavity_decay / (2.0 * math.pi) / ADIABATIC_MARGIN:
        warnings.warn(
            "drive frequency within a tenth of the cavity linewidth; "
            "quasi-static intensities are unreliable",
            AdiabaticityWarning,
            stacklevel=2,
        )

    # The line's cycle map y -> L + (H + (y - H) a_h - L) a_l has the fixed point
    # (L (1 - a_l) + H (1 - a_h) a_l) / (1 - a_h a_l), each 1 - a by expm1 so a slow line
    # does not cancel, clamped to the rails, which underflow can round it past.
    spc, high = int(drive.samples_per_cycle), drive.high_samples
    skip = math.ceil(drive.cycles / 3)
    times = _sample_times(drive, skip * spc)
    steps = np.array([high, spc - high, spc]) * (drive.period_ns / spc) / drive.tau_ns
    rise_h, rise_l, rise = -np.expm1(-steps)
    start = (drive.v_low * rise_l + drive.v_high * rise_h * math.exp(-steps[1])) / rise
    volts = _rc_line(drive, min(max(start, drive.v_low), drive.v_high), 1)
    detune = voltage_to_detuning(elec, stark, volts, screening=screening, field_sign=field_sign)
    g = None if g_anchors is None else g_of_voltage(g_anchors, volts)
    omega_probe = cqed.dot_freq if probe_freq is None else probe_freq
    cycle = reflectivity_model(cqed, omega_probe, dot_freq=cqed.dot_freq + detune, coupling=g)
    return TimeTrace(times, np.tile(cycle, int(drive.cycles) - skip))


def on_off_ratio(trace: TimeTrace) -> float:
    """max/min intensity of the trace; needs a positive floor and a finite ratio."""
    lo = float(np.min(trace.values))
    if not lo > 0.0:
        raise DegenerateTraceError("trace minimum must be > 0 for an on/off ratio")
    ratio = float(np.max(trace.values)) / lo
    if not math.isfinite(ratio):
        raise DegenerateTraceError(f"on/off ratio must be finite, got {ratio}")
    return ratio


def switching_energy(budget: EnergyBudget) -> float:
    """Field energy (1/2) eps0 eps_r F^2 V_a stored in the active volume, fJ."""
    joules = (0.5 * VACUUM_PERMITTIVITY_F_UM * budget.relative_permittivity
              * budget.field_v_per_um ** 2 * budget.active_volume_um3)
    return joules / JOULE_PER_FJ
