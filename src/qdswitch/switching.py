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
    StarkCoefficients,
    voltage_to_detuning,
)
from .errors import BLOCK_SAMPLES, AdiabaticityWarning, DegenerateTraceError, check_domains, domain

# Adiabaticity guard: warn when drive frequency exceeds kappa/(2 pi)/10.
ADIABATIC_MARGIN = 10.0


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled, finite, non-negative trace: times in ns."""

    times: np.ndarray = domain("array", (2, "increasing", ("finite",), "uniform"))
    values: np.ndarray = domain("array", ((">=", 0.0),))

    __post_init__ = check_domains


@dataclass(frozen=True)
class EnergyBudget:
    """Stored-field energy inputs: volume in um^3, field in V/um."""

    active_volume_um3: float = domain(">", 0.0)
    field_v_per_um: float = domain(">=", 0.0)
    relative_permittivity: float = domain(">", 0.0)

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


def _rc_line(drive: DriveSpec, skip_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and line voltages of every sample after the first skip_cycles
    cycles, by the segment recurrence of rc_response.

    Both arrays are allocated before any cycle is walked.  A skipped
    segment is carried as its end value alone, level + (y - level) *
    decay[length - 1]: the same float operations as the last element of a
    kept segment, so the kept samples have the bits of a full run sliced.
    """
    spc = int(drive.samples_per_cycle)
    times = _sample_times(drive, skip_cycles * spc)
    out = np.empty(times.size + 1)  # the last segment also writes one sample past the end
    decay = np.exp(-(np.arange(1, spc + 1) * (drive.period_ns / spc)) / drive.tau_ns)
    segments = [(drive.v_high, drive.high_samples), (drive.v_low, spc - drive.high_samples)]
    y = drive.v_low
    for level, length in segments * skip_cycles:
        y = level + (y - level) * decay[length - 1]
    out[0] = y
    start = 0
    for level, length in segments * (int(drive.cycles) - skip_cycles):
        out[start + 1:start + length + 1] = level + (out[start] - level) * decay[:length]
        start += length
    return times, out[:-1]


def rc_response(drive: DriveSpec) -> TimeTrace:
    """Line-filtered voltage: the exact zero-order-hold solution of
    tau dVf/dt = V(t) - Vf from Vf(0) = v_low.

    The drive holds a level U over whole segments of samples (two per
    cycle), so m samples into a segment that starts at Vf = y0 the
    output is U + (y0 - U) exp(-m dt / tau), with no integration error.
    This is the no-skip case of the recurrence simulate_switching runs.

    The fundamental harmonic of the steady-state output is attenuated by
    |H(f)| = (1 + (f/f_c)^2)^(-1/2) relative to the ideal square wave.
    """
    return TimeTrace(*_rc_line(drive, 0))


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
    """Probe-intensity trace for a modulated bias, steady-state cycles only.

    The dot frequency follows w_d0 + detuning(Vf(t)); the coupling stays
    at cqed.coupling unless g_anchors supplies a bias dependence.  The
    probe sits at the zero-bias dot frequency unless probe_freq is
    given.  The first ceil(cycles/3) cycles are discarded as the RC
    transient: the line carries each of their segments as one end value.

    Only the retained samples are stored.  The field map, the coupling
    interpolation and the reflectivity kernel are elementwise, so they
    run BLOCK_SAMPLES at a time, each block's intensities overwriting its
    line voltages; the result has the bits of the full model sliced, and
    memory scales with the returned trace.
    """
    drive_ghz = drive.frequency_mhz * 1e-3
    if drive_ghz > cqed.cavity_decay / (2.0 * math.pi) / ADIABATIC_MARGIN:
        warnings.warn(
            "drive frequency within a tenth of the cavity linewidth; "
            "quasi-static intensities are unreliable",
            AdiabaticityWarning,
            stacklevel=2,
        )

    times, values = _rc_line(drive, math.ceil(drive.cycles / 3))
    omega_probe = cqed.dot_freq if probe_freq is None else probe_freq
    for start in range(0, values.size, BLOCK_SAMPLES):
        volts = values[start:start + BLOCK_SAMPLES]
        detune = voltage_to_detuning(elec, stark, volts, screening=screening,
                                     field_sign=field_sign)
        g = None if g_anchors is None else g_of_voltage(g_anchors, volts)
        volts[:] = reflectivity_model(cqed, omega_probe, dot_freq=cqed.dot_freq + detune,
                                      coupling=g)
    return TimeTrace(times, values)


def on_off_ratio(trace: TimeTrace) -> float:
    """max/min intensity over the retained window; needs a positive floor."""
    lo = float(np.min(trace.values))
    if not lo > 0.0:
        raise DegenerateTraceError("trace minimum must be > 0 for an on/off ratio")
    return float(np.max(trace.values)) / lo


def switching_energy(budget: EnergyBudget) -> float:
    """Field energy (1/2) eps0 eps_r F^2 V_a stored in the active volume, fJ."""
    joules = (0.5 * VACUUM_PERMITTIVITY_F_UM * budget.relative_permittivity
              * budget.field_v_per_um ** 2 * budget.active_volume_um3)
    return joules / JOULE_PER_FJ
