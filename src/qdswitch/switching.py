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
from .errors import AdiabaticityWarning, DegenerateTraceError, DomainError

# Adiabaticity guard: warn when drive frequency exceeds kappa/(2 pi)/10.
ADIABATIC_MARGIN = 10.0


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled, finite, non-negative trace: times in ns."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
            raise DomainError("trace needs matching 1-D arrays with >= 2 samples")
        steps = np.diff(t)
        if not np.all(steps > 0.0):
            raise DomainError("times must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise DomainError("times must be uniformly sampled")
        if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
            raise DomainError("trace values must be finite and non-negative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EnergyBudget:
    """Stored-field energy inputs: volume in um^3, field in V/um."""

    active_volume_um3: float
    field_v_per_um: float
    relative_permittivity: float

    def __post_init__(self) -> None:
        if not (self.active_volume_um3 > 0.0 and self.field_v_per_um >= 0.0
                and self.relative_permittivity > 0.0):
            raise DomainError("energy budget needs volume > 0, permittivity > 0, field >= 0")


def drive_samples(drive: DriveSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sampled ideal square wave over all cycles, high first.

    Transitions land exactly on sample boundaries, so the drive is
    constant over every sample interval.
    """
    spc = int(drive.samples_per_cycle)
    n = int(drive.cycles) * spc
    pos = np.arange(n) % spc
    values = np.where(pos < drive.high_samples, drive.v_high, drive.v_low)
    times = np.arange(n) * (drive.period_ns / spc)
    return times, values.astype(float)


def rc_response(drive: DriveSpec) -> TimeTrace:
    """Line-filtered voltage: the exact zero-order-hold solution of
    tau dVf/dt = V(t) - Vf from Vf(0) = v_low.

    The drive holds a level U over whole segments of samples (two per
    cycle), so m samples into a segment that starts at Vf = y0 the
    output is U + (y0 - U) exp(-m dt / tau), with no integration error.

    The fundamental harmonic of the steady-state output is attenuated by
    |H(f)| = (1 + (f/f_c)^2)^(-1/2) relative to the ideal square wave.
    """
    times = drive_samples(drive)[0]
    spc = int(drive.samples_per_cycle)
    high = drive.high_samples
    decay = np.exp(-(np.arange(1, spc + 1) * (drive.period_ns / spc)) / drive.tau_ns)
    out = np.empty(times.size + 1)
    out[0] = drive.v_low
    start = 0
    for level, length in [(drive.v_high, high), (drive.v_low, spc - high)] * int(drive.cycles):
        out[start + 1:start + length + 1] = level + (out[start] - level) * decay[:length]
        start += length
    return TimeTrace(times, out[:-1])


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
    transient.
    """
    drive_ghz = drive.frequency_mhz * 1e-3
    if drive_ghz > cqed.cavity_decay / (2.0 * math.pi) / ADIABATIC_MARGIN:
        warnings.warn(
            "drive frequency within a tenth of the cavity linewidth; "
            "quasi-static intensities are unreliable",
            AdiabaticityWarning,
            stacklevel=2,
        )

    line = rc_response(drive)
    omega_probe = cqed.dot_freq if probe_freq is None else probe_freq

    detune = voltage_to_detuning(elec, stark, line.values, screening=screening,
                                 field_sign=field_sign)
    g = None if g_anchors is None else g_of_voltage(g_anchors, line.values)
    intensity = reflectivity_model(cqed, omega_probe, dot_freq=cqed.dot_freq + detune,
                                   coupling=g)

    skip = math.ceil(drive.cycles / 3) * int(drive.samples_per_cycle)
    return TimeTrace(line.times[skip:], intensity[skip:])


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
