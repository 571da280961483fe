"""Lateral Schottky-contact electrostatics.

Maps an applied reverse bias to the depletion width, the electric field
at the cavity center, and the resulting quantum-dot energy shift
(quadratic confined Stark effect), with an optional phenomenological
screening factor for free carriers.

Model: abrupt junction, uniform residual doping, full-depletion
approximation.  The field reaches the dot only once the depletion edge
has passed it (x_d > electrode distance); below that onset the shift is
exactly zero.  Surface states are not modeled.

The bias-side data types live here too, so that config and CSV ingest
need no heavier layer: DriveSpec, the applied bias waveform, and
ShiftDataset, measured (bias, Stark shift) samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ANGULAR_GHZ_PER_MEV,
    ELEMENTARY_CHARGE_C,
    UM3_PER_CM3,
    VACUUM_PERMITTIVITY_F_UM,
)
from .errors import DomainError

# Sign convention for the field seen by the dot: negative toward the
# electrode.  With the fitted coefficients below this reproduces the
# observed positive ~0.3 meV shift magnitude at 7 V.
DEFAULT_FIELD_SIGN = -1.0


@dataclass(frozen=True)
class ElectrostaticParams:
    """Doping and geometry defining the voltage-to-field map.

    donor_density_cm3: residual donor concentration, 1/cm^3
    barrier_potential_v: built-in potential of the contact, V
    relative_permittivity: static dielectric constant of the host
    electrode_distance_um: electrode edge to cavity center, um
    """

    donor_density_cm3: float
    barrier_potential_v: float
    relative_permittivity: float
    electrode_distance_um: float

    def __post_init__(self) -> None:
        if not self.donor_density_cm3 > 0.0:
            raise DomainError("donor_density must be > 0", field="donor_density_cm3")
        if not self.barrier_potential_v > 0.0:
            raise DomainError("barrier_potential must be > 0", field="barrier_potential_v")
        if not self.relative_permittivity >= 1.0:
            raise DomainError("relative_permittivity must be >= 1", field="relative_permittivity")
        if not self.electrode_distance_um > 0.0:
            raise DomainError("electrode_distance must be > 0", field="electrode_distance_um")


@dataclass(frozen=True)
class StarkCoefficients:
    """Field-to-shift coefficients: shift = dipole*F - polarizability*F^2.

    dipole_mev_um_per_v: permanent-dipole (linear) coefficient, meV um/V
    polarizability_mev_um2_per_v2: quadratic coefficient, meV um^2/V^2

    Both may be negative; no sign constraint beyond finiteness.
    """

    dipole_mev_um_per_v: float
    polarizability_mev_um2_per_v2: float

    def __post_init__(self) -> None:
        for name in ("dipole_mev_um_per_v", "polarizability_mev_um2_per_v2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError("Stark coefficients must be finite", field=name)


@dataclass(frozen=True)
class DriveSpec:
    """Square-wave drive plus first-order line filtering.

    Voltages in V, frequencies in MHz.  duty is the high fraction of
    each period; transitions are aligned to sample boundaries, so
    duty * samples_per_cycle should be an integer (it is rounded to one).
    """

    v_low: float
    v_high: float
    frequency_mhz: float
    duty: float = 0.5
    rc_cutoff_mhz: float = 100.0
    cycles: int = 9
    samples_per_cycle: int = 256

    def __post_init__(self) -> None:
        for name, attr in (("v_low", "v_low"), ("v_high", "v_high"),
                           ("drive_frequency", "frequency_mhz"), ("rc_cutoff", "rc_cutoff_mhz")):
            if not math.isfinite(getattr(self, attr)):
                raise DomainError(f"{name} must be finite, got {getattr(self, attr)}", field=attr)
        if not self.v_low >= 0.0:
            raise DomainError("v_low must be >= 0", field="v_low")
        if not self.v_high >= self.v_low:
            raise DomainError("v_high must be >= v_low", field="v_high")
        if not self.frequency_mhz > 0.0:
            raise DomainError("drive_frequency must be > 0", field="frequency_mhz")
        if not 0.0 < self.duty < 1.0:
            raise DomainError("duty must be in (0, 1)", field="duty")
        if not self.rc_cutoff_mhz > 0.0:
            raise DomainError("rc_cutoff must be > 0", field="rc_cutoff_mhz")
        if int(self.cycles) != self.cycles or self.cycles < 3:
            raise DomainError("cycles must be an integer >= 3", field="cycles")
        if int(self.samples_per_cycle) != self.samples_per_cycle or self.samples_per_cycle < 64:
            raise DomainError("samples_per_cycle must be an integer >= 64",
                              field="samples_per_cycle")

    @property
    def period_ns(self) -> float:
        return 1e3 / self.frequency_mhz

    @property
    def tau_ns(self) -> float:
        """RC time constant 1/(2 pi f_c)."""
        return 1e3 / (2.0 * math.pi * self.rc_cutoff_mhz)

    @property
    def high_samples(self) -> int:
        """Samples per cycle at v_high: duty * samples_per_cycle, rounded into [1, spc - 1]."""
        spc = int(self.samples_per_cycle)
        return min(max(round(self.duty * spc), 1), spc - 1)


@dataclass(frozen=True)
class ShiftDataset:
    """Measured (reverse bias, shift) samples with optional weights."""

    voltages: np.ndarray
    shifts_mev: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.voltages, dtype=float)
        s = np.asarray(self.shifts_mev, dtype=float)
        if v.ndim != 1 or v.size < 2 or s.shape != v.shape:
            raise DomainError("shift dataset needs matching 1-D arrays, >= 2 points")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(s))):
            raise DomainError("shift dataset voltages and shifts must be finite")
        if np.unique(v).size != v.size:
            raise DomainError("shift dataset voltages must be distinct")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=float)
            if w.shape != v.shape or not np.all(np.isfinite(w) & (w > 0.0)):
                raise DomainError("weights must be finite, positive and match the data")
        object.__setattr__(self, "voltages", v)
        object.__setattr__(self, "shifts_mev", s)
        object.__setattr__(self, "weights", w)


def _result(values):
    """A Python float for a scalar bias, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def depletion_width(params: ElectrostaticParams, v_reverse):
    """Depletion-layer width in um for a reverse bias v_reverse >= 0 (V).

    x_d = sqrt(2 eps (phi + V) / (e N_d)); strictly increasing and
    concave in the bias.  Takes a scalar or an array of biases.
    """
    v = np.asarray(v_reverse, dtype=float)
    if not (v >= 0.0).all():
        raise DomainError(f"v_reverse must be >= 0, got {v_reverse}")
    eps = VACUUM_PERMITTIVITY_F_UM * params.relative_permittivity
    nd_um3 = params.donor_density_cm3 / UM3_PER_CM3
    drop = params.barrier_potential_v + v
    return _result(np.sqrt(2.0 * eps * drop / (ELEMENTARY_CHARGE_C * nd_um3)))


def onset_voltage(params: ElectrostaticParams) -> float:
    """Reverse bias at which the depletion edge reaches the cavity center.

    Solves x_d(V) = electrode_distance; clamped at 0 if the built-in
    potential alone already depletes past the dot.
    """
    eps = VACUUM_PERMITTIVITY_F_UM * params.relative_permittivity
    nd_um3 = params.donor_density_cm3 / UM3_PER_CM3
    v = (ELEMENTARY_CHARGE_C * nd_um3 * params.electrode_distance_um ** 2
         / (2.0 * eps)) - params.barrier_potential_v
    return max(0.0, v)


def field_at_cavity(params: ElectrostaticParams, v_reverse):
    """Field magnitude at the cavity center, V/um.

    Zero while the depletion edge is short of the dot, then
    e N_d (x_d - dx) / eps; continuous at the onset and piecewise
    linear in x_d.  Takes a scalar or an array of biases.
    """
    depth = np.maximum(depletion_width(params, v_reverse) - params.electrode_distance_um, 0.0)
    eps = VACUUM_PERMITTIVITY_F_UM * params.relative_permittivity
    nd_um3 = params.donor_density_cm3 / UM3_PER_CM3
    return _result(ELEMENTARY_CHARGE_C * nd_um3 * depth / eps)


def stark_shift(coeffs: StarkCoefficients, field):
    """Energy shift in meV at a signed field (V/um): dipole*F - polarizability*F^2."""
    return (coeffs.dipole_mev_um_per_v * field
            - coeffs.polarizability_mev_um2_per_v2 * field * field)


def apply_screening(shift_mev, screening: float):
    """Scale a shift by the free-carrier screening factor in [0, 1]."""
    if not 0.0 <= screening <= 1.0:
        raise DomainError(f"screening must be in [0, 1], got {screening}")
    return screening * shift_mev


def voltage_to_detuning(
    params: ElectrostaticParams,
    coeffs: StarkCoefficients,
    v_reverse,
    *,
    screening: float = 1.0,
    field_sign: float = DEFAULT_FIELD_SIGN,
):
    """Screened Stark detuning of the dot in angular GHz at a reverse bias.

    Composition of the voltage-to-field map, the quadratic shift
    evaluated at the signed field, the screening factor, and the
    meV-to-angular-GHz conversion.  Zero below the onset voltage.  Takes
    a scalar or an array of biases.
    """
    field = field_sign * field_at_cavity(params, v_reverse)
    shift = apply_screening(stark_shift(coeffs, field), screening)
    return ANGULAR_GHZ_PER_MEV * shift
