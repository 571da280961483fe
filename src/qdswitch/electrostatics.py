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
need no heavier layer: DriveSpec, the applied bias waveform, EnergyBudget,
the stored-field energy, and ShiftDataset, measured (bias, shift) samples.
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
from .errors import DomainError, check_array, check_domains, check_value, domain

BIAS_RANGE_V = (0.0, 1e5)  # every reverse bias: rails, sweeps, anchors, targets
PERMITTIVITY_RANGE = (1.0, 1e5)  # relative, of the host
SCREENING_RANGE = (0.0, 1.0)
POINTS_MAX = 10 ** 6  # of any sweep grid or drive trace, for run time and memory

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

    donor_density_cm3: float = domain("[]", (1e6, 1e22), label="donor_density")
    barrier_potential_v: float = domain("[]", (1e-4, 1e3), label="barrier_potential")
    relative_permittivity: float = domain("[]", PERMITTIVITY_RANGE)
    electrode_distance_um: float = domain("[]", (1e-4, 1e3), label="electrode_distance")

    __post_init__ = check_domains


@dataclass(frozen=True)
class StarkCoefficients:
    """Field-to-shift coefficients: shift = dipole*F - polarizability*F^2.

    dipole_mev_um_per_v: permanent-dipole (linear) coefficient, meV um/V
    polarizability_mev_um2_per_v2: quadratic coefficient, meV um^2/V^2
    """

    dipole_mev_um_per_v: float = domain("[]", (-1e3, 1e3))
    polarizability_mev_um2_per_v2: float = domain("[]", (-1e3, 1e3))

    __post_init__ = check_domains


@dataclass(frozen=True)
class DriveSpec:
    """Square-wave drive plus first-order line filtering.

    Voltages in V, frequencies in MHz.  duty is the high fraction of
    each period; transitions are aligned to sample boundaries, so
    duty * samples_per_cycle should be an integer (it is rounded to one).
    """

    v_low: float = domain("[]", BIAS_RANGE_V)
    v_high: float = domain("[]", BIAS_RANGE_V)
    frequency_mhz: float = domain("[]", (1e-3, 1e6), label="drive_frequency")
    duty: float = domain("()", (0.0, 1.0), default=0.5)
    rc_cutoff_mhz: float = domain("[]", (1e-3, 1e6), label="rc_cutoff", default=100.0)
    cycles: int = domain("int[]", (3, POINTS_MAX), default=9)
    samples_per_cycle: int = domain("int[]", (64, POINTS_MAX), default=256)

    def __post_init__(self) -> None:
        check_domains(self)
        if not self.v_high >= self.v_low:
            raise DomainError("v_high must be >= v_low", field="v_high")
        if self.cycles * self.samples_per_cycle > POINTS_MAX:
            raise DomainError(f"cycles must give at most {POINTS_MAX} trace samples, got "
                              f"{self.cycles} x {self.samples_per_cycle}", field="cycles")

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
class EnergyBudget:
    """Stored-field energy inputs: volume in um^3, field in V/um."""

    active_volume_um3: float = domain("[]", (1e-6, 1e6))
    field_v_per_um: float = domain("[]", (0.0, 1e4))
    relative_permittivity: float = domain("[]", PERMITTIVITY_RANGE)

    __post_init__ = check_domains


@dataclass(frozen=True)
class ShiftDataset:
    """Measured (reverse bias, shift) samples."""

    voltages: np.ndarray = domain("array", (2, ("finite",), "distinct"))
    shifts_mev: np.ndarray = domain("array", (("finite",),))

    __post_init__ = check_domains


def _result(values):
    """A Python float for a scalar bias, the array otherwise."""
    return float(values) if values.ndim == 0 else values


def depletion_width(params: ElectrostaticParams, v_reverse):
    """Depletion-layer width in um for a reverse bias v_reverse >= 0 (V).

    x_d = sqrt(2 eps (phi + V) / (e N_d)); strictly increasing and
    concave in the bias.  Takes a scalar or an array of biases.
    """
    v = check_array("v_reverse", v_reverse, ((">=", 0.0),))
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
    return check_value("screening", screening, "[]", SCREENING_RANGE) * shift_mev


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
