"""Coupled dot-cavity optics.

Two-level emitter coupled to a single cavity mode: polariton
eigenfrequencies of the non-Hermitian 2x2 problem, weak-probe
reflectivity in the standard single-mode input-output form,
photoluminescence as polariton Lorentzians, coupling-regime
classification, and modulation-bandwidth figures of merit.

All frequencies, detunings, and rates are angular (rad/ns, i.e. angular
GHz) and measured from a common optical reference; bandwidth figures
come out in ordinary-frequency GHz.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .constants import SPEED_OF_LIGHT_NM_NS
from .errors import DomainError, check_array, check_domains, domain

# Largest coupling whose square is finite; the next float up overflows g ** 2.
COUPLING_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class CqedParams:
    """Coupled-system parameters, angular GHz.

    cavity_freq / dot_freq are offsets from the optical reference
    frequency.  dot_decay is the effective transverse decay of the dot
    transition (dephasing included), not the radiative rate.  amplitude
    and background collapse all setup optics into two numbers.
    """

    cavity_freq: float = domain("finite")
    dot_freq: float = domain("finite")
    coupling: float = domain("[]", (0.0, COUPLING_MAX))
    cavity_decay: float = domain(">", 0.0)
    dot_decay: float = domain(">", 0.0)
    amplitude: float = domain(">", 0.0, default=1.0)
    background: float = domain(">=", 0.0, default=0.0)

    __post_init__ = check_domains


_CQED_FIELDS = tuple(f.name for f in fields(CqedParams))


@dataclass(frozen=True)
class OpticalFrame:
    """Reference optical frame: operating wavelength and loaded Q."""

    reference_wavelength_nm: float = domain(">", 0.0, label="reference_wavelength", default=935.0)
    quality_factor: float | None = domain(">", 0.0, default=None)

    __post_init__ = check_domains


@dataclass(frozen=True)
class Spectrum:
    """Sampled spectrum: strictly increasing angular-GHz detuning grid
    with non-negative intensities."""

    detunings: np.ndarray = domain("array", (1, "increasing", ("finite",)))
    intensities: np.ndarray = domain("array", ((">=", 0.0),))

    __post_init__ = check_domains

    def __len__(self) -> int:
        return int(self.detunings.size)


# Half width of the onset band around g = (kappa + gamma)/2, relative.
ONSET_MARGIN = 0.1


class CouplingRegime(enum.Enum):
    STRONG = "strong"
    ONSET = "onset"
    WEAK = "weak"


def kappa_from_q(frame: OpticalFrame) -> float:
    """Cavity field decay rate kappa = omega0 / (2 Q), angular GHz."""
    if frame.quality_factor is None:
        raise DomainError("quality_factor required to derive kappa")
    omega0 = 2.0 * math.pi * SPEED_OF_LIGHT_NM_NS / frame.reference_wavelength_nm
    return omega0 / (2.0 * frame.quality_factor)


def polariton_modes(params: CqedParams) -> tuple[complex, complex]:
    """Complex eigenfrequencies of [[w_c - i k, g], [g, w_d - i gam]].

    Returns the two hybrid modes ordered by real part (then imaginary
    part): real parts are the mode positions, -imag the half widths.
    """
    mean = 0.5 * (params.cavity_freq + params.dot_freq) \
        - 0.5j * (params.cavity_decay + params.dot_decay)
    half = 0.5 * (params.cavity_freq - params.dot_freq) \
        - 0.5j * (params.cavity_decay - params.dot_decay)
    root = cmath.sqrt(params.coupling ** 2 + half * half)
    lo, hi = sorted((mean - root, mean + root), key=lambda z: (z.real, z.imag))
    return lo, hi


def reflectivity_terms(params: CqedParams, omega, *, dot_freq=None, coupling=None,
                       dot_decay=None, phases=None):
    """Dot and cavity denominators (E, D) of the reflectivity at omega.

    E = i(w_d - w) + gamma and D = i(w_c - w) + kappa + g^2/E.
    dot_freq, coupling and dot_decay replace the matching params fields
    when given, unvalidated; every argument broadcasts, so one call
    evaluates a whole trace or parameter grid.  phases, when given, is the
    pair (i(w_d - w), i(w_c - w)) already formed for these frequencies and
    omega, as a fit holding both frequencies forms it once.
    """
    coupling = params.coupling if coupling is None else coupling
    dot_decay = params.dot_decay if dot_decay is None else dot_decay
    if phases is None:
        dot_freq = params.dot_freq if dot_freq is None else dot_freq
        phases = 1j * (dot_freq - omega), 1j * (params.cavity_freq - omega)
    e = phases[0] + dot_decay
    d = phases[1] + params.cavity_decay + coupling ** 2 / e
    return e, d


def reflectivity_model(params: CqedParams, omega, *, dot_freq=None, coupling=None,
                       dot_decay=None):
    """Weak-probe reflectivity b + A |kappa / D|^2 at probe frequency omega;
    the keyword overrides are those of reflectivity_terms."""
    _, d = reflectivity_terms(params, omega, dot_freq=dot_freq, coupling=coupling,
                              dot_decay=dot_decay)
    return _intensity(params, d)


def _intensity(params: CqedParams, d):
    """b + A |kappa / D|^2 from the cavity denominator D."""
    return params.background + params.amplitude * np.abs(params.cavity_decay / d) ** 2


def reflectivity_at(params: CqedParams, omega: float) -> float:
    """Probe intensity of the cavity transmission function at one frequency."""
    return float(reflectivity_model(params, omega))


def reflectivity_spectrum(params: CqedParams, detunings) -> Spectrum:
    """Weak-probe reflectivity over a detuning grid.

    I(w) = b + A |kappa / (i(w_c - w) + kappa + g^2/(i(w_d - w) + gamma))|^2.
    With the dot far detuned this reduces to a Lorentzian of HWHM kappa
    centered on the cavity; on joint resonance the dip is (1 + C)^-2 of
    the bare-cavity peak, C = g^2/(kappa gamma).
    """
    grid = np.asarray(detunings, dtype=float)
    with np.errstate(invalid="ignore"):  # Spectrum rejects a non-finite grid
        return Spectrum(grid, reflectivity_model(params, grid))


def pl_spectrum(params: CqedParams, detunings) -> Spectrum:
    """Photoluminescence model: equal-weight unit-peak Lorentzians at the
    polariton positions with the polariton half widths."""
    grid = np.asarray(detunings, dtype=float)
    total = np.zeros_like(grid)
    with np.errstate(over="ignore"):  # a term whose square overflows is exactly 0.0
        for mode in polariton_modes(params):
            center, hwhm = mode.real, -mode.imag
            total += hwhm ** 2 / ((grid - center) ** 2 + hwhm ** 2)
    return Spectrum(grid, params.background + params.amplitude * total)


def coupling_regime(params: CqedParams) -> CouplingRegime:
    """Classify against g = (kappa + gamma)/2 with a +-ONSET_MARGIN onset band."""
    threshold = 0.5 * (params.cavity_decay + params.dot_decay)
    ratio = params.coupling / threshold
    if ratio > 1.0 + ONSET_MARGIN:
        return CouplingRegime.STRONG
    if ratio >= 1.0 - ONSET_MARGIN:
        return CouplingRegime.ONSET
    return CouplingRegime.WEAK


def weak_coupling_bandwidth(params: CqedParams) -> float:
    """Weak-regime modulation bandwidth g^2/(pi kappa), ordinary GHz."""
    return params.coupling ** 2 / (math.pi * params.cavity_decay)


def max_bandwidth(params: CqedParams) -> float:
    """Maximum modulation bandwidth in ordinary GHz.

    min(g/pi, kappa/pi) at or beyond the strong-coupling onset,
    g^2/(pi kappa) in the weak regime.
    """
    if coupling_regime(params) is CouplingRegime.WEAK:
        return weak_coupling_bandwidth(params)
    return min(params.coupling, params.cavity_decay) / math.pi


def cooperativity(params: CqedParams) -> float:
    """C = g^2 / (kappa gamma)."""
    return params.coupling ** 2 / (params.cavity_decay * params.dot_decay)


def vacuum_rabi_splitting(params: CqedParams) -> float:
    """Separation of the polariton real parts, ordinary GHz."""
    lo, hi = polariton_modes(params)
    return (hi.real - lo.real) / (2.0 * math.pi)


def g_of_voltage(anchors: Sequence[tuple[float, float]], v):
    """Piecewise-linear coupling versus bias from anchor points, clamped
    at both ends.  Needs at least two anchors with increasing voltage.
    Returns a float for a scalar bias and an array for an array."""
    volts = check_array("anchor voltages", [a[0] for a in anchors], (2, "increasing"))
    gs = np.asarray([a[1] for a in anchors], dtype=float)
    g = np.interp(v, volts, gs)
    return float(g) if np.ndim(g) == 0 else g
