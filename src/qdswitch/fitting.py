"""Least-squares recovery of model parameters.

Three fits mirror how the device is characterized: the shift-versus-bias
curve (linear in the two Stark coefficients once the field map is
applied), spectral fits of the reflectivity model, and a two-parameter
contrast calibration that turns DC on/off ratios into an effective dot
linewidth and screening factor.

The nonlinear fits run a damped Gauss-Newton (Levenberg-Marquardt)
loop with multiplicative damping adaptation.  Positive rates are
log-parameterized internally so no iterate can leave the physical
domain.  Everything is deterministic for a given dataset and start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cqed import (_CQED_FIELDS, CqedParams, Spectrum, _intensity, g_of_voltage,
                   reflectivity_at, reflectivity_model, reflectivity_terms)
from .electrostatics import (
    DEFAULT_FIELD_SIGN,
    ElectrostaticParams,
    ShiftDataset,
    StarkCoefficients,
    field_at_cavity,
    stark_shift,
    voltage_to_detuning,
)
from .errors import DegenerateFitError, DomainError, check_array, check_value

MAX_ITERATIONS = 500
REL_RESIDUAL_TOL = 1e-9
GRADIENT_TOL = 1e-8

# CqedParams fields that must stay positive; fitted on a log scale.
_LOG_SCALE_PARAMS = frozenset({"coupling", "cavity_decay", "dot_decay", "amplitude"})
_CQED_UNITS = {
    "cavity_freq": "angular GHz",
    "dot_freq": "angular GHz",
    "coupling": "angular GHz",
    "cavity_decay": "angular GHz",
    "dot_decay": "angular GHz",
    "amplitude": "dimensionless",
    "background": "dimensionless",
}


@dataclass(frozen=True)
class FitResult:
    """Outcome of one least-squares solve.

    parameters holds every model parameter (fitted and held) in natural
    units; covariance_diag gives per-parameter variance estimates for
    the free ones when the normal matrix is invertible and every
    variance is finite and positive, and is None otherwise.
    """

    parameters: dict[str, float]
    units: dict[str, str]
    residual_norm: float
    converged: bool
    iterations: int
    covariance_diag: dict[str, float] | None = None


def _levenberg_marquardt(
    problem: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    x0: np.ndarray,
) -> tuple[np.ndarray, float, bool, int, np.ndarray]:
    """Damped Gauss-Newton minimization of |r(x)|^2.

    problem(x) returns (r, jacobian), where jacobian() builds dr/dx from
    the same model evaluation that formed r; it is called only at the
    start and at accepted points.  Returns (x, residual_norm, converged,
    iterations, JtJ at x).  Damping is adapted multiplicatively: shrink
    on accepted steps, grow on rejected ones.  A solve ends converged
    when the gradient is flat at the top of a pass or an accepted step
    drops the cost by at most REL_RESIDUAL_TOL of it, and unconverged
    when 40 damping tries find no lower cost or MAX_ITERATIONS passes
    are spent; iterations counts the passes that tried a step.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jacobian = problem(x)
    cost = float(r @ r)
    lam = 1e-3
    j = jacobian()

    for iterations in range(MAX_ITERATIONS + 1):
        g, jtj = j.T @ r, j.T @ j
        if np.abs(g).max() <= GRADIENT_TOL:
            return x, math.sqrt(cost), True, iterations, jtj
        if iterations == MAX_ITERATIONS:
            break
        diag = jtj.diagonal().copy()
        diag[diag <= 0.0] = 1.0
        damped, descent = jtj.copy(), -g
        for _ in range(40):
            np.fill_diagonal(damped, jtj.diagonal() + lam * diag)
            try:
                step = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            r_new, jacobian_new = problem(x_new)
            cost_new = float(r_new @ r_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                break
            lam *= 10.0
        else:
            return x, math.sqrt(cost), False, iterations + 1, jtj
        lam = max(lam * 0.3, 1e-14)
        drop = cost - cost_new
        x, r, cost = x_new, r_new, cost_new
        j = jacobian_new()
        if drop <= REL_RESIDUAL_TOL * max(cost, 1e-300):
            return x, math.sqrt(cost), True, iterations + 1, j.T @ j
    return x, math.sqrt(cost), False, MAX_ITERATIONS, jtj


def _covariance_diag(jtj: np.ndarray, residual_norm: float, n_points: int) -> np.ndarray | None:
    """Parameter variances from the Gauss-Newton normal matrix, or None when
    they are undefined: no residual degrees of freedom, a singular matrix,
    or any variance that is not finite and positive."""
    dof = n_points - jtj.shape[0]
    if dof <= 0:
        return None
    try:
        with np.errstate(all="ignore"):
            diag = np.diag(np.linalg.inv(jtj)) * (residual_norm ** 2 / dof)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(diag) & (diag > 0.0)):
        return None
    return diag


def _fit_result(parameters: dict[str, float], units: dict[str, str], scales: dict[str, float],
                residual_norm: float, converged: bool, iterations: int, jtj: np.ndarray,
                n_points: int) -> FitResult:
    """The FitResult of every fit.  scales maps each free parameter, in
    jtj's column order, to dp/dx at the solution, where x is the solver's
    coordinate: a variance in natural units is the solver-coordinate
    variance times (dp/dx)^2."""
    cov = _covariance_diag(jtj, residual_norm, n_points)
    variances = None if cov is None else {
        name: float(c * s ** 2) for (name, s), c in zip(scales.items(), cov)}
    return FitResult(parameters, units, residual_norm, converged, iterations, variances)


# ---------------------------------------------------------------------------
# Stark curve

def fit_stark_curve(
    data: ShiftDataset,
    elec: ElectrostaticParams,
    *,
    field_sign: float = DEFAULT_FIELD_SIGN,
) -> FitResult:
    """Recover the Stark coefficients from shift-versus-bias data.

    Given the bias-to-field map the model is linear in the two
    coefficients, so the normal equations are solved in closed form.
    Points below the depletion onset carry zero field and no
    information; if fewer than three informative points remain, or the
    design is rank deficient (all fields equal), the fit is degenerate.
    """
    fields = field_sign * field_at_cavity(elec, data.voltages)
    nonzero = np.count_nonzero(fields)
    if nonzero < 3:
        raise DegenerateFitError(
            f"need >= 3 points above the depletion onset, found {nonzero}")
    design = np.column_stack([fields, -fields ** 2])
    y = data.shifts_mev
    jtj = design.T @ design
    det = jtj[0, 0] * jtj[1, 1] - jtj[0, 1] * jtj[1, 0]
    scale = jtj[0, 0] * jtj[1, 1]
    if not det > 1e-12 * max(scale, 1e-300):
        raise DegenerateFitError("rank-deficient design: fields carry no curvature")
    rhs = design.T @ y
    dipole = (jtj[1, 1] * rhs[0] - jtj[0, 1] * rhs[1]) / det
    polar = (-jtj[1, 0] * rhs[0] + jtj[0, 0] * rhs[1]) / det
    resid = y - design @ np.array([dipole, polar])
    names = ("dipole_mev_um_per_v", "polarizability_mev_um2_per_v2")
    return _fit_result(dict(zip(names, (float(dipole), float(polar)))),
                       dict(zip(names, ("meV um/V", "meV um^2/V^2"))),
                       dict.fromkeys(names, 1.0), float(np.linalg.norm(resid)),
                       True, 1, jtj, y.size)


def stark_model(
    elec: ElectrostaticParams,
    coeffs: StarkCoefficients,
    voltages,
    *,
    field_sign: float = DEFAULT_FIELD_SIGN,
) -> np.ndarray:
    """Shift in meV at each bias, for building synthetic datasets."""
    return stark_shift(coeffs, field_sign * field_at_cavity(elec, voltages))


# ---------------------------------------------------------------------------
# Spectrum fit

def _pack(params: CqedParams, free: Sequence[str]) -> np.ndarray:
    vals = []
    for name in free:
        value = getattr(params, name)
        if name in _LOG_SCALE_PARAMS:
            vals.append(math.log(check_value(name, value, ">", 0.0)))
        else:
            vals.append(value)
    return np.array(vals)


def _unpack(params: CqedParams, free: Sequence[str], x: np.ndarray) -> CqedParams:
    updates = {}
    for name, value in zip(free, x):
        updates[name] = math.exp(value) if name in _LOG_SCALE_PARAMS else value
    return replace(params, **updates)


def _log_scales(params: CqedParams, names: Sequence[str]) -> np.ndarray:
    """d p / d x per free parameter (chain rule to the log-scaled coordinates)."""
    return np.array([getattr(params, n) if n in _LOG_SCALE_PARAMS else 1.0 for n in names])


def _jacobian_columns(params: CqedParams, e, d, names: Sequence[str], coupling=None) -> np.ndarray:
    """d I / d p in natural units from the denominators (E, D) at params, with
    coupling (scalar or per point) in place of params.coupling when given.
    With I = b + A kappa^2 / |D|^2 each derivative reduces to Re(conj(D) dD/dp)."""
    abs2 = np.abs(d) ** 2
    a, kappa = params.amplitude, params.cavity_decay
    g = params.coupling if coupling is None else coupling
    front2 = -a * kappa ** 2 / abs2 ** 2 * 2.0
    conj_d = np.conj(d)

    out = np.empty((d.size, len(names)))
    for k, name in enumerate(names):
        if name == "amplitude":
            out[:, k] = kappa ** 2 / abs2
        elif name == "background":
            out[:, k] = 1.0
        elif name == "cavity_freq":
            out[:, k] = front2 * np.real(conj_d * 1j)
        elif name == "dot_freq":
            out[:, k] = front2 * np.real(conj_d * (-1j * g ** 2 / e ** 2))
        elif name == "coupling":
            out[:, k] = front2 * np.real(conj_d * (2.0 * g / e))
        elif name == "dot_decay":
            out[:, k] = front2 * np.real(conj_d * (-(g ** 2) / e ** 2))
        elif name == "cavity_decay":
            out[:, k] = 2.0 * a * kappa / abs2 + front2 * d.real
        else:
            raise DomainError(f"unknown spectrum parameter '{name}'")
    return out


def reflectivity_model_jacobian(params: CqedParams, detunings, names: Sequence[str]) -> np.ndarray:
    """Analytic d I / d p of the reflectivity model, columns in natural units."""
    e, d = reflectivity_terms(params, np.asarray(detunings, dtype=float))
    return _jacobian_columns(params, e, d, names)


def _spectrum_problem(spectrum: Spectrum, initial: CqedParams, names: Sequence[str]):
    """The spectrum fit in the packed coordinates: problem(x) -> (residual,
    jacobian), the Jacobian built from the E and D that formed the residual."""
    data, grid = spectrum.intensities, spectrum.detunings
    # With both frequencies held, i(w_d - w) and i(w_c - w) are formed once per fit.
    phases = None if {"dot_freq", "cavity_freq"} & set(names) else (
        1j * (initial.dot_freq - grid), 1j * (initial.cavity_freq - grid))

    def problem(x: np.ndarray):
        p = _unpack(initial, names, x)
        e, d = reflectivity_terms(p, grid, phases=phases)
        return (_intensity(p, d) - data,
                lambda: _jacobian_columns(p, e, d, names) * _log_scales(p, names))

    return problem


def fit_spectrum(
    spectrum: Spectrum,
    initial: CqedParams,
    free: Sequence[str],
) -> FitResult:
    """Fit the reflectivity model to a measured spectrum.

    free names a subset of the CqedParams fields; the rest stay at their
    initial values.  The spectrum needs at least one point per free
    parameter, or the fit is degenerate.  Non-convergence is reported
    through the result flag, but a trial step whose rate overflows
    math.exp (OverflowError) or underflows to zero (DomainError) still raises.
    """
    names = list(dict.fromkeys(free))
    unknown = [n for n in names if n not in _CQED_FIELDS]
    if unknown:
        raise DomainError(f"unknown free parameter(s): {', '.join(unknown)}")
    if not names:
        raise DomainError("free parameter set must not be empty")

    x0 = _pack(initial, names)
    if len(spectrum) < len(names):
        raise DegenerateFitError(f"need >= {len(names)} points for {len(names)} free "
                                 f"parameters, found {len(spectrum)}")
    x, *solution = _levenberg_marquardt(_spectrum_problem(spectrum, initial, names), x0)
    fitted = _unpack(initial, names, x)
    return _fit_result({name: float(getattr(fitted, name)) for name in _CQED_FIELDS},
                       dict(_CQED_UNITS), dict(zip(names, _log_scales(fitted, names))),
                       *solution, len(spectrum))


# ---------------------------------------------------------------------------
# DC contrast calibration

def dc_contrast(
    elec: ElectrostaticParams,
    stark: StarkCoefficients,
    cqed: CqedParams,
    v_on: float,
    *,
    screening: float = 1.0,
    field_sign: float = DEFAULT_FIELD_SIGN,
    g_anchors: Sequence[tuple[float, float]] | None = None,
) -> float:
    """Model on/off ratio of bias v_on against zero bias, probe at the zero-bias dot
    frequency, g(V) from g_anchors when given; the per-point form of the calibration model."""
    probe = cqed.dot_freq

    def point(v: float) -> float:
        detune = voltage_to_detuning(elec, stark, v, screening=screening,
                                     field_sign=field_sign)
        g = cqed.coupling if g_anchors is None else g_of_voltage(g_anchors, v)
        return reflectivity_at(replace(cqed, dot_freq=cqed.dot_freq + detune, coupling=g), probe)

    return point(v_on) / point(0.0)


def _contrast_problem(cqed: CqedParams, unscreened: np.ndarray, ratios: np.ndarray,
                      coupling: np.ndarray | None = None):
    """The contrast fit in (log gamma, logit s): problem(x) -> (residual,
    jacobian).  unscreened holds the s = 1 detuning, and coupling, when
    given, the coupling of every target and, last, of the zero-bias
    reference; each residual is I(V)/I(0 V) minus its target ratio."""
    def problem(x: np.ndarray):
        gamma = math.exp(x[0])
        s = 1.0 / (1.0 + math.exp(-x[1]))
        e, d = reflectivity_terms(cqed, cqed.dot_freq, dot_decay=gamma, coupling=coupling,
                                  dot_freq=cqed.dot_freq + s * unscreened)
        intensity = _intensity(cqed, d)
        ratio = intensity[:-1] / intensity[-1]

        def jacobian() -> np.ndarray:
            # dI/dx by the chain rule through gamma = e^x0 and s = 1/(1 + e^-x1),
            # then the quotient rule for I(V)/I(0 V)
            cols = _jacobian_columns(cqed, e, d, ("dot_decay", "dot_freq"), coupling=coupling)
            cols[:, 0] *= gamma
            cols[:, 1] *= s * (1.0 - s) * unscreened
            return (cols[:-1] - ratio[:, None] * cols[-1]) / intensity[-1]

        return ratio - ratios, jacobian

    return problem


def fit_contrast(
    targets: Sequence[tuple[float, float]],
    elec: ElectrostaticParams,
    stark: StarkCoefficients,
    cqed: CqedParams,
    *,
    field_sign: float = DEFAULT_FIELD_SIGN,
    g_anchors: Sequence[tuple[float, float]] | None = None,
) -> FitResult:
    """Calibrate (dot_decay, screening) against DC on/off ratio targets.

    targets are (reverse bias V, measured on/off ratio) pairs, ratios
    taken against the zero-bias state; g(V), 0 V included, comes from
    g_anchors when given and is cqed.coupling otherwise.  The solver scans a
    coarse deterministic grid for a starting point, then refines with the
    damped Gauss-Newton loop in (log gamma, logit s) coordinates.
    """
    volts = check_array("bias targets", [t[0] for t in targets], (2, (">=", 0.0)))
    ratios = check_array("on/off ratios", [t[1] for t in targets], ((">=", 1.0),))
    # The detuning is linear in the screening factor: evaluate it once at
    # s = 1 for every target and for the zero-bias reference, then scale.
    biases = np.append(volts, 0.0)
    unscreened = voltage_to_detuning(elec, stark, biases, field_sign=field_sign)
    coupling = None if g_anchors is None else g_of_voltage(g_anchors, biases)

    # Coarse scan keeps the refinement out of the wrong basin.
    gamma_grid = cqed.cavity_decay * np.geomspace(0.02, 2.0, 24)
    s_grid = np.linspace(0.02, 0.9, 18)
    intensity = reflectivity_model(cqed, cqed.dot_freq, dot_decay=gamma_grid[:, None, None],
                                   dot_freq=cqed.dot_freq + s_grid[None, :, None] * unscreened,
                                   coupling=coupling)
    err = intensity[..., :-1] / intensity[..., -1:] - ratios
    i, k = np.unravel_index(np.argmin(np.sum(err * err, axis=-1)), err.shape[:2])
    x0 = np.array([math.log(gamma_grid[i]), math.log(s_grid[k] / (1.0 - s_grid[k]))])

    x, *solution = _levenberg_marquardt(_contrast_problem(cqed, unscreened, ratios, coupling), x0)
    gamma = math.exp(x[0])
    s = 1.0 / (1.0 + math.exp(-x[1]))
    # dgamma/dx0 = gamma, ds/dx1 = s(1-s)
    return _fit_result({"dot_decay": gamma, "screening": s},
                       {"dot_decay": "angular GHz", "screening": "dimensionless"},
                       {"dot_decay": gamma, "screening": s * (1.0 - s)},
                       *solution, ratios.size)
