import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qdswitch import (
    CqedParams,
    DegenerateFitError,
    DomainError,
    ShiftDataset,
    Spectrum,
    dot_decay_from_contrast,
    fit_contrast,
    fit_spectrum,
    fit_stark_curve,
    reflectivity_model_jacobian,
    reflectivity_spectrum,
    stark_model,
)
from qdswitch.fitting import _covariance_diag, _levenberg_marquardt

TWO_PI = 2.0 * math.pi
ALL_NAMES = ["cavity_freq", "dot_freq", "coupling", "cavity_decay",
             "dot_decay", "amplitude", "background"]


# -- Stark curve ---------------------------------------------------------------

def test_stark_fit_exact_on_noiseless_data(device_elec, device_stark):
    volts = np.linspace(0.0, 10.0, 21)
    data = ShiftDataset(volts, stark_model(device_elec, device_stark, volts))
    result = fit_stark_curve(data, device_elec)
    assert result.converged
    assert result.parameters["dipole_mev_um_per_v"] \
        == pytest.approx(-0.009, rel=1e-10)
    assert result.parameters["polarizability_mev_um2_per_v2"] \
        == pytest.approx(-0.015, rel=1e-10)
    assert result.residual_norm < 1e-10


def test_stark_fit_with_one_percent_noise(device_elec, device_stark):
    # statistical: the dipole term is weakly constrained, so this checks
    # a fixed seed on a well-conditioned sweep
    rng = np.random.default_rng(1234)
    volts = np.linspace(4.0, 16.0, 201)
    clean = stark_model(device_elec, device_stark, volts)
    noisy = clean + 0.01 * np.abs(clean) * rng.standard_normal(clean.size)
    result = fit_stark_curve(ShiftDataset(volts, noisy), device_elec)
    assert result.parameters["dipole_mev_um_per_v"] == pytest.approx(-0.009, rel=0.05)
    assert result.parameters["polarizability_mev_um2_per_v2"] \
        == pytest.approx(-0.015, rel=0.05)


def test_stark_fit_degenerate_below_onset(device_elec):
    volts = np.linspace(0.0, 3.0, 10)
    with pytest.raises(DegenerateFitError):
        fit_stark_curve(ShiftDataset(volts, np.zeros_like(volts)), device_elec)


def test_stark_fit_matches_iterative_least_squares(device_elec, device_stark):
    rng = np.random.default_rng(7)
    volts = np.linspace(0.0, 12.0, 25)
    shifts = stark_model(device_elec, device_stark, volts) \
        + 0.002 * rng.standard_normal(volts.size)
    closed = fit_stark_curve(ShiftDataset(volts, shifts), device_elec)

    from qdswitch import field_at_cavity
    fields = np.array([-field_at_cavity(device_elec, v) for v in volts])
    design = np.column_stack([fields, -fields ** 2])

    x, *_ = _levenberg_marquardt(lambda x: (design @ x - shifts, lambda: design),
                                 np.zeros(2), rel_tol=1e-16, grad_tol=1e-14,
                                 max_iterations=5000)
    assert closed.parameters["dipole_mev_um_per_v"] == pytest.approx(x[0], rel=1e-10)
    assert closed.parameters["polarizability_mev_um2_per_v2"] \
        == pytest.approx(x[1], rel=1e-10)


def test_shift_dataset_validation():
    with pytest.raises(DomainError):
        ShiftDataset(np.array([1.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(DomainError):
        ShiftDataset(np.array([1.0]), np.array([0.1]))


@pytest.mark.parametrize("volts, shifts, weights", [
    ([1.0, math.nan], [0.1, 0.2], None),
    ([1.0, 2.0], [0.1, math.inf], None),
    ([1.0, 2.0], [0.1, 0.2], [1.0, math.inf]),
    ([1.0, 2.0], [0.1, 0.2], [1.0, math.nan]),
])
def test_shift_dataset_rejects_non_finite_values(volts, shifts, weights):
    with pytest.raises(DomainError, match="finite"):
        ShiftDataset(np.array(volts), np.array(shifts), weights)


# -- spectrum fit ----------------------------------------------------------------

def synth_spectrum(params, lo=-120.0, hi=120.0, n=481):
    grid = TWO_PI * np.linspace(lo, hi, n)
    return reflectivity_spectrum(params, grid)


def test_spectrum_fit_round_trip_from_perturbed_start(device_cqed):
    truth = replace(device_cqed, dot_decay=TWO_PI * 5.0)
    data = synth_spectrum(truth)
    start = replace(truth,
                    coupling=truth.coupling * 1.2,
                    cavity_decay=truth.cavity_decay * 0.8,
                    dot_decay=truth.dot_decay * 1.2,
                    amplitude=truth.amplitude * 0.8)
    result = fit_spectrum(data, start,
                          ["coupling", "cavity_decay", "dot_decay", "amplitude"])
    assert result.converged
    for name in ("coupling", "cavity_decay", "dot_decay", "amplitude"):
        assert result.parameters[name] \
            == pytest.approx(getattr(truth, name), rel=1e-3 * 0.999)


def test_spectrum_fit_started_at_truth_is_immediate(device_cqed):
    truth = replace(device_cqed, dot_decay=TWO_PI * 5.0)
    data = synth_spectrum(truth)
    result = fit_spectrum(data, truth, ["coupling", "cavity_decay"])
    assert result.converged
    assert result.iterations == 0
    assert result.residual_norm < 1e-8
    for name in ("coupling", "cavity_decay"):
        rel = abs(result.parameters[name] - getattr(truth, name)) \
            / getattr(truth, name)
        assert rel <= 1e-8


def test_bare_lorentzian_recovers_cavity_parameters():
    truth = CqedParams(TWO_PI * 6.0, TWO_PI * -40.0, 0.0, TWO_PI * 35.0,
                       TWO_PI * 1.0, amplitude=1.8)
    data = synth_spectrum(truth)
    start = replace(truth, cavity_freq=TWO_PI * 2.0,
                    cavity_decay=TWO_PI * 50.0, amplitude=1.0)
    result = fit_spectrum(data, start, ["cavity_freq", "cavity_decay", "amplitude"])
    assert result.converged
    assert result.parameters["cavity_freq"] == pytest.approx(TWO_PI * 6.0, abs=1e-6)
    assert result.parameters["cavity_decay"] == pytest.approx(TWO_PI * 35.0, rel=1e-8)
    assert result.parameters["amplitude"] == pytest.approx(1.8, rel=1e-8)


def test_fitted_coupling_ordering_preserved(device_cqed):
    base = replace(device_cqed, dot_decay=TWO_PI * 5.0)
    start = replace(base, coupling=TWO_PI * 17.0)
    fits = {}
    for g_ghz in (20.0, 15.0):
        data = synth_spectrum(replace(base, coupling=TWO_PI * g_ghz))
        fits[g_ghz] = fit_spectrum(data, start, ["coupling"]).parameters["coupling"]
    assert fits[20.0] > fits[15.0]
    assert fits[20.0] == pytest.approx(TWO_PI * 20.0, rel=1e-6)
    assert fits[15.0] == pytest.approx(TWO_PI * 15.0, rel=1e-6)


def test_spectrum_fit_rejects_unknown_parameter(device_cqed):
    data = synth_spectrum(device_cqed)
    with pytest.raises(DomainError):
        fit_spectrum(data, device_cqed, ["coupling", "finesse"])


def test_spectrum_rejects_nan_data():
    grid = TWO_PI * np.linspace(-10.0, 10.0, 11)
    values = np.ones_like(grid)
    values[3] = np.nan
    with pytest.raises(DomainError):
        Spectrum(grid, values)


def test_fit_results_deterministic(device_cqed):
    truth = replace(device_cqed, dot_decay=TWO_PI * 5.0)
    data = synth_spectrum(truth)
    start = replace(truth, coupling=truth.coupling * 1.15)
    a = fit_spectrum(data, start, ["coupling", "dot_decay"])
    b = fit_spectrum(data, start, ["coupling", "dot_decay"])
    assert a.parameters == b.parameters
    assert a.residual_norm == b.residual_norm
    assert a.iterations == b.iterations


# -- Jacobian --------------------------------------------------------------------

def test_analytic_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    grid = TWO_PI * np.linspace(-90.0, 90.0, 61)
    for _ in range(10):
        p = CqedParams(
            cavity_freq=TWO_PI * rng.uniform(-20.0, 20.0),
            dot_freq=TWO_PI * rng.uniform(-20.0, 20.0),
            coupling=TWO_PI * rng.uniform(5.0, 40.0),
            cavity_decay=TWO_PI * rng.uniform(5.0, 60.0),
            dot_decay=TWO_PI * rng.uniform(0.5, 20.0),
            amplitude=rng.uniform(0.5, 3.0),
            background=rng.uniform(0.0, 0.4),
        )
        analytic = reflectivity_model_jacobian(p, grid, ALL_NAMES)
        for k, name in enumerate(ALL_NAMES):
            value = getattr(p, name)
            h = 1e-6 * max(1.0, abs(value))
            up = reflectivity_spectrum(replace(p, **{name: value + h}), grid).intensities
            dn = reflectivity_spectrum(replace(p, **{name: value - h}), grid).intensities
            fd = (up - dn) / (2.0 * h)
            scale = np.max(np.abs(fd)) or 1.0
            assert np.max(np.abs(analytic[:, k] - fd)) / scale < 1e-6


# -- contrast calibration ----------------------------------------------------------

def test_single_ratio_inversion():
    gamma = dot_decay_from_contrast(1.5, TWO_PI * 20.0, TWO_PI * 40.0)
    assert gamma / TWO_PI == pytest.approx(44.5, abs=0.1)
    # consistency: the implied cooperativity reproduces the ratio
    c = (TWO_PI * 20.0) ** 2 / (TWO_PI * 40.0 * gamma)
    assert (1.0 + c) ** 2 == pytest.approx(1.5, rel=1e-12)


def test_single_ratio_boundary():
    assert dot_decay_from_contrast(1.0, TWO_PI * 20.0, TWO_PI * 40.0) == math.inf
    for ratio in (0.9, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            dot_decay_from_contrast(ratio, TWO_PI * 20.0, TWO_PI * 40.0)


def test_contrast_fit_two_targets(device_elec, device_stark, device_cqed):
    result = fit_contrast([(10.0, 1.5), (14.0, 2.0)], device_elec, device_stark,
                          device_cqed)
    assert result.converged
    assert result.residual_norm < 1e-3
    gamma_ghz = result.parameters["dot_decay"] / TWO_PI
    assert 10.0 <= gamma_ghz <= 25.0
    assert 0.05 <= result.parameters["screening"] <= 0.2


def test_contrast_fit_round_trips_known_parameters(device_elec, device_stark, device_cqed):
    from qdswitch import dc_contrast
    truth_gamma, truth_s = TWO_PI * 12.0, 0.15
    cal = replace(device_cqed, dot_decay=truth_gamma)
    targets = [(v, dc_contrast(device_elec, device_stark, cal, v, screening=truth_s))
               for v in (8.0, 11.0, 14.0)]
    result = fit_contrast(targets, device_elec, device_stark, device_cqed)
    assert result.parameters["dot_decay"] == pytest.approx(truth_gamma, rel=1e-8)
    assert result.parameters["screening"] == pytest.approx(truth_s, rel=1e-8)


def test_contrast_fit_input_validation(device_elec, device_stark, device_cqed):
    with pytest.raises(DomainError):
        fit_contrast([(10.0, 1.5)], device_elec, device_stark, device_cqed)
    with pytest.raises(DomainError):
        fit_contrast([(10.0, 0.5), (14.0, 2.0)], device_elec, device_stark,
                     device_cqed)


@pytest.mark.parametrize("target", [(10.0, math.nan), (10.0, math.inf),
                                    (math.nan, 1.5), (math.inf, 1.5)])
def test_contrast_fit_rejects_non_finite_targets(device_elec, device_stark, device_cqed,
                                                 target):
    with pytest.raises(DomainError, match="finite"):
        fit_contrast([target, (14.0, 2.0)], device_elec, device_stark, device_cqed)


# -- optimizer ----------------------------------------------------------------------

def test_lm_reports_non_convergence():
    def problem(x):
        return (np.array([math.exp(x[0]) - 5.0, x[0] ** 3 - 2.0]),
                lambda: np.array([[math.exp(x[0])], [3.0 * x[0] ** 2]]))

    _, _, converged, iterations, _ = _levenberg_marquardt(
        problem, np.array([10.0]), max_iterations=1)
    assert not converged
    assert iterations == 1


def test_lm_converges_on_rosenbrock_style_problem():
    def problem(x):
        return (np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]),
                lambda: np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]]))

    x, norm, converged, _, _ = _levenberg_marquardt(problem, np.array([-1.2, 1.0]))
    assert converged
    assert norm < 1e-8
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-6)


# -- parameter variances -------------------------------------------------------

def test_covariance_diag_scales_the_inverse_normal_matrix():
    # dof = 11 - 2 = 9 and residual_norm^2 = 9: the scale is exactly 1
    np.testing.assert_array_equal(_covariance_diag(np.diag([2.0, 4.0]), 3.0, 11), [0.5, 0.25])


@pytest.mark.parametrize("jtj, residual_norm", [
    (np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0),       # a negative direction
    (np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0),       # an exactly singular direction
    (np.diag([1.0, -1.0, 1e-320]), 1.0),             # negative and numerically singular
    (np.diag([1.0, 1e-320]), 0.0),                   # infinite variance times zero
    (np.diag([1.0, 2.0]), 0.0),                      # zero variances
])
def test_covariance_diag_is_none_unless_every_variance_is_finite_and_positive(
        jtj, residual_norm):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _covariance_diag(jtj, residual_norm, 10) is None
