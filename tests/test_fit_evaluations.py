"""One model evaluation per Levenberg-Marquardt point.

Both nonlinear fits build their analytic Jacobian from the E and D that
formed the residual.  These tests pin what that changes and what it does
not: the spectrum residual/Jacobian pair is bit-identical to the public
model and Jacobian, the contrast Jacobian matches central differences of
its own residual, no point is evaluated twice, and seeded fits reproduce
their recorded results bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswitch import (
    CqedParams,
    ElectrostaticParams,
    OpticalFrame,
    Spectrum,
    StarkCoefficients,
    fit_contrast,
    fit_spectrum,
    kappa_from_q,
    reflectivity_model_jacobian,
    reflectivity_spectrum,
    voltage_to_detuning,
)
from qdswitch import fitting
from qdswitch.cqed import reflectivity_model
from qdswitch.fitting import (_contrast_problem, _log_scales, _pack, _spectrum_problem,
                              _unpack)

TWO_PI = 2.0 * math.pi
ALL_NAMES = ("cavity_freq", "dot_freq", "coupling", "cavity_decay",
             "dot_decay", "amplitude", "background")
GOLDEN_FREE = (
    ("coupling", "cavity_decay", "dot_decay", "amplitude"),
    ("cavity_freq", "dot_freq", "coupling", "background"),
    ALL_NAMES,
)


def golden_spectrum_case(seed):
    """(spectrum, start, free) of a seeded noisy 481-point fit."""
    rng = np.random.default_rng(seed)
    truth = CqedParams(
        cavity_freq=TWO_PI * rng.uniform(-5.0, 5.0),
        dot_freq=TWO_PI * rng.uniform(20.0, 60.0),
        coupling=TWO_PI * rng.uniform(15.0, 25.0),
        cavity_decay=TWO_PI * rng.uniform(30.0, 50.0),
        dot_decay=TWO_PI * rng.uniform(2.0, 10.0),
        amplitude=rng.uniform(0.8, 1.2),
        background=0.05,
    )
    grid = TWO_PI * np.linspace(-150.0, 150.0, 481)
    clean = reflectivity_spectrum(truth, grid).intensities
    spectrum = Spectrum(grid, np.abs(clean + rng.normal(0.0, 0.005, grid.size)))
    free = GOLDEN_FREE[seed % 3]
    start = replace(truth, **{
        name: getattr(truth, name) + TWO_PI * rng.uniform(-3.0, 3.0)
        if name.endswith("_freq") else getattr(truth, name) * rng.uniform(0.8, 1.2)
        for name in free})
    return spectrum, start, free


# -- residual / Jacobian pair ------------------------------------------------------

@st.composite
def spectrum_problems(draw):
    """(initial params, free names, two packed points, seed for the data)."""
    unit = st.floats(0.0, 1.0)
    initial = CqedParams(
        cavity_freq=TWO_PI * (40.0 * draw(unit) - 20.0),
        dot_freq=TWO_PI * (120.0 * draw(unit) - 60.0),
        coupling=TWO_PI * (1.0 + 40.0 * draw(unit)),
        cavity_decay=TWO_PI * (5.0 + 55.0 * draw(unit)),
        dot_decay=TWO_PI * (0.1 + 20.0 * draw(unit)),
        amplitude=0.5 + 2.5 * draw(unit),
        background=0.5 + 0.4 * draw(unit),   # stays >= 0 under the steps below
    )
    names = draw(st.lists(st.sampled_from(ALL_NAMES), min_size=1, unique=True))
    x0 = _pack(initial, names)
    steps = st.lists(st.floats(-0.5, 0.5), min_size=len(names), max_size=len(names))
    x1 = x0 + np.array(draw(steps))
    x2 = x0 + np.array(draw(steps))
    return initial, names, x1, x2, draw(st.integers(0, 2 ** 32 - 1))


def reference_pair(initial, names, x, grid, data):
    p = _unpack(initial, names, x)
    return (reflectivity_model(p, grid) - data,
            reflectivity_model_jacobian(p, grid, names) * _log_scales(p, names))


@settings(max_examples=80, deadline=None)
@given(problem=spectrum_problems())
def test_fit_residual_and_jacobian_are_bit_identical_to_the_model(problem):
    initial, names, x1, x2, seed = problem
    grid = TWO_PI * np.linspace(-150.0, 150.0, 61)
    spectrum = Spectrum(grid, np.random.default_rng(seed).uniform(0.0, 1.5, grid.size))
    problem = _spectrum_problem(spectrum, initial, names)

    want_r1, want_j1 = reference_pair(initial, names, x1, grid, spectrum.intensities)
    want_r2, want_j2 = reference_pair(initial, names, x2, grid, spectrum.intensities)
    r1, jacobian1 = problem(x1)
    assert r1.tobytes() == want_r1.tobytes()
    assert jacobian1().tobytes() == want_j1.tobytes()   # from the E and D of r1
    r2, jacobian2 = problem(x2)
    assert r2.tobytes() == want_r2.tobytes()
    assert jacobian2().tobytes() == want_j2.tobytes()
    assert jacobian1().tobytes() == want_j1.tobytes()   # unaffected by the later point


CONTRAST_CQED = CqedParams(
    cavity_freq=0.0, dot_freq=0.0, coupling=TWO_PI * 20.0,
    cavity_decay=kappa_from_q(OpticalFrame(935.0, 4000.0)), dot_decay=TWO_PI * 0.1)
STARK = StarkCoefficients(dipole_mev_um_per_v=-0.009, polarizability_mev_um2_per_v2=-0.015)


@settings(max_examples=80, deadline=None)
@given(distance=st.sampled_from([0.75, 0.1]),   # onsets 3.19 V and 0 V
       log_gamma_over_kappa=st.floats(math.log(0.01), math.log(3.0)),
       logit_s=st.floats(-4.0, 4.0),
       below=st.lists(st.floats(0.0, 3.0), max_size=2),
       above=st.lists(st.floats(3.4, 16.0), min_size=1, max_size=3))
def test_contrast_jacobian_matches_central_differences(distance, log_gamma_over_kappa,
                                                       logit_s, below, above):
    elec = ElectrostaticParams(donor_density_cm3=9e15, barrier_potential_v=0.36,
                               relative_permittivity=12.9, electrode_distance_um=distance)
    volts = np.array(below + above)
    unscreened = voltage_to_detuning(elec, STARK, np.append(volts, 0.0))
    problem = _contrast_problem(CONTRAST_CQED, unscreened, np.ones(volts.size))
    x = np.array([math.log(CONTRAST_CQED.cavity_decay) + log_gamma_over_kappa, logit_s])

    r, jacobian = problem(x)
    analytic = jacobian()
    for k in range(2):
        h = 1e-6 * max(1.0, abs(x[k]))
        step = np.zeros(2)
        step[k] = h
        fd = (problem(x + step)[0] - problem(x - step)[0]) / (2.0 * h)
        scale = np.max(np.abs(fd)) or 1.0
        # A nearly flat column (dot far from or right at the probe) is below
        # what central differences resolve: the rounding of the ratios over h.
        rounding = 16.0 * np.finfo(float).eps * np.max(r + 1.0) / h
        assert np.max(np.abs(analytic[:, k] - fd)) <= 1e-6 * scale + rounding


# -- evaluations per solve ----------------------------------------------------------

@pytest.fixture
def evaluations(monkeypatch):
    """Records the packed point of every problem call the LM loop makes and
    the parameters of every reflectivity_terms call of the fits."""
    record = {"points": [], "terms": []}
    solve = fitting._levenberg_marquardt
    terms = fitting.reflectivity_terms

    def counted_solve(problem, x0, **kwargs):
        def counted(x):
            record["points"].append(x.tobytes())
            return problem(x)
        return solve(counted, x0, **kwargs)

    def counted_terms(params, omega, **kwargs):
        record["terms"].append(params)
        return terms(params, omega, **kwargs)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", counted_solve)
    monkeypatch.setattr(fitting, "reflectivity_terms", counted_terms)
    return record


def test_contrast_solve_evaluates_no_point_twice(evaluations, device_elec,
                                                 device_stark, device_cqed):
    result = fit_contrast([(10.0, 1.5), (14.0, 2.0)], device_elec, device_stark,
                          device_cqed)
    points = evaluations["points"]
    assert result.iterations > 0
    assert len(set(points)) == len(points)
    # every model evaluation is a problem call: the Jacobian forms no E, D
    assert len(evaluations["terms"]) == len(points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectrum_solve_evaluates_the_model_once_per_point(evaluations, seed):
    result = fit_spectrum(*golden_spectrum_case(seed))
    points = evaluations["points"]
    assert result.iterations > 0
    assert len(set(points)) == len(points)
    # every model evaluation is a problem call: the Jacobian forms no E, D
    assert len(evaluations["terms"]) == len(points)


# -- recorded results ---------------------------------------------------------------

GOLDEN_SPECTRUM = {
    1: (4, "0x1.9983d99070397p-4", {
        "cavity_freq": "0x1.12c0f9fe1e4f6p+0", "dot_freq": "0x1.6c93738a7e889p+8",
        "coupling": "0x1.9ed6b766b9e7dp+6", "cavity_decay": "0x1.33b4d44f07317p+8",
        "dot_decay": "0x1.c3da06a590576p+4", "amplitude": "0x1.f04c1904b1f9fp-1",
        "background": "0x1.98c21f5e40f97p-5"}, {
        "cavity_freq": "0x1.c590715241699p-5", "dot_freq": "0x1.2a2d30acbd8f0p-5",
        "coupling": "0x1.93392aa9a61eap-5", "background": "0x1.8b01d61bed201p-25"}),
    2: (4, "0x1.c199ea7d26380p-4", {
        "cavity_freq": "-0x1.d337f9eb9b31ep+3", "dot_freq": "0x1.90aaa7f86eaa1p+7",
        "coupling": "0x1.23889a530a7fep+7", "cavity_decay": "0x1.8f35f1144ce7bp+7",
        "dot_decay": "0x1.5a29768defb33p+5", "amplitude": "0x1.182dca1c92cbdp+0",
        "background": "0x1.9953bbe102c2ap-5"}, {
        "cavity_freq": "0x1.ba3ade89a5b13p-4", "dot_freq": "0x1.ba020958d06bcp-5",
        "coupling": "0x1.3fe9937f36436p-5", "cavity_decay": "0x1.4017c90b85a6ap-3",
        "dot_decay": "0x1.0741a361ca1fbp-3", "amplitude": "0x1.c766f0d268920p-19",
        "background": "0x1.56bcc59f799b3p-22"}),
    3: (4, "0x1.bd6e120849d82p-4", {
        "cavity_freq": "-0x1.a08d072749fa1p+4", "dot_freq": "0x1.725c81d29e434p+7",
        "coupling": "0x1.2104cd43994d7p+7", "cavity_decay": "0x1.064b648019882p+8",
        "dot_decay": "0x1.16394ce5de8dfp+4", "amplitude": "0x1.f1e2aadad939fp-1",
        "background": "0x1.999999999999ap-5"}, {
        "coupling": "0x1.3b6993f8a676bp-6", "cavity_decay": "0x1.742a3469d0e89p-4",
        "dot_decay": "0x1.f9b87222eea84p-7", "amplitude": "0x1.b67751671943fp-21"}),
}


def hexes(values):
    return {name: value.hex() for name, value in values.items()}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SPECTRUM))
def test_seeded_spectrum_fit_reproduces_recorded_bits(seed):
    iterations, norm, parameters, variances = GOLDEN_SPECTRUM[seed]
    result = fit_spectrum(*golden_spectrum_case(seed))
    assert result.converged
    assert result.iterations == iterations
    assert result.residual_norm.hex() == norm
    assert hexes(result.parameters) == parameters
    assert hexes(result.covariance_diag) == variances


def test_preset_contrast_fit_reproduces_recorded_bits(device_elec, device_stark,
                                                      device_cqed):
    result = fit_contrast([(10.0, 1.5), (14.0, 2.0)], device_elec, device_stark,
                          device_cqed)
    assert result.converged
    assert result.iterations == 4
    assert result.residual_norm.hex() == "0x1.603a11a9dcc00p-30"
    assert hexes(result.parameters) == {"dot_decay": "0x1.acd430026b23bp+6",
                                        "screening": "0x1.b64514040986ap-4"}
    assert result.covariance_diag is None   # two targets, two parameters: no dof
