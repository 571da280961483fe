import math
import warnings

import numpy as np
import pytest
import scipy.constants
from scipy.integrate import quad

from qdswitch import (
    CouplingRegime,
    CqedParams,
    DomainError,
    OpticalFrame,
    cooperativity,
    coupling_regime,
    g_of_voltage,
    kappa_from_q,
    max_bandwidth,
    pl_spectrum,
    polariton_modes,
    reflectivity_at,
    reflectivity_spectrum,
    vacuum_rabi_splitting,
    weak_coupling_bandwidth,
)

TWO_PI = 2.0 * math.pi


def random_params(rng):
    return CqedParams(
        cavity_freq=TWO_PI * rng.uniform(-50.0, 50.0),
        dot_freq=TWO_PI * rng.uniform(-50.0, 50.0),
        coupling=TWO_PI * rng.uniform(0.5, 60.0),
        cavity_decay=TWO_PI * rng.uniform(0.5, 80.0),
        dot_decay=TWO_PI * rng.uniform(0.05, 40.0),
        amplitude=rng.uniform(0.1, 5.0),
        background=rng.uniform(0.0, 0.5),
    )


# -- kappa from Q -----------------------------------------------------------

def test_kappa_from_q_reference_cavity(device_frame):
    kappa = kappa_from_q(device_frame) / TWO_PI
    assert 39.0 <= kappa <= 41.0
    # independent path: c / lambda / (2 Q) via scipy's constants
    nu0 = scipy.constants.c / 935e-9 / 1e9
    assert kappa == pytest.approx(nu0 / (2 * 4000.0), rel=1e-12)


def test_kappa_from_q_high_q_cavity():
    kappa = kappa_from_q(OpticalFrame(935.0, 17000.0)) / TWO_PI
    assert kappa == pytest.approx(9.43, rel=1e-3)


def test_kappa_falls_as_one_over_q_to_the_top_of_its_range():
    assert kappa_from_q(OpticalFrame(935.0, 1e9)) < 1.1e-3
    assert kappa_from_q(OpticalFrame(935.0, 1e9)) == pytest.approx(
        4e-6 * kappa_from_q(OpticalFrame(935.0, 4000.0)), rel=1e-15)


def test_kappa_requires_positive_q():
    with pytest.raises(DomainError):
        kappa_from_q(OpticalFrame(935.0, -4000.0))
    with pytest.raises(DomainError):
        kappa_from_q(OpticalFrame(935.0, None))


# -- polariton modes --------------------------------------------------------

def test_polariton_modes_decoupled_limit():
    p = CqedParams(TWO_PI * 5.0, TWO_PI * -3.0, 0.0, TWO_PI * 40.0, TWO_PI * 0.1)
    lo, hi = polariton_modes(p)
    assert lo == pytest.approx(complex(TWO_PI * -3.0, -TWO_PI * 0.1), rel=1e-12)
    assert hi == pytest.approx(complex(TWO_PI * 5.0, -TWO_PI * 40.0), rel=1e-12)


def test_resonant_splitting_barely_resolved(device_cqed):
    # exactly the round kappa/2pi = 40 quoted for the device
    p = CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1)
    split = vacuum_rabi_splitting(p)
    expected = 2.0 * math.sqrt(20.0 ** 2 - ((40.0 - 0.1) / 2.0) ** 2)
    assert split == pytest.approx(expected, rel=1e-12)
    assert 2.0 <= split <= 4.0


def test_polariton_modes_match_generic_eigensolver():
    rng = np.random.default_rng(20260809)
    for _ in range(1000):
        p = random_params(rng)
        matrix = np.array([
            [p.cavity_freq - 1j * p.cavity_decay, p.coupling],
            [p.coupling, p.dot_freq - 1j * p.dot_decay],
        ])
        expected = sorted(np.linalg.eigvals(matrix), key=lambda z: (z.real, z.imag))
        got = polariton_modes(p)
        scale = max(abs(e) for e in expected) or 1.0
        for g_val, e_val in zip(got, expected):
            assert abs(g_val - e_val) / scale < 1e-10


def test_anticrossing_minimum_gap_at_zero_detuning():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        p = random_params(rng)
        if p.coupling <= abs(p.cavity_decay - p.dot_decay) / 2.0 * 1.05:
            continue
        sweep = p.cavity_freq + TWO_PI * np.linspace(-80.0, 80.0, 641)
        gaps = []
        for wd in sweep:
            lo, hi = polariton_modes(CqedParams(
                p.cavity_freq, wd, p.coupling, p.cavity_decay, p.dot_decay))
            gaps.append(hi.real - lo.real)
        best = sweep[int(np.argmin(gaps))]
        step = sweep[1] - sweep[0]
        assert abs(best - p.cavity_freq) <= step
        checked += 1


# -- reflectivity ------------------------------------------------------------

def test_reflectivity_reduces_to_lorentzian_without_dot():
    p = CqedParams(TWO_PI * 3.0, 0.0, 0.0, TWO_PI * 40.0, TWO_PI * 0.1,
                   amplitude=2.5, background=0.0)
    grid = p.cavity_freq + TWO_PI * np.linspace(-200.0, 200.0, 1001)
    spec = reflectivity_spectrum(p, grid)
    peak = reflectivity_at(p, p.cavity_freq)
    assert peak == pytest.approx(2.5, rel=1e-12)
    # HWHM equals kappa
    assert reflectivity_at(p, p.cavity_freq + p.cavity_decay) \
        == pytest.approx(1.25, rel=1e-12)
    assert np.all(spec.intensities <= peak + 1e-12)


def test_lorentzian_integral_matches_quadrature():
    p = CqedParams(0.0, 0.0, 0.0, TWO_PI * 40.0, TWO_PI * 0.1,
                   amplitude=1.7, background=0.0)
    analytic = math.pi * p.amplitude * p.cavity_decay
    numeric, _ = quad(lambda w: reflectivity_at(p, w), -np.inf, np.inf)
    assert numeric == pytest.approx(analytic, rel=1e-6)


def test_on_resonance_dip_ratio_identity():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = random_params(rng)
        p = CqedParams(p.cavity_freq, p.cavity_freq, p.coupling,
                       p.cavity_decay, p.dot_decay, p.amplitude, 0.0)
        c = cooperativity(p)
        ratio = reflectivity_at(p, p.cavity_freq) / p.amplitude
        assert abs(ratio - 1.0 / (1.0 + c) ** 2) < 1e-9


def test_far_detuned_dot_recovers_bare_cavity():
    kappa = TWO_PI * 40.0
    grid = TWO_PI * np.linspace(-200.0, 200.0, 801)
    bare = reflectivity_spectrum(
        CqedParams(0.0, 0.0, 0.0, kappa, TWO_PI * 0.1), grid)

    # weakly coupled dot parked 100 kappa away: already indistinguishable
    weak = reflectivity_spectrum(
        CqedParams(0.0, 100.0 * kappa, TWO_PI * 0.3, kappa, TWO_PI * 0.1), grid)
    assert np.max(np.abs(weak.intensities - bare.intensities)
                  / bare.intensities) < 1e-6

    # device-scale coupling: deviation decays toward the same limit
    errs = []
    for factor in (1e2, 1e4, 1e6):
        spec = reflectivity_spectrum(
            CqedParams(0.0, factor * kappa, TWO_PI * 20.0, kappa, TWO_PI * 0.1), grid)
        errs.append(np.max(np.abs(spec.intensities - bare.intensities)
                           / bare.intensities))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_reflectivity_rejects_empty_grid(device_cqed):
    with pytest.raises(DomainError):
        reflectivity_spectrum(device_cqed, np.array([]))


@pytest.mark.parametrize("spectrum", [reflectivity_spectrum, pl_spectrum])
@pytest.mark.parametrize("grid, message", [
    ([], r"detunings must be 1-D with >= 1 values, got shape \(0,\)"),
    ([[1.0, 2.0]], r"detunings must be 1-D with >= 1 values, got shape \(1, 2\)"),
    (3.0, r"detunings must be 1-D with >= 1 values, got shape \(\)"),
    ([1.0, 1.0], "strictly increasing"),
    ([1.0, math.nan, 3.0], "strictly increasing"),
    ([math.nan], "finite"),
    ([1.0, math.inf], "finite"),
])
def test_spectra_reject_bad_grids_without_warnings(device_cqed, spectrum, grid, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            spectrum(device_cqed, grid)


def test_spectra_non_negative_everywhere():
    rng = np.random.default_rng(2)
    grid = TWO_PI * np.linspace(-300.0, 300.0, 601)
    for _ in range(50):
        p = random_params(rng)
        assert np.all(reflectivity_spectrum(p, grid).intensities >= 0.0)
        assert np.all(pl_spectrum(p, grid).intensities >= 0.0)


def test_spectrum_shape_invariant_under_global_offset():
    p = CqedParams(TWO_PI * 4.0, TWO_PI * -2.0, TWO_PI * 20.0, TWO_PI * 40.0,
                   TWO_PI * 3.0, amplitude=1.3, background=0.2)
    grid = TWO_PI * np.linspace(-150.0, 150.0, 501)
    base = reflectivity_spectrum(p, grid)
    shift = TWO_PI * 37.0
    moved = reflectivity_spectrum(
        CqedParams(p.cavity_freq + shift, p.dot_freq + shift, p.coupling,
                   p.cavity_decay, p.dot_decay, p.amplitude, p.background),
        grid + shift)
    np.testing.assert_allclose(moved.intensities, base.intensities, rtol=1e-12)


# -- PL ----------------------------------------------------------------------

def test_pl_decoupled_peaks_at_bare_frequencies():
    p = CqedParams(TWO_PI * 30.0, TWO_PI * -30.0, 0.0, TWO_PI * 10.0, TWO_PI * 2.0)
    grid = TWO_PI * np.linspace(-100.0, 100.0, 4001)
    spec = pl_spectrum(p, grid)
    mid = len(grid) // 2
    lo_peak = spec.detunings[np.argmax(spec.intensities[:mid])] / TWO_PI
    hi_peak = spec.detunings[mid + np.argmax(spec.intensities[mid:])] / TWO_PI
    assert lo_peak == pytest.approx(-30.0, abs=0.1)
    assert hi_peak == pytest.approx(30.0, abs=0.1)


def test_pl_peak_separation_equals_polariton_splitting():
    p = CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 4.0, TWO_PI * 1.0)
    grid = TWO_PI * np.linspace(-60.0, 60.0, 12001)
    spec = pl_spectrum(p, grid)
    mid = len(grid) // 2
    lo_peak = spec.detunings[np.argmax(spec.intensities[:mid])]
    hi_peak = spec.detunings[mid + np.argmax(spec.intensities[mid:])]
    assert (hi_peak - lo_peak) / TWO_PI == pytest.approx(
        vacuum_rabi_splitting(p), rel=5e-3)


def test_pl_sweep_minimum_separation_on_resonance():
    kappa, gamma, g = TWO_PI * 8.0, TWO_PI * 1.0, TWO_PI * 20.0
    seps = []
    detunings = TWO_PI * np.linspace(-30.0, 30.0, 121)
    for wd in detunings:
        lo, hi = polariton_modes(CqedParams(0.0, wd, g, kappa, gamma))
        seps.append(hi.real - lo.real)
    assert abs(detunings[int(np.argmin(seps))]) <= TWO_PI * 0.5 + 1e-12


# -- regime and bandwidth ----------------------------------------------------

def test_coupling_regime_classification():
    onset = CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1)
    assert coupling_regime(onset) is CouplingRegime.ONSET
    weak = CqedParams(0.0, 0.0, TWO_PI * 15.0, TWO_PI * 40.0, TWO_PI * 0.1)
    assert coupling_regime(weak) is CouplingRegime.WEAK
    strong = CqedParams(0.0, 0.0, TWO_PI * 40.0, TWO_PI * 10.0, TWO_PI * 0.1)
    assert coupling_regime(strong) is CouplingRegime.STRONG


def test_max_bandwidth_values():
    onset = CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1)
    assert max_bandwidth(onset) == pytest.approx(40.0, rel=1e-12)
    assert weak_coupling_bandwidth(onset) == pytest.approx(20.0, rel=1e-12)
    weak = CqedParams(0.0, 0.0, TWO_PI * 15.0, TWO_PI * 40.0, TWO_PI * 0.1)
    assert max_bandwidth(weak) == pytest.approx(15.0 ** 2 * 2.0 / 40.0, rel=1e-12)


def test_bandwidth_vanishes_with_coupling():
    p = CqedParams(0.0, 0.0, 0.0, TWO_PI * 40.0, TWO_PI * 0.1)
    assert coupling_regime(p) is CouplingRegime.WEAK
    assert max_bandwidth(p) == 0.0


# -- coupling vs bias --------------------------------------------------------

def test_g_of_voltage_interpolation_and_clamping():
    anchors = [(0.0, 20.0), (7.0, 15.0)]
    assert g_of_voltage(anchors, 0.0) == 20.0
    assert g_of_voltage(anchors, 3.5) == pytest.approx(17.5, rel=1e-12)
    assert g_of_voltage(anchors, 10.0) == 15.0
    assert g_of_voltage(anchors, -1.0) == 20.0


def test_g_of_voltage_needs_two_anchors():
    with pytest.raises(DomainError):
        g_of_voltage([(0.0, 20.0)], 1.0)
    with pytest.raises(DomainError):
        g_of_voltage([(7.0, 15.0), (0.0, 20.0)], 1.0)


def test_cqed_params_validation():
    with pytest.raises(DomainError):
        CqedParams(0.0, 0.0, -1.0, TWO_PI * 40.0, TWO_PI * 0.1)
    with pytest.raises(DomainError):
        CqedParams(0.0, 0.0, TWO_PI * 20.0, 0.0, TWO_PI * 0.1)
    with pytest.raises(DomainError):
        CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1,
                   amplitude=0.0)
    with pytest.raises(DomainError):
        CqedParams(0.0, 0.0, TWO_PI * 20.0, TWO_PI * 40.0, TWO_PI * 0.1,
                   background=-0.1)
