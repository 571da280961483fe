import math

import numpy as np
import pytest

from qdswitch import (
    AdiabaticityWarning,
    DegenerateTraceError,
    DomainError,
    DriveSpec,
    EnergyBudget,
    TimeTrace,
    dc_contrast,
    drive_samples,
    fit_contrast,
    on_off_ratio,
    rc_response,
    reflectivity_at,
    simulate_switching,
    switching_energy,
)

TWO_PI = 2.0 * math.pi


def fundamental_attenuation(freq_mhz, fc_mhz=100.0, cycles=12, spc=512):
    """Measured fundamental-harmonic ratio output/input of the RC stage."""
    d = DriveSpec(0.0, 10.0, freq_mhz, rc_cutoff_mhz=fc_mhz, cycles=cycles,
                  samples_per_cycle=spc)
    _, u = drive_samples(d)
    y = rc_response(d).values
    skip = (cycles // 2) * spc
    uu, yy = u[skip:], y[skip:]
    k = len(uu) // spc
    return abs(np.fft.rfft(yy)[k]) / abs(np.fft.rfft(uu)[k])


@pytest.fixture
def calibrated(device_elec, device_stark, device_cqed):
    result = fit_contrast([(10.0, 1.5), (14.0, 2.0)], device_elec, device_stark,
                          device_cqed)
    from dataclasses import replace
    cqed = replace(device_cqed, dot_decay=result.parameters["dot_decay"])
    return cqed, result.parameters["screening"]


# -- RC line -----------------------------------------------------------------

def test_rc_attenuation_at_cutoff():
    measured = fundamental_attenuation(100.0)
    assert abs(measured - 1.0 / math.sqrt(2.0)) / (1.0 / math.sqrt(2.0)) < 0.01


def test_rc_attenuation_above_cutoff():
    measured = fundamental_attenuation(150.0)
    assert abs(measured - 0.5547) / 0.5547 < 0.01


@pytest.mark.parametrize("freq", [30.0, 80.0, 150.0, 250.0])
def test_rc_attenuation_matches_first_order_model(freq):
    analytic = 1.0 / math.sqrt(1.0 + (freq / 100.0) ** 2)
    assert abs(fundamental_attenuation(freq) - analytic) / analytic < 0.01


def test_rc_slow_drive_recovers_square_swing():
    d = DriveSpec(0.0, 10.0, 1.0, rc_cutoff_mhz=100.0)
    y = rc_response(d).values
    retained = y[3 * d.samples_per_cycle:]
    assert retained.max() - retained.min() >= 0.99 * 10.0


def test_rc_step_response_matches_analytic():
    # first half-cycle of a very slow drive is a clean step from 0
    d = DriveSpec(0.0, 10.0, 0.5, rc_cutoff_mhz=100.0, samples_per_cycle=2048)
    trace = rc_response(d)
    half = d.samples_per_cycle // 2
    analytic = 10.0 * (1.0 - np.exp(-trace.times[:half] / d.tau_ns))
    max_err = np.max(np.abs(trace.values[:half] - analytic))
    assert max_err < 1e-4 * 10.0


def zoh_reference(drive):
    """Sample-by-sample exact solution: within each constant-drive segment
    the line relaxes as U + (y0 - U) exp(-(t - t0)/tau)."""
    _, u = drive_samples(drive)
    dt = drive.period_ns / drive.samples_per_cycle
    out = [drive.v_low]
    start, y0 = 0, drive.v_low
    for i in range(1, len(u)):
        if u[i - 1] != u[start]:
            start, y0 = i - 1, out[i - 1]
        level = float(u[start])
        out.append(level + (y0 - level) * math.exp(-((i - start) * dt) / drive.tau_ns))
    return np.array(out)


@pytest.mark.parametrize("drive", [
    DriveSpec(0.0, 10.0, 150.0),
    DriveSpec(0.0, 12.0, 10.0, cycles=3, samples_per_cycle=4096),
    DriveSpec(1.0, 9.0, 250.0, duty=0.3, rc_cutoff_mhz=40.0, cycles=5),
])
def test_rc_matches_per_segment_exponential(drive):
    values = rc_response(drive).values
    assert np.max(np.abs(values - zoh_reference(drive))) <= 1e-12


def test_rc_starts_from_low_rail():
    d = DriveSpec(1.0, 9.0, 50.0)
    assert rc_response(d).values[0] == 1.0


def test_drive_spec_validation():
    with pytest.raises(DomainError):
        DriveSpec(5.0, 1.0, 100.0)
    with pytest.raises(DomainError):
        DriveSpec(-1.0, 1.0, 100.0)
    with pytest.raises(DomainError):
        DriveSpec(0.0, 10.0, 0.0)
    with pytest.raises(DomainError):
        DriveSpec(0.0, 10.0, 100.0, duty=1.0)
    with pytest.raises(DomainError):
        DriveSpec(0.0, 10.0, 100.0, rc_cutoff_mhz=0.0)
    with pytest.raises(DomainError):
        DriveSpec(0.0, 10.0, 100.0, cycles=2)
    with pytest.raises(DomainError):
        DriveSpec(0.0, 10.0, 100.0, samples_per_cycle=32)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, field", [
    ("v_low", "v_low"), ("v_high", "v_high"),
    ("drive_frequency", "frequency_mhz"), ("rc_cutoff", "rc_cutoff_mhz"),
])
def test_drive_spec_rejects_non_finite_values(name, field, bad):
    kwargs = {"v_low": 0.0, "v_high": 10.0, "frequency_mhz": 100.0, "rc_cutoff_mhz": 100.0}
    kwargs[field] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        DriveSpec(**kwargs)


# -- quasi-static switching ---------------------------------------------------

def test_constant_drive_gives_dc_spectrum_point(device_elec, device_stark, device_cqed):
    drive = DriveSpec(6.0, 6.0, 50.0)
    trace = simulate_switching(drive, device_elec, device_stark, device_cqed,
                               screening=0.2)
    from qdswitch import voltage_to_detuning
    from dataclasses import replace
    detune = voltage_to_detuning(device_elec, device_stark, 6.0, screening=0.2)
    expected = reflectivity_at(replace(device_cqed, dot_freq=detune),
                               device_cqed.dot_freq)
    assert np.ptp(trace.values) < 1e-12
    assert trace.values[0] == pytest.approx(expected, rel=1e-9)


def test_calibrated_dc_ratios(device_elec, device_stark, calibrated):
    cqed, s = calibrated
    assert dc_contrast(device_elec, device_stark, cqed, 10.0, screening=s) \
        == pytest.approx(1.5, abs=0.01)
    assert dc_contrast(device_elec, device_stark, cqed, 14.0, screening=s) \
        == pytest.approx(2.0, abs=0.01)


def test_modulated_ratios_track_measured_values(device_elec, device_stark, calibrated):
    cqed, s = calibrated
    ratios = {}
    for mhz in (80.0, 150.0):
        trace = simulate_switching(DriveSpec(0.0, 10.0, mhz), device_elec,
                                   device_stark, cqed, screening=s)
        ratios[mhz] = on_off_ratio(trace)
    assert 1.35 <= ratios[80.0] <= 1.5
    assert 1.2 <= ratios[150.0] <= 1.4
    assert ratios[150.0] < ratios[80.0]


def test_ratio_non_increasing_with_drive_frequency(device_elec, device_stark, calibrated):
    cqed, s = calibrated
    freqs = np.linspace(10.0, 300.0, 15)
    ratios = []
    for mhz in freqs:
        trace = simulate_switching(
            DriveSpec(0.0, 10.0, mhz, cycles=30), device_elec, device_stark,
            cqed, screening=s)
        ratios.append(on_off_ratio(trace))
    diffs = np.diff(ratios)
    assert np.all(diffs <= 1e-9)


def test_trace_periodicity_after_transient(device_elec, device_stark, calibrated):
    cqed, s = calibrated
    drive = DriveSpec(0.0, 10.0, 150.0)
    trace = simulate_switching(drive, device_elec, device_stark, cqed, screening=s)
    spc = drive.samples_per_cycle
    cycles = len(trace.values) // spc
    stacked = trace.values[:cycles * spc].reshape(cycles, spc)
    deviation = np.max(np.abs(stacked - stacked[0]))
    assert deviation < 1e-6 * float(np.mean(trace.values))


def test_optional_coupling_anchors_change_the_trace(device_elec, device_stark, calibrated):
    cqed, s = calibrated
    drive = DriveSpec(0.0, 10.0, 80.0)
    fixed = simulate_switching(drive, device_elec, device_stark, cqed, screening=s)
    varied = simulate_switching(
        drive, device_elec, device_stark, cqed, screening=s,
        g_anchors=[(0.0, TWO_PI * 20.0), (7.0, TWO_PI * 15.0)])
    assert on_off_ratio(varied) != pytest.approx(on_off_ratio(fixed), rel=1e-6)


def test_adiabaticity_warning(device_elec, device_stark, device_cqed):
    with pytest.warns(AdiabaticityWarning):
        simulate_switching(DriveSpec(0.0, 10.0, 5000.0), device_elec,
                           device_stark, device_cqed)


def test_on_off_ratio_constant_trace():
    trace = TimeTrace(np.linspace(0.0, 1.0, 64), np.full(64, 0.7))
    assert on_off_ratio(trace) == 1.0


def test_on_off_ratio_rejects_zero_floor():
    values = np.linspace(0.0, 1.0, 64)
    trace = TimeTrace(np.linspace(0.0, 1.0, 64), values)
    with pytest.raises(DegenerateTraceError):
        on_off_ratio(trace)


# -- switching energy ----------------------------------------------------------

def test_switching_energy_zero_field():
    assert switching_energy(EnergyBudget(0.2, 0.0, 12.9)) == 0.0


def test_switching_energy_reference_point():
    energy = switching_energy(EnergyBudget(0.2, 5.0, 12.9))
    assert energy == pytest.approx(0.2855, rel=1e-3)
    # order of magnitude of the quoted ~1 fJ
    assert 0.1 <= energy <= 10.0


def test_switching_energy_scalings():
    base = switching_energy(EnergyBudget(0.2, 5.0, 12.9))
    assert switching_energy(EnergyBudget(0.2, 10.0, 12.9)) \
        == pytest.approx(4.0 * base, rel=1e-12)
    assert switching_energy(EnergyBudget(0.4, 5.0, 12.9)) \
        == pytest.approx(2.0 * base, rel=1e-12)


def test_time_trace_validation():
    with pytest.raises(DomainError):
        TimeTrace(np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        TimeTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_time_trace_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match="finite"):
        TimeTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 1.0]))
