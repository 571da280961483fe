import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdswitch.switching as switching
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
    g_of_voltage,
    on_off_ratio,
    rc_response,
    reflectivity_at,
    simulate_switching,
    switching_energy,
    voltage_to_detuning,
)
from qdswitch.cqed import reflectivity_model

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


@st.composite
def switching_inputs(draw):
    """A drive, screening, probe frequency and optional coupling anchors."""
    v_low = draw(st.floats(0.0, 6.0))
    drive = DriveSpec(v_low, v_low + draw(st.floats(0.0, 10.0)), draw(st.floats(1.0, 300.0)),
                      duty=draw(st.floats(0.1, 0.9)),
                      rc_cutoff_mhz=draw(st.floats(20.0, 300.0)),
                      cycles=draw(st.integers(3, 12)),
                      samples_per_cycle=draw(st.integers(64, 512)))
    probe = draw(st.none() | st.floats(-TWO_PI * 100.0, TWO_PI * 100.0))
    g = st.floats(0.0, TWO_PI * 30.0)
    anchors = draw(st.none() | st.builds(lambda g0, g1: [(0.0, g0), (7.0, g1)], g, g))
    return drive, draw(st.floats(0.01, 1.0)), probe, anchors


def settled_cycle_model(drive, elec, stark, cqed, screening, probe, anchors):
    """Oracle: the model on the last cycle of an rc_response from v_low run
    until the transient has decayed, exp(-cycles period / tau) < 1e-15."""
    cycles = math.ceil(15.0 * math.log(10.0) * drive.tau_ns / drive.period_ns) + 1
    line = rc_response(replace(drive, cycles=max(cycles, 3))).values
    volts = line[-drive.samples_per_cycle:]
    detune = voltage_to_detuning(elec, stark, volts, screening=screening)
    g = None if anchors is None else g_of_voltage(anchors, volts)
    return reflectivity_model(cqed, cqed.dot_freq if probe is None else probe,
                              dot_freq=cqed.dot_freq + detune, coupling=g)


# The device fixtures are frozen dataclasses, so sharing them across
# examples is safe.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=switching_inputs())
# Slow lines, whose truncated transient used to stay in the trace, and long cycles.
@example(inputs=(DriveSpec(0.0, 12.0, 47.3, rc_cutoff_mhz=3.0, cycles=31,
                           samples_per_cycle=777), 0.2, None, None))
@example(inputs=(DriveSpec(1.0, 9.0, 150.0, duty=0.31, cycles=10, samples_per_cycle=3001),
                 0.2, TWO_PI * 0.5, [(0.0, TWO_PI * 20.0), (7.0, TWO_PI * 15.0)]))
@example(inputs=(DriveSpec(0.0, 14.0, 5.0, duty=0.31, rc_cutoff_mhz=3.0, cycles=3,
                           samples_per_cycle=9000), 0.2, None, None))
def test_switching_trace_repeats_the_settled_cycle(device_elec, device_stark, device_cqed,
                                                   inputs):
    drive, screening, probe, anchors = inputs
    trace = simulate_switching(drive, device_elec, device_stark, device_cqed,
                               screening=screening, probe_freq=probe, g_anchors=anchors)

    skip = math.ceil(drive.cycles / 3)
    spc = drive.samples_per_cycle
    assert trace.times.tobytes() == rc_response(drive).times[skip * spc:].tobytes()
    cycles = trace.values.reshape(drive.cycles - skip, spc)
    assert all(row.tobytes() == cycles[0].tobytes() for row in cycles)
    oracle = settled_cycle_model(drive, device_elec, device_stark, device_cqed, screening,
                                 probe, anchors)
    # The oracle's line still carries ~1e-15 of transient and its own rounding;
    # the widest gap seen over 300 draws was 6.4e-14 relative.
    np.testing.assert_allclose(cycles[0], oracle, rtol=1e-11, atol=0.0)


def test_switching_model_sees_one_cycle(monkeypatch, device_elec, device_stark, device_cqed):
    sizes = {}

    def count_samples(name, position=None):
        fn = getattr(switching, name)

        def wrapper(*args, **kwargs):
            arg = kwargs["dot_freq"] if position is None else args[position]
            sizes[name] = sizes.get(name, ()) + (np.size(arg),)
            return fn(*args, **kwargs)
        monkeypatch.setattr(switching, name, wrapper)

    count_samples("voltage_to_detuning", 2)
    count_samples("g_of_voltage", 1)
    count_samples("reflectivity_model")
    drive = DriveSpec(0.0, 10.0, 80.0, cycles=10, samples_per_cycle=300)
    trace = simulate_switching(drive, device_elec, device_stark, device_cqed,
                               screening=0.2, g_anchors=[(0.0, TWO_PI * 20.0),
                                                         (7.0, TWO_PI * 15.0)])
    assert sizes == {"voltage_to_detuning": (300,), "g_of_voltage": (300,),
                     "reflectivity_model": (300,)}
    assert trace.values.size == (10 - math.ceil(10 / 3)) * 300


def test_switching_peak_memory_scales_with_the_retained_trace(device_elec, device_stark,
                                                              device_cqed):
    # 30 cycles x 4096 samples, the long-trace benchmark size.  The model runs
    # on one cycle (about 1.2x); running it over every cycle, transient
    # included, pushes the peak past 7.9x.
    drive = DriveSpec(0.0, 10.0, 12.5, cycles=30, samples_per_cycle=4096)
    simulate_switching(drive, device_elec, device_stark, device_cqed, screening=0.2)
    tracemalloc.start()
    try:
        trace = simulate_switching(drive, device_elec, device_stark, device_cqed,
                                   screening=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * (trace.times.nbytes + trace.values.nbytes)


def test_switching_peak_memory_is_within_twice_the_returned_trace(device_elec, device_stark,
                                                                 device_cqed):
    # The long-trace benchmark size.  Running the model over the retained
    # window instead of one tiled cycle peaks at about 5.3x.
    drive = DriveSpec(0.0, 10.0, 12.5, cycles=30, samples_per_cycle=4096)
    simulate_switching(drive, device_elec, device_stark, device_cqed, screening=0.2)
    tracemalloc.start()
    try:
        trace = simulate_switching(drive, device_elec, device_stark, device_cqed,
                                   screening=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (trace.times.nbytes + trace.values.nbytes)


def test_on_off_ratio_constant_trace():
    trace = TimeTrace(np.linspace(0.0, 1.0, 64), np.full(64, 0.7))
    assert on_off_ratio(trace) == 1.0


def test_on_off_ratio_rejects_an_infinite_ratio():
    with pytest.raises(DegenerateTraceError, match="^on/off ratio must be finite, got inf$"):
        on_off_ratio(TimeTrace([0.0, 1.0], [1e-320, 1.0]))


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["active_volume_um3", "field_v_per_um",
                                   "relative_permittivity"])
def test_energy_budget_rejects_a_non_finite_field_by_name(field, bad):
    values = {"active_volume_um3": 0.2, "field_v_per_um": 5.0, "relative_permittivity": 12.9}
    with pytest.raises(DomainError, match="finite") as info:
        EnergyBudget(**{**values, field: bad})
    assert info.value.field == field


@pytest.mark.parametrize("field, bad", [("active_volume_um3", 0.0),
                                        ("field_v_per_um", -1.0),
                                        ("relative_permittivity", 0.0)])
def test_energy_budget_names_a_field_out_of_bounds(field, bad):
    values = {"active_volume_um3": 0.2, "field_v_per_um": 5.0, "relative_permittivity": 12.9}
    with pytest.raises(DomainError) as info:
        EnergyBudget(**{**values, field: bad})
    assert info.value.field == field


def test_time_trace_validation():
    with pytest.raises(DomainError):
        TimeTrace(np.array([0.0, 1.0, 1.5]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        TimeTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_time_trace_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match="finite"):
        TimeTrace(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 1.0]))


def test_time_trace_rejects_an_overflowing_step_without_a_warning():
    # The first step, 1e308 - -1e308, overflows; the suite turns a numpy
    # RuntimeWarning into an error, so only the DomainError may come out.
    with pytest.raises(DomainError, match=r"^times must be uniformly sampled, got 1e\+308$"):
        TimeTrace([-1e308, 1e308], [1.0, 1.0])
