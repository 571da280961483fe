import math

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from qdswitch import (
    DomainError,
    apply_screening,
    depletion_width,
    field_at_cavity,
    onset_voltage,
    stark_shift,
    voltage_to_detuning,
)
from qdswitch.constants import (
    ANGULAR_GHZ_PER_MEV,
    ELEMENTARY_CHARGE_C,
    UM3_PER_CM3,
    VACUUM_PERMITTIVITY_F_UM,
)

TWO_PI = 2.0 * math.pi


def poisson_width_oracle(elec, v_reverse):
    """Depletion width from numerical integration of the 1-D Poisson
    equation (uniform doping, abrupt junction, full depletion): find the
    width whose integrated field drops phi + V."""
    eps = VACUUM_PERMITTIVITY_F_UM * elec.relative_permittivity
    slope = ELEMENTARY_CHARGE_C * (elec.donor_density_cm3 / UM3_PER_CM3) / eps

    def drop(width):
        # z measured from the depletion edge: E(0) = 0, dE/dz = slope,
        # dU/dz = E; U(width) is the total potential drop.
        sol = solve_ivp(lambda z, y: [slope, y[0]], (0.0, width), [0.0, 0.0],
                        rtol=1e-12, atol=1e-16)
        return sol.y[1, -1]

    target = elec.barrier_potential_v + v_reverse
    return brentq(lambda w: drop(w) - target, 1e-4, 50.0, xtol=1e-12, rtol=8.9e-16)


def test_depletion_width_zero_bias(device_elec):
    assert depletion_width(device_elec, 0.0) == pytest.approx(0.2388, rel=1e-3)


def test_depletion_width_ten_volts(device_elec):
    assert depletion_width(device_elec, 10.0) == pytest.approx(1.2811, rel=1e-3)


def test_depletion_width_matches_poisson_oracle(device_elec):
    for v in np.linspace(0.0, 20.0, 11):
        closed = depletion_width(device_elec, v)
        oracle = poisson_width_oracle(device_elec, v)
        assert abs(closed - oracle) / oracle < 1e-6


def test_depletion_width_rejects_forward_bias(device_elec):
    with pytest.raises(DomainError):
        depletion_width(device_elec, -0.1)


def test_depletion_width_monotone_and_concave(device_elec):
    v = np.linspace(0.0, 20.0, 201)
    x = np.array([depletion_width(device_elec, vi) for vi in v])
    assert np.all(np.diff(x) > 0.0)
    assert np.all(np.diff(x, 2) < 0.0)


def test_onset_voltage_matches_observed_range(device_elec):
    v_on = onset_voltage(device_elec)
    assert 3.0 <= v_on <= 4.5
    assert depletion_width(device_elec, v_on) == pytest.approx(
        device_elec.electrode_distance_um, rel=1e-12)


def test_field_zero_before_depletion_reaches_dot(device_elec):
    assert field_at_cavity(device_elec, 2.0) == 0.0


def test_field_values_above_onset(device_elec):
    assert field_at_cavity(device_elec, 7.0) == pytest.approx(4.1637, rel=1e-3)
    # same order as the 5e4 V/cm design scale
    assert field_at_cavity(device_elec, 10.0) == pytest.approx(6.7050, rel=1e-3)


def test_field_continuous_at_onset(device_elec):
    v_on = onset_voltage(device_elec)
    assert field_at_cavity(device_elec, v_on) == pytest.approx(0.0, abs=1e-12)
    assert field_at_cavity(device_elec, v_on + 1e-9) < 1e-6


def test_field_non_decreasing_and_linear_in_width(device_elec):
    v = np.linspace(0.0, 20.0, 300)
    f = np.array([field_at_cavity(device_elec, vi) for vi in v])
    assert np.all(np.diff(f) >= 0.0)
    # above onset, F is affine in x_d: second differences in x_d vanish
    x = np.array([depletion_width(device_elec, vi) for vi in v])
    above = x > device_elec.electrode_distance_um * 1.001
    slope = np.diff(f[above]) / np.diff(x[above])
    assert np.ptp(slope) < 1e-9 * np.max(slope)


def test_stark_shift_zero_field_is_exactly_zero(device_stark):
    assert stark_shift(device_stark, 0.0) == 0.0


def test_stark_shift_reproduces_reported_magnitudes(device_elec, device_stark):
    shift_7v = stark_shift(device_stark, -field_at_cavity(device_elec, 7.0))
    assert shift_7v == pytest.approx(0.2975, rel=1e-3)
    assert 0.25 <= abs(shift_7v) <= 0.35
    shift_10v = stark_shift(device_stark, -field_at_cavity(device_elec, 10.0))
    assert shift_10v == pytest.approx(0.7347, rel=1e-3)


def test_screening_limits():
    assert apply_screening(0.30, 1.0) == 0.30
    assert apply_screening(0.30, 0.0) == 0.0


def test_screening_ratio_matches_cw_scale_shift():
    # 0.04 meV observed against 0.30 meV unscreened
    s = 0.04 / 0.30
    assert apply_screening(0.30, s) == pytest.approx(0.04, rel=1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_screening_out_of_range(bad):
    with pytest.raises(DomainError):
        apply_screening(0.3, bad)


def test_detuning_zero_below_onset(device_elec, device_stark):
    assert voltage_to_detuning(device_elec, device_stark, 1.0) == 0.0


def test_detuning_conversion_against_independent_constants(device_elec, device_stark):
    # oracle: E / h from scipy's constant table, per meV, in GHz
    ghz_per_mev = 1e-3 * scipy.constants.e / scipy.constants.h / 1e9
    assert ghz_per_mev * 0.3 == pytest.approx(72.54, rel=1e-3)
    assert ghz_per_mev * 0.04 == pytest.approx(9.672, rel=1e-3)

    shift = stark_shift(device_stark, -field_at_cavity(device_elec, 7.0))
    expected = TWO_PI * ghz_per_mev * shift
    got = voltage_to_detuning(device_elec, device_stark, 7.0)
    assert got == pytest.approx(expected, rel=1e-9)


def test_detuning_scales_with_screening(device_elec, device_stark):
    full = voltage_to_detuning(device_elec, device_stark, 8.0)
    assert voltage_to_detuning(device_elec, device_stark, 8.0, screening=0.25) \
        == pytest.approx(0.25 * full, rel=1e-12)


def test_field_sign_toggle_changes_linear_term(device_elec, device_stark):
    plus = voltage_to_detuning(device_elec, device_stark, 7.0, field_sign=1.0)
    minus = voltage_to_detuning(device_elec, device_stark, 7.0, field_sign=-1.0)
    assert plus != minus
    # quadratic part is even: difference is twice the dipole term
    field = field_at_cavity(device_elec, 7.0)
    dipole_part = device_stark.dipole_mev_um_per_v * field
    assert (minus - plus) / TWO_PI == pytest.approx(
        -2.0 * dipole_part * 241.799, rel=1e-4)


def test_invalid_electrostatic_params():
    from qdswitch import ElectrostaticParams
    with pytest.raises(DomainError, match="donor_density"):
        ElectrostaticParams(-1.0, 0.36, 12.9, 0.75)
    with pytest.raises(DomainError, match="barrier_potential"):
        ElectrostaticParams(9e15, 0.0, 12.9, 0.75)
    with pytest.raises(DomainError, match="relative_permittivity"):
        ElectrostaticParams(9e15, 0.36, 0.5, 0.75)
    with pytest.raises(DomainError, match="electrode_distance"):
        ElectrostaticParams(9e15, 0.36, 12.9, 0.0)


# -- array field map against the per-point scalar map --------------------------

def scalar_width(elec, v):
    eps = VACUUM_PERMITTIVITY_F_UM * elec.relative_permittivity
    nd_um3 = elec.donor_density_cm3 / UM3_PER_CM3
    return math.sqrt(2.0 * eps * (elec.barrier_potential_v + v) / (ELEMENTARY_CHARGE_C * nd_um3))


def scalar_field(elec, v):
    x_d = scalar_width(elec, v)
    if x_d <= elec.electrode_distance_um:
        return 0.0
    eps = VACUUM_PERMITTIVITY_F_UM * elec.relative_permittivity
    nd_um3 = elec.donor_density_cm3 / UM3_PER_CM3
    return ELEMENTARY_CHARGE_C * nd_um3 * (x_d - elec.electrode_distance_um) / eps


def scalar_detuning(elec, coeffs, v, screening, sign):
    field = sign * scalar_field(elec, v)
    shift = (coeffs.dipole_mev_um_per_v * field
             - coeffs.polarizability_mev_um2_per_v2 * field * field)
    return ANGULAR_GHZ_PER_MEV * (screening * shift)


@settings(max_examples=60, deadline=None)
@given(biases=st.lists(st.floats(0.0, 40.0), max_size=40),
       screening=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
def test_array_field_map_equals_scalar_map_bit_for_bit(biases, screening, sign):
    from qdswitch import ElectrostaticParams, StarkCoefficients
    elec = ElectrostaticParams(9e15, 0.36, 12.9, 0.75)
    coeffs = StarkCoefficients(-0.009, -0.015)
    v_on = onset_voltage(elec)
    volts = np.array([0.0, v_on, np.nextafter(v_on, 0.0), np.nextafter(v_on, 99.0), *biases])

    cases = [
        (depletion_width(elec, volts), [scalar_width(elec, v) for v in volts]),
        (field_at_cavity(elec, volts), [scalar_field(elec, v) for v in volts]),
        (voltage_to_detuning(elec, coeffs, volts, screening=screening, field_sign=sign),
         [scalar_detuning(elec, coeffs, v, screening, sign) for v in volts]),
    ]
    for array_result, reference in cases:
        assert array_result.tobytes() == np.array(reference).tobytes()

    for v in volts[:6]:
        got = voltage_to_detuning(elec, coeffs, float(v), screening=screening, field_sign=sign)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(
            scalar_detuning(elec, coeffs, v, screening, sign)).tobytes()


def test_array_field_map_rejects_any_negative_bias(device_elec, device_stark):
    volts = np.array([0.0, 5.0, -1e-9, 7.0])
    for fn in (lambda v: depletion_width(device_elec, v),
               lambda v: field_at_cavity(device_elec, v),
               lambda v: voltage_to_detuning(device_elec, device_stark, v)):
        with pytest.raises(DomainError, match="v_reverse"):
            fn(volts)
