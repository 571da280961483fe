"""The float-text kernel writes repr(float(v)) byte for byte.

The write_csv property tests draw magnitudes from 1e-320 to 1e300, so
few of their values reach the kernel's domain, 1e-4 <= |v| < 2**52.
These tests draw inside it, and at its edges.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdswitch import DriveSpec, drive_samples
from qdswitch.floattext import TEXT_BYTES, float_text

DOMAIN = (1e-4, 2.0 ** 52)


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    text = float_text(values)
    assert text.shape == (values.size, TEXT_BYTES)
    got = [bytes(row).replace(b"\0", b"").decode() for row in text]
    assert got == [repr(v) for v in values.tolist()]


def neighbours(values, ulps=3):
    """values and the floats up to ulps steps either side of each."""
    out = [np.asarray(values, dtype=np.float64)]
    up = down = out[0]
    for _ in range(ulps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [up, down]
    return np.concatenate(out)


def in_domain(values):
    values = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    return values[(magnitude >= DOMAIN[0]) & (magnitude < DOMAIN[1])]


@st.composite
def domain_floats(draw):
    """Arrays of random bit patterns with 1e-4 <= |v| < 2**52."""
    size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = rng.integers(0, 2, size).astype(np.uint64) << np.uint64(63)
    exponent = rng.integers(1023 - 14, 1023 + 52, size).astype(np.uint64) << np.uint64(52)
    fraction = rng.integers(0, 2 ** 52, size, dtype=np.int64).astype(np.uint64)
    values = (sign | exponent | fraction).view(np.float64)
    return in_domain(values)


@settings(max_examples=200, deadline=None)
@given(values=domain_floats())
def test_random_bit_patterns_in_the_domain_match_repr(values):
    assert_matches_repr(values)


@settings(max_examples=50, deadline=None)
@given(mhz=st.floats(0.5, 500.0), samples_per_cycle=st.integers(64, 8192),
       cycles=st.integers(3, 6))
def test_time_axes_match_repr(mhz, samples_per_cycle, cycles):
    # k * (P / samples_per_cycle), as the switch trace writes it.
    drive = DriveSpec(0.0, 10.0, mhz, cycles=cycles, samples_per_cycle=samples_per_cycle)
    assert_matches_repr(drive_samples(drive)[0])


def test_every_binade_edge_and_its_neighbours_match_repr():
    edges = np.ldexp(1.0, np.arange(-15, 54))
    values = neighbours(np.concatenate([edges, -edges]))
    assert_matches_repr(values)
    assert in_domain(values).size > 0.9 * values.size


def test_neighbours_of_powers_of_ten_match_repr():
    powers = np.array([float(f"1e{k}") for k in range(-5, 17)])
    assert_matches_repr(neighbours(np.concatenate([powers, -powers]), ulps=8))


@pytest.mark.parametrize("binade", [51, 50, -1, -14])
def test_even_and_odd_mantissas_match_repr(binade):
    # Whether a rounding interval's end counts depends on m's parity.  Only
    # for 2**51 <= v < 2**52 do the ends, v -+ 1/4, fall on whole units of
    # the scaled grid, and then on odd ones; both parities must read as repr.
    start = np.ldexp(1.0, binade)
    values = start + np.arange(2000) * np.spacing(start)
    assert {0, 1} <= set((values.view(np.int64) & 1).tolist())
    assert_matches_repr(np.concatenate([values, -values]))


def test_values_at_the_domain_edges_match_repr():
    values = neighbours(np.array([1e-4, 2.0 ** 52, -1e-4, -(2.0 ** 52)]), ulps=4)
    assert in_domain(values).size == values.size // 2
    assert_matches_repr(values)


def test_values_outside_the_domain_keep_repr():
    assert_matches_repr([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.999999999999999e-05,
                         4503599627370496.0, 1e16, -1.7976931348623157e+308,
                         math.inf, -math.inf, math.nan])


def test_short_decimals_and_mixed_rows_match_repr():
    rng = np.random.default_rng(21)
    scale = 10.0 ** rng.integers(0, 12, 20000)
    short = np.round(rng.uniform(-1e4, 1e4, 20000) * scale) / scale
    dyadic = rng.integers(1, 10 ** 6, 20000) / 2.0 ** rng.integers(0, 20, 20000)
    mixed = np.concatenate([short, dyadic, [0.0, math.nan, 1e-300, 1e300]])
    assert_matches_repr(rng.permutation(mixed))
