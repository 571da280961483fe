"""repr(float(v)) for a whole float64 array, as zero-padded byte rows.

repr takes, among the decimals that read back as v, one with the fewest
digits, and of those the one nearest to v, ties to an even last digit
(Gay's dtoa, 1990).  _kernel_text finds the same digits for a whole
array with exact integer arithmetic, as Ryu does (Adams, PLDI 2018).  It
writes |v| = m 2**q and scales by 10**J, J = 17 - floor(log10 2**E) for
the binade 2**E <= |v| < 2**(E + 1), so that 1e17 <= |v| 10**J < 2e18.
The ends of v's rounding interval, (4m -+ 2) 5**J / 2**t with
t = 2 - J - q (4m - 1 at a binade's lower edge), become integer bounds,
closed when m is even.  It strips digits while a multiple of 10**(p+1)
still lies inside, and lays out the nearest multiple of 10**p (ties to
even) as repr's positional text.

Its domain is 1e-4 <= |v| < 2**52, where repr writes positional digits
and every integer involved fits in 64 bits; there its bytes equal
repr(float(v)), which the tests check byte for byte.  Every other value
(+-0.0, subnormals, |v| < 1e-4 or >= 2**52, inf, nan) keeps repr's own
text.  Only csvio imports this module, when it writes a float column.
"""

from __future__ import annotations

import numpy as np

# Bytes per formatted float: the longest repr of a float64 has 24
# characters, e.g. '-2.2250738585072014e-308'.
TEXT_BYTES = 24
# The kernel's binades 2**E <= |v| < 2**(E + 1): 2**-14 < 1e-4, v < 2**52.
_BINADES = range(-14, 52)


def float_text(values: np.ndarray) -> np.ndarray:
    """(values.size, 24) uint8 for a 1-D float64 array: row k holds
    repr(float(values[k])) with zero bytes around it."""
    magnitude = np.abs(values)
    inside = (magnitude >= 1e-4) & (magnitude < 2.0 ** 52)
    if inside.all():
        return _kernel_text(values)
    text = np.zeros((values.size, TEXT_BYTES), dtype=np.uint8)
    rows = np.flatnonzero(inside)
    text[rows] = _kernel_text(values[rows])
    rows = np.flatnonzero(~inside)
    text[rows] = np.array(list(map(repr, values[rows].tolist())), dtype=f"S{TEXT_BYTES}"
                          ).view(np.uint8).reshape(rows.size, TEXT_BYTES)
    return text


def _kernel_text(x: np.ndarray) -> np.ndarray:
    """float_text of values with 1e-4 <= |v| < 2**52; layout in _kernel_tables.

    Temporaries are deleted once spent, which keeps a 4096-value call's
    peak near 0.46 MB, its 0.1 MB result included."""
    bits = x.view(np.int64)
    binade = ((bits >> 52) & 0x7FF) - (1023 + _BINADES.start)
    g, p = _shortest(x, binade)
    # S18, the 18 digits of g, as 2 + 8 + 8 digit bytes in three words.
    words = np.empty((3, x.size), dtype=np.int64)
    hi = g // 10 ** 8
    words[0] = hi // 10 ** 8
    words[1] = hi - words[0] * 10 ** 8
    words[2] = g - hi * 10 ** 8
    s = _POINT.take(binade)
    lead = (words[0] >= 10) | (s <= 1)
    offsets = _OFFSETS.take(np.maximum(19 - p, s + 1) + 19 * lead, axis=1)
    del g, p, hi, s, lead
    quads = words // 10 ** 4
    words -= quads * 10 ** 4
    words = _QUADS.take(words)
    words <<= 32
    words |= _QUADS.take(quads)
    del quads
    # ASCII for S18[1 - lead:z]; the other digits are zero bytes.
    words |= offsets
    moved = words & _MOVE.take(binade, axis=1)
    words ^= moved
    words |= moved >> 8
    words[:2] |= moved[1:] << 56
    del moved
    words |= _FORM.take(binade + len(_BINADES) * (bits < 0), axis=1)
    return words.T.astype("<u8", order="C").view(np.uint8)


def _shortest(x: np.ndarray, binade: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, p): the shortest decimal that reads back as |x|, nearest and ties
    to even, is 10 g / 10**J, and its last digit is that of 10**p."""
    fraction = x.view(np.int64) & ((1 << 52) - 1)
    p4, t, p2, rt = _SCALING.take(binade, axis=1)
    # v = |x| 10**J = m p4 / 2**t as integer part vq and remainder vr.  The
    # product modulo 2**64 is exact: it gives vr, and vq modulo 2**(64 - t);
    # the float product, within 2**8 of vq, gives the rest of vq.
    low = (fraction | (1 << 52)).view(np.uint64) * p4.view(np.uint64)
    approx = (np.abs(x) * _TENS.take(binade)).astype(np.int64)
    tu, rtu = t.view(np.uint64), rt.view(np.uint64)
    vq = approx + ((((low >> tu) - approx.view(np.uint64)) << tu).view(np.int64) >> t)
    vr = ((low << rtu) >> rtu).view(np.int64)
    del low, approx, tu, rtu, p4, rt
    # The integers n with a < n <= b read back as x.  The interval's ends,
    # (vq 2**t + vr -+ p2) / 2**t, count when m is even; the lower end is
    # half as far at a binade's lower edge (fraction == 0).
    odd = fraction & 1
    b = vq + ((vr + p2 - odd) >> t)
    a = vq + ((vr - (p2 >> (fraction == 0)) + odd - 1) >> t)
    del fraction, odd, t, p2
    # p: the largest power of ten with a multiple in (a, b].  The interval
    # spans more than 11 units, so b - a >= 10 and p >= 1.
    p = np.ones(x.size, dtype=np.int64)
    hi, lo = b // 100, a // 100
    rows = np.flatnonzero(hi > lo)
    hi, lo = hi[rows], lo[rows]
    while rows.size:
        p[rows] += 1
        hi //= 10
        lo //= 10
        keep = hi > lo
        rows, hi, lo = rows[keep], hi[keep], lo[keep]
    # f <= v < f + w for w = 10**p.  Take f + w if f is outside, or if
    # f + w is inside and nearer, or as near and f / w is odd.
    w = _POW10.take(p)
    digits = vq // w
    f = digits * w
    up = (f <= a) | ((f + w <= b) & (2 * (vq - f) + (vr > 0) + (digits & 1) > w))
    return (f + up * w) // 10, p


def _kernel_tables() -> tuple[np.ndarray, ...]:
    """Per binade E: the kernel's scaling and the words of its layout.

    The decimal exponent k = floor(E log10 2) sets J = 17 - k and
    t = 37 + k - E, in [1, 46].  A text holds S18 in bytes 6..23 and a
    decimal point after S18[s - 1], s = k + 2: for s >= 1, S18[:s] moves
    one byte down to make room for it and the sign goes in byte 4; for
    s <= 0, '0.' and -s zeros go before S18 and the sign before them.
    S18[0] is written only when it is a digit of the text (lead): a 1, the
    integer part '0' (s == 1), or a zero after the point (s <= 0); past
    S18[z - 1], z = max(19 - p, s + 1), every digit is a trailing zero of
    the fraction and is left out.
    """
    binade = np.arange(_BINADES.start, _BINADES.stop)
    k = np.floor(binade * np.log10(2.0)).astype(np.int64)
    exponent, s, shift = 17 - k, k + 2, 37 + k - binade
    power = 5 ** exponent
    byte, point = np.arange(TEXT_BYTES), s[:, None]
    form = np.where(byte == 5 + point, ord("."), 0)
    form[(point <= 0) & (byte >= 4 + point) & (byte < 6) & (byte != 5 + point)] = ord("0")
    signed = form.copy()
    signed[np.arange(s.size), np.minimum(4, 3 + s)] = ord("-")
    lead, z = np.divmod(np.arange(38)[:, None], 19)
    quads = digit = np.arange(10, dtype=np.uint64)
    for place in (8, 16, 24):
        quads = (quads[:, None] | (digit << place)).ravel()

    def words(table):
        return np.ascontiguousarray(table.astype(np.uint8).view("<u8").T)
    return (
        np.array([4 * power, shift, 2 * power, 64 - shift]),      # _SCALING
        s,                                                          # _POINT
        np.ldexp(power.astype(np.float64), exponent),               # _TENS: 10**J
        words(((byte >= 6) & (byte < 6 + point)) * 0xFF),          # _MOVE: S18[:s]
        words(np.concatenate([form, signed])),                      # _FORM: by sign
        # _OFFSETS, indexed by z + 19 * lead: '0' added to S18[1 - lead:z].
        words(((byte >= 7 - lead) & (byte < 6 + z)) * ord("0")),
        quads,                   # _QUADS: the digits of n < 10**4 as 4 bytes
        10 ** np.arange(19, dtype=np.int64),                        # _POW10
    )


_SCALING, _POINT, _TENS, _MOVE, _FORM, _OFFSETS, _QUADS, _POW10 = _kernel_tables()
