"""Exact rational arithmetic helpers.

The derandomization code compares conditional expectations exactly, so
everything here is exact: fractions.Fraction or plain integers, never
floats.  Even ln is bounded in integer arithmetic with a proven error
bound (`rat_ln_upper`), so no result depends on the platform's libm or
on a third-party library.  HAVE_GMPY2 only reports whether gmpy2 is
importable; no code path depends on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    import gmpy2  # type: ignore[import-untyped]  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    HAVE_GMPY2 = False


SAMPLING_BITS = 16  # binary digits of the sampling probability's denominator
LN_BITS = 24  # binary digits of rat_ln_upper's accuracy


def _pow_le(a: int, k: int, n: int, shift: int) -> bool:
    """a**k <= n << shift, for a, k, n >= 1.  Decided on a bracket of a**k
    from fixed-point powering, rounded down and up to 64 + 2 bitlen(k)
    bits; the exact power is built only when the bracket straddles."""
    prec, lo, hi, e = 64 + 2 * k.bit_length(), 1, 1, 0  # lo * 2**e <= a**j <= hi * 2**e
    for bit in bin(k)[2:]:  # j: the leading bits of k read so far
        f = a if bit == "1" else 1
        lo, hi, e = lo * lo * f, hi * hi * f, 2 * e
        if (cut := hi.bit_length() - prec) > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut

    def le(m: int) -> bool:  # m * 2**e <= n << shift, decided by bit lengths unless they tie
        d = e - shift
        if gap := m.bit_length() + d - n.bit_length():
            return gap < 0
        return m << d <= n if d >= 0 else m <= n << -d

    return le(hi) or (le(lo) and a**k <= n << shift)


def sampling_probability(n: int, k: int) -> Fraction:
    """Dyadic rational approximation of n ** (-1/k).

    The sampling probability has to be an exact rational so that coin
    comparisons and conditional expectations are exact.  Returns
    2**b / floor(n**(1/k) * 2**b) with b = SAMPLING_BITS, which is within
    2**-b of the real value and exact whenever n is a perfect k-th power.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1, k >= 1")
    bits, size = SAMPLING_BITS, n.bit_length()
    # (1 + 2**-b) ** (2**b) >= 2, so k >> b >= size gives (2**b + 1) ** k > n * 2**(b k): p = 1
    if n == 1 or k >> bits >= size:
        return Fraction(1)
    # the largest r with r**k <= n << s, s = b k; p = 1 when r = 2**b, which
    # one comparison decides; else lo**k <= n << s < hi**k, with r < 2**(b + ceil(size / k)),
    # and a float guess narrows the bracket once each end is checked by `_pow_le`
    s, lo, hi = k * bits, (1 << bits) + 1, 1 << (bits - (-size // k))
    if not _pow_le(lo, k, n, s):
        return Fraction(1)
    if size < 1000:  # n ** (1 / k) * 2**b is within float range
        guess = int(math.ldexp(n ** (1 / k), bits))  # r, bar float error
        lo = guess - 1 if lo < guess - 1 and _pow_le(guess - 1, k, n, s) else lo
        hi = guess + 2 if guess + 2 < hi and not _pow_le(guess + 2, k, n, s) else hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _pow_le(mid, k, n, s) else (lo, mid)
    return Fraction(1 << bits, lo)


def _atanh_fixed(a: int, b: int, prec: int) -> tuple[int, int]:
    """(s, err) with s <= atanh(a/b) * 2**prec <= s + err, for 0 <= a/b <= 1/3.

    The power t**(2k+1) * 2**prec is carried rounded down, each step off
    by less than 1 + t**2 * (the last error) < 9/8; the term's floor adds
    less than 1 more.  Summing stops at the first zero power, which
    bounds the tail by (9/8) / (1 - t**2) < 2.
    """
    c, d = a * a, b * b
    pw, s, k = (a << prec) // b, 0, 0
    while pw:
        s += pw // (2 * k + 1)
        pw, k = pw * c // d, k + 1
    return s, 3 * k + 2


def rat_ln_upper(x) -> Fraction:
    """ceil(ln(x) * 2**LN_BITS) / 2**LN_BITS for a rational x > 0.

    With x = 2**e * m, m in [1, 2),
    ln x = 2 e atanh(1/3) + 2 atanh((m-1)/(m+1)), both summed in integers
    with `prec` fractional bits and an error bound; `prec` doubles from 64
    until the bracket's ends share their ceil.  That ends for every
    x != 1: ln x is then irrational (Lindemann), so never on the
    2**-LN_BITS grid.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln of nonpositive value")
    if x == 1:
        return Fraction(0)
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()  # 2**(e-1) < x < 2**(e+1)
    a, b = (a, b << e) if e >= 0 else (a << -e, b)
    if a < b:
        a, e = a << 1, e - 1
    prec = 64
    while True:
        s2, d2 = _atanh_fixed(1, 3, prec)
        sm, dm = _atanh_fixed(a - b, a + b, prec)
        lo = 2 * (e * (s2 if e >= 0 else s2 + d2) + sm)  # lo <= ln(x) * 2**prec <= hi
        hi = lo + 2 * (abs(e) * d2 + dm)
        shift = prec - LN_BITS
        if -(-lo >> shift) == -(-hi >> shift):
            return Fraction(-(-hi >> shift), 1 << LN_BITS)
        prec *= 2


def log_factor(g: int) -> Fraction:
    """L = max(1, ln g), with ln g as the rat_ln_upper bound; 1 for g <= 1."""
    return max(Fraction(1), rat_ln_upper(g)) if g > 1 else Fraction(1)


def ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()
