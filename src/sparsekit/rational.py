"""Exact rational arithmetic helpers.

The derandomization code compares conditional expectations exactly, so
everything here is exact: fractions.Fraction or plain integers, never
floats.  HAVE_GMPY2 only reports whether gmpy2 is importable; no code
path depends on it.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

try:
    import gmpy2  # type: ignore[import-untyped]  # noqa: F401

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    HAVE_GMPY2 = False


def integer_kth_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integer x and k >= 1."""
    if x < 0 or k < 1:
        raise ValueError("integer_kth_root needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    # Newton iteration on integers; converges fast from a bit-length guess.
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def sampling_probability(n: int, k: int, bits: int = 16) -> Fraction:
    """Dyadic rational approximation of n ** (-1/k).

    The sampling probability has to be an exact rational so that coin
    comparisons and conditional expectations are exact.  Returns
    2**bits / floor(n**(1/k) * 2**bits), which is within 2**-bits of the
    real value and exact whenever n is a perfect k-th power.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1, k >= 1")
    if n == 1:
        return Fraction(1)
    root = integer_kth_root(n << (k * bits), k)
    return Fraction(1 << bits, root)


def rat_ln_upper(x, bits: int = 24) -> Fraction:
    """A rational upper bound on ln(x), accurate to 2**-bits.

    mpmath keeps this reproducible across platforms (no dependence
    on the system libm).
    """
    if x <= 0:
        raise ValueError("ln of nonpositive value")
    with mpmath.workdps(40):
        v = mpmath.ln(mpmath.mpf(x))
        scaled = int(mpmath.ceil(v * (1 << bits)))
    return Fraction(scaled, 1 << bits)


def log_factor(g: int) -> Fraction:
    """L = max(1, ln g), with ln g as the rat_ln_upper bound; 1 for g <= 1."""
    return max(Fraction(1), rat_ln_upper(g)) if g > 1 else Fraction(1)


def ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs x >= 1")
    return (x - 1).bit_length()
