"""Exact upper bounds on ln: pins, brackets and argument handling."""

from __future__ import annotations

import hashlib
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from sparsekit.certificates import certificate_large_k
from sparsekit.derand import UtilityContext
from sparsekit.rational import LN_BITS, log_factor, rat_ln_upper

from conftest import connected_gnp


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()


# -- pins, recorded while ln was still evaluated by mpmath at 40 digits ---------------


def test_rat_ln_upper_pinned():
    assert _digest(rat_ln_upper(n) for n in range(1, 10**5 + 1)) == (
        "f2573e786b15c50fac75fbbc68bde01e45d2ef941d7adf3e5b6c3201f340fcc7"
    )


def test_log_factor_pinned():
    assert _digest(log_factor(g) for g in range(4097)) == (
        "ca4ac9420a88a41d9b57ab204d2e83129699f6d06a076b99dd9095c8ad77760c"
    )


def test_xi_pinned():
    ns = (1, 2, 3, 10, 100, 1000, 12345, 10**6)
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 16), Fraction(1, 1 << 16))
    xis = (UtilityContext.create(n, 1, p, 2, w).xi for n in ns for p in ps for w in (False, True))
    assert _digest(xis) == "a9dc26bd7b0b8fe3e81df72e92165ce1dc8ff539605f881d56b81cce4fa454d8"


def test_certificate_split_pinned():
    # q = max(1, floor(k (eps/8)^2 / (c_k ln n))); a small c_k makes q > 1 on small graphs
    cases = ((8, 3, 3.0), (12, 40, Fraction(1, 200)), (16, 200, Fraction(1, 100)),
             (24, 1000, Fraction(1, 50)), (40, 5000, 1))
    qs = [certificate_large_k(connected_gnp(n, 0.5, seed=n), k, c_k=c).report["q"] for n, k, c in cases]
    assert qs == [1, 8, 18, 39, 3]


# -- the bound itself ---------------------------------------------------------------


def _near_grid(j: int, digits: int) -> Fraction:
    """exp(j * 2**-LN_BITS) to `digits` significant digits: ln of it is within
    about 10**-digits of the grid point, which 64 bits cannot decide."""
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction((Decimal(j) / (1 << LN_BITS)).exp())


@pytest.mark.parametrize("x", [
    2, 3, 10, 1000, 10**6, 2**64 + 1, 10**50, Fraction(3, 2), Fraction(1, 3), Fraction(7, 5),
    Fraction(1, 10**9), Fraction(10**30 + 1, 10**30), Fraction(10**40 - 1, 10**40),
    Fraction((1 << LN_BITS) + 1, 1 << LN_BITS), Fraction(2**100 + 1, 3**60),
    _near_grid(3, 100), _near_grid(-5, 100), _near_grid(10**9, 150),
])
def test_rat_ln_upper_brackets_ln(x):
    # ln x <= bound < ln x + 2**-LN_BITS, with the bound on the 2**-LN_BITS grid
    x = Fraction(x)
    bound = rat_ln_upper(x)
    assert isinstance(bound, Fraction) and (1 << LN_BITS) % bound.denominator == 0
    step = Fraction(1, 1 << LN_BITS)
    with localcontext() as ctx:
        ctx.prec = 400
        ln_x = Decimal(x.numerator).ln() - Decimal(x.denominator).ln()
    assert bound - step < ln_x <= bound  # Fraction vs Decimal compares exactly


def test_rat_ln_upper_of_one_is_zero():
    assert rat_ln_upper(1) == 0 and rat_ln_upper(Fraction(5, 5)) == 0


@pytest.mark.parametrize("x", [0, -1, Fraction(-1, 2), -(10**30)])
def test_rat_ln_upper_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        rat_ln_upper(x)
