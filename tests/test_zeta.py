import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relscott import hurwitz_zeta, riemann_zeta
from relscott.zeta import _EM_COEFFS


def test_closed_forms():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-15)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-15)


def test_riemann_against_reference():
    for s in (1.1, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5, 12.0, 30.0, 60.0):
        with mpmath.workdps(30):
            ref = float(mpmath.zeta(s))
        assert abs(riemann_zeta(s) - ref) < 1e-14


def test_hurwitz_against_reference():
    # 1e-14 absolute at order-one magnitudes, correctly-rounded-level beyond
    for s in (2.0, 3.0, 4.0, 5.0, 6.5):
        for a in (0.5, 1.0, 2.0, 17.0, 123.0, 4001.0):
            with mpmath.workdps(30):
                ref = float(mpmath.zeta(s, a))
            assert abs(hurwitz_zeta(s, a) - ref) < max(1e-14, 4e-16 * abs(ref))


@given(
    st.floats(min_value=1.05, max_value=40.0),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_hurwitz_matches_reference_everywhere(s, a):
    mine = hurwitz_zeta(s, a)
    with mpmath.workdps(30):
        ref = float(mpmath.zeta(s, a))
    assert mine == pytest.approx(ref, rel=1e-13, abs=1e-14)


def test_recurrence():
    # zeta(s, a) = a^-s + zeta(s, a+1)
    for s, a in ((3.0, 1.0), (2.5, 7.0), (4.0, 0.25)):
        lhs = hurwitz_zeta(s, a)
        rhs = a ** (-s) + hurwitz_zeta(s, a + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(3.0, 0.0)
    for s in (math.inf, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"head terms at s={s}, a=2.0")):
            hurwitz_zeta(s, 2.0)
    for s, a in ((2.0, 1e-300), (1e300, 1e300), (10**400, 2.0), (3.0, 10**400)):
        with pytest.raises(ValueError, match=re.escape(f"in floats at s={s}, a={a}") + "$"):
            hurwitz_zeta(s, a)


def test_a_numeric_string_is_read_and_any_other_non_number_named():
    assert hurwitz_zeta("3", 1.0) == hurwitz_zeta(3.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("hurwitz_zeta requires s > 1, got s=None")):
        hurwitz_zeta(None, 1.0)
    with pytest.raises(ValueError, match=re.escape("in floats at s=3.0, a=abc") + "$"):
        hurwitz_zeta(3.0, "abc")


def test_euler_maclaurin_coefficients_are_the_rounded_fractions():
    # B_{2r}/(2r)! for r = 1..10, each literal the double nearest the fraction
    bernoulli = (
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
        Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
        Fraction(-174611, 330),
    )
    want = tuple(float(b / math.factorial(2 * r)) for r, b in enumerate(bernoulli, start=1))
    assert _EM_COEFFS == want
