import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscott import (
    LEVEL_DIFFERENCE_ENVELOPE_C,
    ChannelIndex,
    Coupling,
    LevelIndex,
    coulomb_expectation,
    dirac_level,
    fine_structure_term,
    level_difference,
    schroedinger_level,
)
from relscott.hydrogenic import (
    difference_kernel,
    difference_over_gamma2_kernel,
    dirac_lambda_kernel,
    fine_structure_kernel,
)

from _oracles import coulomb_expectation_mp, dirac_lambda_mp, level_difference_mp
from _support import EDGE_FLOATS

# Frozen 50-digit oracle values (tests/_oracles.py)
DIRAC_G09_N1_L1_J32 = -0.10697144502541242
BG_G05_N2_L1_J32 = 0.028996777638989511

# |lambda_D - lambda_S + fine structure| <= C gamma^6/(n+l)^4, C fitted once
# over gamma in {0.1,...,0.9}, n+l <= 1e3 (observed max 243.2; the remainder
# carries a genuine 1/N^3 piece at j=1/2, so this N^-4-normalized constant
# grows ~ N/4 and no small value exists) and frozen here.
FS_REMAINDER_ENVELOPE_C = 250.0

S12 = ChannelIndex(0, 0.5)


def lvl(n, l, j):
    return LevelIndex(n, ChannelIndex(l, j))


def test_ground_state_example():
    # gamma=0.6: n+l-(j+1/2)=0 makes the closed form collapse to sqrt(1-g^2)-1
    assert dirac_level(Coupling(0.6), lvl(1, 0, 0.5)) == pytest.approx(-0.2, abs=1e-15)


def test_dirac_frozen_oracle_value():
    assert dirac_level(0.9, lvl(1, 1, 1.5)) == pytest.approx(DIRAC_G09_N1_L1_J32, rel=1e-14)


def test_dirac_gamma_zero():
    assert dirac_level(0.0, lvl(3, 2, 2.5)) == 0.0


def test_dirac_rejects_gamma_one_everywhere():
    with pytest.raises(ValueError):
        dirac_level(1.0, lvl(1, 1, 1.5))  # even though j >= 3/2 would be finite
    with pytest.raises(ValueError):
        dirac_level(-0.1, lvl(1, 0, 0.5))


def test_schroedinger_examples():
    assert schroedinger_level(0.5, 1, 0) == -0.125
    assert schroedinger_level(0.999, 1, 1) == pytest.approx(-0.999**2 / 8.0, rel=1e-15)
    assert schroedinger_level(0.0, 4, 2) == 0.0


def test_level_difference_example():
    # (sqrt(0.64) - 1) - (-0.18) = -0.02 exactly in real arithmetic
    assert level_difference(0.6, lvl(1, 0, 0.5)) == pytest.approx(-0.02, abs=1e-16)


def test_level_difference_domain():
    assert level_difference(0.0, lvl(1, 0, 0.5)) == 0.0
    with pytest.raises(ValueError):
        level_difference(1.0, lvl(1, 0, 0.5))


def test_fine_structure_examples():
    assert fine_structure_term(1.0, lvl(1, 0, 0.5)) == pytest.approx(-0.125, abs=1e-16)
    assert fine_structure_term(0.0, lvl(2, 1, 1.5)) == 0.0


def test_fine_structure_is_leading_order():
    # residual after removing the gamma^4 term is O(gamma^6)
    idx = lvl(1, 0, 0.5)
    for g in (0.05, 0.1, 0.2):
        residual = level_difference(g, idx) - fine_structure_term(g, idx)
        assert abs(residual) < 0.3 * g**6


def test_coulomb_expectation_examples():
    assert coulomb_expectation(0.6, lvl(1, 0, 0.5)) == pytest.approx(0.45, rel=1e-15)
    assert coulomb_expectation(0.5, lvl(2, 1, 1.5)) == pytest.approx(BG_G05_N2_L1_J32, rel=1e-13)
    # virial limit gamma -> 0 at fixed level
    g = 1e-4
    assert coulomb_expectation(g, lvl(3, 2, 2.5)) == pytest.approx(g**2 / 25.0, rel=1e-6)
    with pytest.raises(ValueError):
        coulomb_expectation(1.0, lvl(1, 0, 0.5))


def _sweep_channels(l_top):
    for l in range(l_top + 1):
        for j in ((0.5,) if l == 0 else (l - 0.5, l + 0.5)):
            yield l, j


def test_ordering_on_grid():
    # lambda_D < lambda_S < 0 (moderate grid here; full grid in acceptance)
    n = np.arange(1, 201, dtype=float)
    for g in (0.1, 0.5, 0.9, 0.9999):
        for l, j in _sweep_channels(12):
            kb = j + 0.5
            lam_d = dirac_lambda_kernel(g, n + l, kb)
            lam_s = -g * g / (2.0 * (n + l) ** 2)
            assert np.all(lam_d < lam_s)
            assert np.all(lam_s < 0.0)
            assert np.all(lam_d > -1.0)


def test_monotone_in_j():
    n = np.arange(1, 100, dtype=float)
    for g in (0.3, 0.9):
        for l in (1, 2, 7):
            lo = dirac_lambda_kernel(g, n + l, float(l))
            hi = dirac_lambda_kernel(g, n + l, float(l + 1))
            assert np.all(hi > lo)


def test_remainder_envelope_spot_value():
    g, idx = 0.1, lvl(5, 4, 4.5)
    remainder = level_difference(g, idx) + g**4 / (2.0 * 9**3) * (1.0 / 5.0 - 3.0 / 36.0)
    assert abs(remainder) <= FS_REMAINDER_ENVELOPE_C * g**6 / 9**4


def test_remainder_envelope_frozen_constant_grid():
    n = np.arange(1, 301, dtype=float)
    for g in (0.1, 0.3, 0.5, 0.7, 0.9):
        for l, j in _sweep_channels(8):
            kb = j + 0.5
            rem = difference_kernel(g, n + l, kb) - fine_structure_kernel(g, n + l, kb)
            assert np.max(np.abs(rem) * (n + l) ** 4 / g**6) <= FS_REMAINDER_ENVELOPE_C


def test_difference_envelope_constant():
    n = np.arange(1, 301, dtype=float)
    for g in (0.1, 0.5, 0.9, 0.9999):
        for l, j in _sweep_channels(8):
            kb = j + 0.5
            bound = LEVEL_DIFFERENCE_ENVELOPE_C * g**4 / ((n + l) ** 3 * max(l, 1))
            assert np.all(np.abs(difference_kernel(g, n + l, kb)) <= bound)


def test_corollary_shape_l_ge_1():
    # 0 <= lambda_S - lambda_D <= C gamma^4 / ((n+l)^3 l)
    n = np.arange(1, 301, dtype=float)
    for g in (0.1, 0.5, 0.9):
        for l in (1, 2, 5, 8):
            for kb in (float(l), float(l + 1)):
                gap = -difference_kernel(g, n + l, kb)
                assert np.all(gap >= 0.0)
                assert np.all(gap <= LEVEL_DIFFERENCE_ENVELOPE_C * g**4 / ((n + l) ** 3 * l))


def test_difference_consistent_with_naive_subtraction():
    # on well-conditioned instances the combined expression equals the
    # straightforward difference of the two closed forms
    for g in (0.2, 0.6, 0.95):
        for n, l, j in ((1, 0, 0.5), (2, 1, 1.5), (3, 2, 1.5), (5, 0, 0.5)):
            naive = dirac_level(g, lvl(n, l, j)) - schroedinger_level(g, n, l)
            combined = level_difference(g, lvl(n, l, j))
            assert combined == pytest.approx(naive, rel=1e-13)


def test_difference_against_50_digit_oracle():
    # relative error < 1e-13 up to n+l = 1e4, where the naive subtraction
    # would lose ~17 digits
    cases = []
    for g in ("0.1", "0.5", "0.9", "0.9999"):
        for n, l, j in (
            (1, 0, 0.5), (10, 0, 0.5), (100, 3, 2.5), (995, 5, 5.5),
            (9990, 10, 9.5), (5000, 5000, 4999.5), (9999, 1, 0.5),
        ):
            cases.append((g, n, l, j))
    for g, n, l, j in cases:
        ref = float(level_difference_mp(g, n, l, j))
        got = level_difference(float(g), lvl(n, l, j))
        assert got == pytest.approx(ref, rel=1e-13), (g, n, l, j)


def test_ground_state_difference_near_gamma_one():
    # 1 - gamma^2/Delta is formed without rounding gamma^2 against N^2 = 1,
    # so the ground state keeps full accuracy as gamma -> 1
    gamma = 1.0 - 1e-8
    got = float(difference_over_gamma2_kernel(gamma, 1.0, 1.0))
    with mpmath.workdps(40):
        g2 = mpmath.mpf(gamma) ** 2
        want = float((mpmath.sqrt(1 - g2) - 1 + g2 / 2) / g2)
    assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)


def test_dirac_ground_state_near_gamma_one():
    # lambda_D = lambda_S + (lambda_D - lambda_S) within 1.25 eps on a grid
    # that runs from gamma = 1e-8 to the ground state at gamma = 1 - 1e-12 and
    # out to N = 6000; the oracle gets the binary gamma (a 50-digit mpf), not
    # its shortest decimal, which moves lambda_D by 3.5e-13 near gamma = 1
    gammas = (1e-8, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 1 - 1e-9, 1 - 1e-12)
    radial = np.array([0, 1, 2, 7, 30, 300, 5000])  # N - kb
    bound = 1.25 * np.finfo(float).eps
    for gamma in gammas:
        for kb in (1, 2, 3, 8, 40, 1000):
            l, n = kb - 1, radial + 1
            kernel = dirac_lambda_kernel(gamma, n + l, float(kb))
            for nn, from_kernel in zip(n.tolist(), kernel.tolist()):
                with mpmath.workdps(50):
                    want = dirac_lambda_mp(mpmath.mpf(gamma), nn, l, l + 0.5)
                    for got in (dirac_level(gamma, lvl(nn, l, l + 0.5)), from_kernel):
                        assert abs((got - want) / want) <= bound, (gamma, nn + l, kb)


def test_coulomb_expectation_against_50_digit_oracle():
    for g in ("0.1", "0.5", "0.9", "0.9999"):
        for n, l, j in ((1, 0, 0.5), (7, 2, 1.5), (300, 30, 30.5), (4000, 100, 99.5)):
            ref = float(coulomb_expectation_mp(g, n, l, j))
            got = coulomb_expectation(float(g), lvl(n, l, j))
            assert got == pytest.approx(ref, rel=1e-13), (g, n, l, j)


def test_coulomb_expectation_virial_envelope():
    n = np.arange(1, 200)
    for g in (0.1, 0.3, 0.6, 0.9):
        for l, j in _sweep_channels(6):
            for nn in (1, 2, 5, 50):
                n_pr = nn + l
                virial = g * g / n_pr**2
                got = coulomb_expectation(g, lvl(nn, l, j))
                assert abs(got / virial - 1.0) <= 5.0 * g * g


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=0.999),
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=0, max_value=400),
    st.booleans(),
)
def test_property_signs_and_bounds(g, n, l, upper):
    j = l + 0.5 if (upper or l == 0) else l - 0.5
    idx = lvl(n, l, j)
    lam_d = dirac_level(g, idx)
    lam_s = schroedinger_level(g, n, l)
    diff = level_difference(g, idx)
    assert -1.0 < lam_d < lam_s < 0.0
    assert diff < 0.0
    assert diff == pytest.approx(lam_d - lam_s, abs=1e-12 * max(abs(lam_d), 1e-300))
    assert abs(diff) <= LEVEL_DIFFERENCE_ENVELOPE_C * g**4 / ((n + l) ** 3 * max(l, 1))
    assert coulomb_expectation(g, idx) > 0.0


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling(1.0)
    with pytest.raises(ValueError):
        Coupling(-0.2)
    with pytest.raises(ValueError):
        Coupling(math.nan)
    assert Coupling(0.0).gamma == 0.0


_LEVEL_CALLS = {
    "dirac_level": lambda g, n, l, j: dirac_level(g, lvl(n, l, j)),
    "schroedinger_level": lambda g, n, l, j: schroedinger_level(g, n, l),
    "level_difference": lambda g, n, l, j: level_difference(g, lvl(n, l, j)),
    "fine_structure_term": lambda g, n, l, j: fine_structure_term(g, lvl(n, l, j)),
    "coulomb_expectation": lambda g, n, l, j: coulomb_expectation(g, lvl(n, l, j)),
}
# quantum numbers in range, around 2**53 (the largest n + l a float holds
# exactly) and past every float
_QUANTUM_INTEGERS = st.integers(-2, 40) | st.sampled_from(
    [2**53 - 1, 2**53, 2**53 + 1, 10**200, 10**400])


@st.composite
def _level_arguments(draw):
    """gamma, n, l and j: j = l +- 1/2 (a valid channel) or any float."""
    l = draw(_QUANTUM_INTEGERS)
    valid_j = draw(st.sampled_from([-0.5, 0.5])) + (l if abs(l) <= 2**53 else 0)
    j = draw(st.just(valid_j) | EDGE_FLOATS)
    return draw(st.floats(0.0, 1.0) | EDGE_FLOATS), draw(_QUANTUM_INTEGERS), l, j


@pytest.mark.parametrize("name", list(_LEVEL_CALLS))
@settings(max_examples=30, deadline=None)
@given(args=_level_arguments())
def test_any_level_gives_a_finite_value_or_names_the_argument(name, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = _LEVEL_CALLS[name](*args)
        except ValueError as exc:
            assert re.search(r"\b(gamma|n|l|j)\b", str(exc)), str(exc)
            return
    assert math.isfinite(value), (args, value)
