import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscott import (
    SCHWINGER_COEFFICIENT,
    Coupling,
    schwinger_shift,
    schwinger_shift_bruteforce,
    scott_coefficient,
    shift,
    zeta_double_sum_identity_check,
)
from relscott import scott_shift
from relscott.hydrogenic import difference_over_gamma2_kernel
from relscott.quantum_numbers import kappa_bars
from relscott.scott_shift import GAMMA4_COEFFICIENT, direct_channel_sum

from _oracles import level_difference_over_gamma2_mp, pair_residual_mp

# |s(gamma)/gamma^2 - SCHWINGER_COEFFICIENT| <= K gamma^2 for gamma <= 0.3;
# K fitted once (observed max 0.297 at gamma=0.3) and frozen.
SMALL_GAMMA_K = 0.35
# |s(gamma) - S2 gamma^2 - S4 gamma^4| <= tail + K6 gamma^6 for gamma <= 0.3, with
# S2 = SCHWINGER_COEFFICIENT and S4 = GAMMA4_COEFFICIENT; K6 fitted once
# (observed max 0.175 at gamma=0.3, against S6 = -0.164 as gamma -> 0) and frozen.
SMALL_GAMMA_K6 = 0.2


def test_schwinger_coefficient_value():
    with mpmath.workdps(30):
        ref = float(mpmath.zeta(3) - 5 * mpmath.pi**2 / 24)
    assert SCHWINGER_COEFFICIENT == pytest.approx(ref, rel=1e-14)
    assert SCHWINGER_COEFFICIENT == pytest.approx(-0.8541106804006887, rel=1e-14)


def test_gamma4_coefficient_is_the_phi2_channel_sum():
    # S4 = sum over channels of 2 kb^-5 sum_{N>l} phi_2(kb/N): per channel a
    # polynomial in kb times zeta(k, l + 1), summed over l to 30 digits
    *coeffs, denominator = PHI[2]

    def channel(l, kb):
        terms = (c * kb**k * mpmath.zeta(k, l + 1) for k, c in enumerate(coeffs, start=3))
        return 2 * mpmath.fsum(terms) / (denominator * kb**5)

    with mpmath.workdps(30):
        pairs = mpmath.nsum(lambda l: channel(l, l) + channel(l, l + 1), [1, mpmath.inf])
        total = channel(0, 1) + pairs
        closed = (19 * mpmath.zeta(4) - 22 * mpmath.zeta(5)) / 8
        assert abs(total - closed) <= mpmath.mpf(10) ** -28
    assert GAMMA4_COEFFICIENT == float(total)


def test_schwinger_shift_values():
    assert schwinger_shift(1.0) == SCHWINGER_COEFFICIENT
    assert schwinger_shift(0.0) == 0.0
    assert schwinger_shift(0.5) == pytest.approx(SCHWINGER_COEFFICIENT / 4.0, rel=1e-15)
    assert schwinger_shift(Coupling(0.3)) == pytest.approx(0.09 * SCHWINGER_COEFFICIENT, rel=1e-15)
    with pytest.raises(ValueError):
        schwinger_shift(1.0001)


def test_bruteforce_l0_channel():
    # complete l=0 channel sums to -(zeta(3) - (3/4) zeta(4))
    with mpmath.workdps(30):
        ref = float(0.75 * mpmath.zeta(4) - mpmath.zeta(3))
    got = schwinger_shift_bruteforce(1.0, 0, 4000)
    assert got == pytest.approx(ref, abs=1e-7)


def test_bruteforce_gamma_zero():
    assert schwinger_shift_bruteforce(0.0, 100, 100) == 0.0


def test_bruteforce_gamma_scaling():
    a = schwinger_shift_bruteforce(1.0, 40, 200)
    b = schwinger_shift_bruteforce(0.5, 40, 200)
    assert b == pytest.approx(a / 4.0, rel=1e-13)


def test_bruteforce_converges_to_closed_form():
    # truncation envelope: |bruteforce - closed form| <= 10/l_max at gamma=1
    for l_max in (50, 100, 200):
        got = schwinger_shift_bruteforce(1.0, l_max, 4000)
        assert abs(got - SCHWINGER_COEFFICIENT) <= 10.0 / l_max


def test_bruteforce_cutoff_validation():
    with pytest.raises(ValueError):
        schwinger_shift_bruteforce(0.5, -1, 100)
    with pytest.raises(ValueError):
        schwinger_shift_bruteforce(0.5, 10, 0)


@pytest.mark.parametrize("function", [direct_channel_sum, schwinger_shift_bruteforce])
@pytest.mark.parametrize(
    "args, cause",
    [
        ((0.5, 3, 0), "cutoffs"),
        ((1.5, 3, 10), "gamma"),
        ((0.5, 2.5, 10), "cutoffs"),
        ((0.5, -1, 10), "cutoffs"),
        ((-0.1, 3, 10), "gamma"),
    ],
)
def test_truncated_sums_reject_bad_input(function, args, cause):
    with pytest.raises(ValueError, match=cause):
        function(*args)


def test_zeta_identity_s3():
    chk = zeta_double_sum_identity_check(3.0)
    with mpmath.workdps(30):
        ref = float(mpmath.zeta(2) - mpmath.zeta(3))
    assert chk.zeta_difference == pytest.approx(ref, rel=1e-13)
    assert chk.zeta_difference == pytest.approx(0.442877163689, abs=1e-12)
    assert abs(chk.double_sum - chk.zeta_difference) <= chk.tail_bound


def test_zeta_identity_s4():
    chk = zeta_double_sum_identity_check(4.0)
    assert chk.zeta_difference == pytest.approx(0.119733669448, abs=1e-12)
    assert abs(chk.double_sum - chk.zeta_difference) <= chk.tail_bound


def test_zeta_identity_large_s():
    # dominated by the m=n=1 diagonal term 2^-s
    chk = zeta_double_sum_identity_check(60.0)
    assert chk.double_sum == pytest.approx(2.0**-60, rel=1e-9)
    assert chk.zeta_difference == pytest.approx(2.0**-60, rel=1e-9)


def test_zeta_identity_domain():
    with pytest.raises(ValueError):
        zeta_double_sum_identity_check(2.0)
    for s in (math.inf, math.nan, 10**400, -10**400):
        with pytest.raises(ValueError, match=re.escape(f"requires finite s > 2, got {s}") + "$"):
            zeta_double_sum_identity_check(s)
    with pytest.raises(ValueError, match=re.escape("head terms at s=1e+300, a=1.0")):
        zeta_double_sum_identity_check(1e300)


def test_shift_gamma_zero():
    res = shift(0.0)
    assert res.value == 0.0
    assert res.tail_estimate == 0.0
    assert (res.series_order, res.series_bound, res.l_bound, res.rounding_floor) == (0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("gamma", [1e-3, 0.5, 0.9, 0.9999])
@pytest.mark.parametrize("tol", [1e-10, 1e-8, 1e-2])
def test_tail_estimate_adds_its_three_parts(gamma, tol):
    # in the order shift adds them: series bound, l bound, rounding floor
    res = shift(gamma, tol)
    assert res.tail_estimate == (res.series_bound + res.l_bound) + res.rounding_floor
    assert type(res.series_order) is int and res.series_order >= 3
    for part in (res.series_bound, res.l_bound, res.rounding_floor):
        assert type(part) is float and part > 0.0


def test_shift_domain_errors():
    with pytest.raises(ValueError):
        shift(1.0)
    with pytest.raises(ValueError):
        shift(-0.1)
    with pytest.raises(ValueError):
        shift(0.5, 1e-11)
    with pytest.raises(ValueError):
        shift(0.5, 0.1)
    for gamma in (math.nan, 10**400, -10**400):
        with pytest.raises(ValueError, match=re.escape(f"gamma must lie in [0, 1), got {gamma!r}")):
            shift(gamma)
    with pytest.raises(ValueError, match=re.escape(f"tol must lie in [1e-10, 0.01], got {10**400}")):
        shift(0.5, 10**400)


def test_shift_negative_and_certified():
    for g in (0.05, 0.3, 0.6, 0.9, 0.99):
        res = shift(g, 1e-8)
        assert res.value < 0.0
        assert 0.0 <= res.tail_estimate <= res.target_tol
        assert res.l_max > 0 and res.n_max > 0


def test_shift_default_tolerance_is_the_same_for_every_gamma():
    for g in (0.5, 0.95, 0.9999):
        res = shift(g)
        assert res.target_tol == scott_shift.DEFAULT_TOL == 1e-8
        assert res.tail_estimate <= 1e-8


def test_shift_small_gamma_matches_schwinger():
    res = shift(0.01, 1e-10)
    assert res.value / 1e-4 == pytest.approx(-0.854, abs=2e-3)


def test_shift_small_gamma_consistency_constant():
    for g in (0.05, 0.1, 0.2, 0.3):
        res = shift(g, 1e-10)
        assert abs(res.value / g**2 - SCHWINGER_COEFFICIENT) <= SMALL_GAMMA_K * g**2


def test_shift_small_gamma_two_term_series():
    for g in (0.02, 0.05, 0.1, 0.2, 0.3):
        res = shift(g, 1e-10)
        series = SCHWINGER_COEFFICIENT * g**2 + GAMMA4_COEFFICIENT * g**4
        assert abs(res.value - series) <= res.tail_estimate + SMALL_GAMMA_K6 * g**6, g


def test_shift_strong_coupling_limit():
    # 1/2 + s -> -1.91 as gamma -> 1 (approach is O(sqrt(1-gamma^2)))
    res = shift(1.0 - 1e-10, 1e-6)
    assert 0.5 + res.value == pytest.approx(-1.91, abs=0.02)


def test_shift_tail_containment():
    # a 1e-10 run is the reference; looser runs must contain it within
    # their reported tail estimates
    for g in (0.3, 0.7, 0.95):
        ref = shift(g, 1e-10)
        for tol in (1e-4, 1e-6, 1e-8):
            res = shift(g, tol)
            assert abs(res.value - ref.value) <= res.tail_estimate + ref.tail_estimate


def test_shift_tail_containment_near_one():
    # the j = 1/2 channels lose their gap as gamma -> 1; the certificate must
    # stay honest there too
    for g in (0.99, 0.999, 0.9999):
        ref = shift(g, 1e-9)
        res = shift(g, 1e-6)
        assert abs(res.value - ref.value) <= res.tail_estimate + ref.tail_estimate


def test_monotone_refinement_direct_sums():
    g = 0.6
    prev = 0.0
    for l_cut, n_cut in ((4, 50), (8, 100), (16, 200), (32, 400)):
        cur = direct_channel_sum(g, l_cut, n_cut)
        assert cur <= prev + 1e-15  # all added terms negative
        prev = cur


def test_monotone_refinement_reported_values():
    g = 0.8
    coarse = shift(g, 1e-4)
    fine = shift(g, 1e-8)
    assert abs(fine.value - coarse.value) <= coarse.tail_estimate


def test_shift_deterministic():
    a = shift(0.77, 1e-8)
    b = shift(0.77, 1e-8)
    assert a.value == b.value  # bit identical
    assert a.tail_estimate == b.tail_estimate
    assert (a.l_max, a.n_max) == (b.l_max, b.n_max)


def test_scott_coefficient():
    res = scott_coefficient(0.0)
    assert res.q == 0.5
    got = scott_coefficient(0.01, 1e-9)
    assert got.q == pytest.approx(0.5 - 0.854e-4, abs=3e-7)
    assert got.tail_estimate <= 1e-9
    # strictly decreasing in gamma
    qs = [scott_coefficient(g, 1e-8).q for g in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_shift_accepts_coupling_or_float():
    a = shift(Coupling(0.4), 1e-8)
    b = shift(0.4, 1e-8)
    assert a == b and type(a.gamma) is float
    assert type(scott_coefficient(Coupling(0.4)).gamma) is float


# 40-digit-arithmetic references (same channel structure, exact arithmetic,
# cutoffs L=600, N=3000 plus closed-form tails), frozen with their own
# residual envelopes estimated from cutoff-doubling deltas.
MP_REFERENCE = {
    0.2: (-0.03462488405782744, 1e-11),
    0.5: (-0.2342005734448872, 5e-10),
    0.9: (-1.100627560519426, 3e-9),
}


def test_shift_against_extended_precision_reference():
    for g, (ref, ref_err) in MP_REFERENCE.items():
        res = shift(g, 1e-8)
        assert abs(res.value - ref) <= res.tail_estimate + ref_err


# value, tail_estimate (repr), l_max and n_max of shift() at the 12-step curve
# gammas (tol 1e-8), the precise-workload lattice gammas (tol 1e-10) and
# gamma 0.9999.  Value and cutoffs are pinned to the bit: a change that moves
# them must show that each new value lies within the old plus the new
# tail_estimate of the pinned one before it rewrites the pin
SHIFT_PINS = json.loads((Path(__file__).parent / "data" / "shift_pins.json").read_text())


@pytest.mark.parametrize("pin", SHIFT_PINS, ids=lambda p: f"{p['gamma']!r}-{p['tol']:g}")
def test_shift_matches_pins(pin):
    res = shift(pin["gamma"], pin["tol"])
    assert repr(res.value) == pin["value"]
    assert (res.l_max, res.n_max) == (pin["l_max"], pin["n_max"])
    pinned_tail = float(pin["tail_estimate"])
    assert abs(res.tail_estimate - pinned_tail) <= 4 * math.ulp(pinned_tail)
    assert res.tail_estimate <= pin["tol"]


def test_shift_returns_python_floats():
    for gamma, tol in ((0.0, 1e-8), (0.5, 1e-8), (0.9, 1e-10)):
        res = shift(gamma, tol)
        assert type(res.value) is float
        assert type(res.tail_estimate) is float


# gamma in [0, 1), with a share of draws within 1e-6 of 1
GAMMAS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
)


@settings(max_examples=12, deadline=None)
@given(gamma=GAMMAS, l=st.integers(0, 64), upper=st.booleans(), order=st.integers(3, 24))
def test_channel_series_matches_mpmath(gamma, l, upper, order):
    # direct levels n < _N_SERIES plus the series to the given order, against
    # a 30-digit sum of the exact difference: direct below _N_SERIES, and above
    # it the exact function's own Taylor coefficients (by mpmath
    # differentiation) against mpmath zeta, to order 40
    kb = kappa_bars(l)[-1 if upper else 0]
    n0 = scott_shift._N_SERIES
    la, kba = np.array([float(l)]), np.array([kb])
    got = float(
        scott_shift._weighted_channel_sums(difference_over_gamma2_kernel, gamma, la, kba, n0 - 1)[0]
        + scott_shift._series_sums(gamma, la, kba, order)[0]
    )
    with mpmath.workdps(30):
        c = mpmath.taylor(lambda u: level_difference_over_gamma2_mp(gamma, kb, u), 0, 40)
        a = l + n0
        ref = 2 * kb * (
            mpmath.fsum(
                level_difference_over_gamma2_mp(gamma, kb, mpmath.mpf(1) / (n + l)) for n in range(1, n0)
            )
            + mpmath.fsum(c[k] * mpmath.zeta(k, a) for k in range(3, 41))
        )
        # the proven remainder past the order: 0.12 sum_{k>order} 4^k zeta(k, a)
        remainder = 2 * kb * scott_shift._F_MAX * mpmath.fsum(
            4**k * mpmath.zeta(k, a) for k in range(order + 1, 200)
        )
    # rounding: a few ulp of the channel sum, up to gamma -> 1
    rounding = 16 * np.finfo(float).eps * abs(float(ref))
    assert abs(got - float(ref)) <= float(remainder) + rounding


@settings(max_examples=10, deadline=None)
@given(gamma=GAMMAS, tol=st.floats(1e-10, 1e-2))
def test_tail_estimates_contain_the_tightest_shift(gamma, tol):
    res = shift(gamma, tol)
    ref = shift(gamma, 1e-10)
    assert res.tail_estimate <= tol
    assert abs(res.value - ref.value) <= res.tail_estimate + ref.tail_estimate


@pytest.mark.parametrize("gamma", [1e-3, 0.5, 0.9, 1.0 - 1e-9])
def test_taylor_coefficients_open_with_the_tail_coefficients(gamma):
    # c_3..c_8 of the recurrences against mpmath's Taylor coefficients of the
    # exact level difference
    kb = np.array([1.0, 2.0, 7.0, 300.0])
    c = scott_shift._taylor_coefficients(gamma, kb, 8)
    with mpmath.workdps(30):
        want = [
            mpmath.taylor(lambda u: level_difference_over_gamma2_mp(gamma, k, u), 0, 8)[3:]
            for k in kb.tolist()
        ]
    for got, want_k in zip(c, np.array(want, dtype=float).T):
        assert np.allclose(got, want_k, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0 - 1e-9])
def test_l_tail_bound_holds_for_the_pair_residual(gamma):
    # |R(l) + (gamma^4/4) m^-4 + (5/32) gamma^4 (2 + gamma^2) m^-6| <= C8 m^-8
    c8 = scott_shift._l_tail_bound_coefficient(gamma)
    for l in (8, 9, 16, 64):
        with mpmath.workdps(40):
            m, g2 = mpmath.mpf(l) + 0.5, mpmath.mpf(gamma) ** 2
            model = g2**2 / 4 * m**-4 + 5 * g2**2 * (2 + g2) / 32 * m**-6
            rest = pair_residual_mp(gamma, l) + model
            assert abs(rest) <= c8 * m**-8, l


# phi_j(x) of _l_tail_bound_coefficient, x = kb/N: the coefficients of x^3,
# x^4, ..., then their common denominator
PHI = {
    1: (-8, 6, 16),
    2: (-2, -6, 12, -5, 16),
    3: (-16, -48, -16, 240, -240, 70, 256),
    4: (-10, -30, -24, 80, 180, -420, 280, -63, 256),
}


def _phi(j, x):
    *coeffs, denominator = PHI[j]
    return x**3 * mpmath.polyval(coeffs[::-1], x) / denominator


@mpmath.workdps(60)
def _theta(k, m):
    """theta_k of the midpoint Euler-Maclaurin bracket of zeta(k, m + 1/2);
    at m near 10^5 the bracket's last term is 10^-30 of zeta, hence 60 digits."""
    head = m ** (1 - k) / (k - 1) - k * m ** (-1 - k) / 24
    head += 7 * mpmath.rf(k, 3) * m ** (-3 - k) / 5760
    last = 31 * mpmath.rf(k, 5) * m ** (-5 - k) / 967680
    return (head - mpmath.zeta(k, m + 0.5)) / last


def test_l_tail_bound_pieces():
    # the steps of _l_tail_bound_coefficient for l >= 8, m = l + 1/2
    with mpmath.workdps(40):
        for l in [*range(8, 40), 100, 1000, 10**5]:
            lo, hi, m = mpmath.mpf(l), mpmath.mpf(l + 1), mpmath.mpf(l) + 0.5
            z = {k: mpmath.zeta(k, hi) for k in range(3, 9)}
            # the brackets: 0 <= theta_k <= 1
            for k in range(3, 9):
                assert 0 <= _theta(k, m) <= 1, (l, k)
            # (i) P6, without and with its rational part
            p6 = -(
                2 * z[3] * (lo**-2 + hi**-2) + 6 * z[4] * (1 / lo + 1 / hi)
                - 24 * z[5] + 10 * m * z[6]
            ) / 8
            rest6 = p6 + m**-4 / 4 + 5 * m**-6 / 16
            rational = -7 * (36 * m**2 - 7) / (192 * m**8 * (4 * m**2 - 1) ** 2)
            assert abs(rest6 - rational) <= 0.042 * m**-8, l
            assert abs(rest6) <= 0.044 * m**-8, l
            # (ii) P8
            p8 = -(
                z[3] * (lo**-4 + hi**-4) + 3 * z[4] * (lo**-3 + hi**-3) + z[5] * (lo**-2 + hi**-2)
                - 15 * z[6] * (1 / lo + 1 / hi) + 30 * z[7] - 35 * m * z[8] / 4
            ) / 8
            assert abs(p8 + 5 * m**-6 / 32) <= 0.556 * m**-8, l
            # (iii) the pair factors
            assert z[3] <= m**-2 / 2 and lo**-6 + hi**-6 <= 2.15 * m**-6, l
        # (iii) the bracket of phi_4, and |phi(1, t)| <= 2 t^-3
        for x in mpmath.linspace(0, 1, 1001)[1:]:
            assert 7 <= -256 * _phi(4, x) / x**3 <= 19.41, x
            t = 1 / x
            e = t * t - 2 * (t - 1)
            phi_at_one = -(t - 1) / (t * t * e) - 1 / (2 * (e + e * mpmath.sqrt(1 - 1 / e)) ** 2)
            assert abs(phi_at_one) <= 2 * x**3, x
        # per level: phi_1..phi_4 are the series of the exact difference, and
        # the terms j >= 4 are at most (0.076 + gamma^2/32) w^4 t^-3
        for gamma in (0.3, 0.9, 1.0 - 1e-9):
            g2 = mpmath.mpf(gamma) ** 2
            for kb in (8, 9, 50):
                w = g2 / kb**2
                for n_pr in (kb, kb + 1, 2 * kb, 3 * kb, 10 * kb, 1000 * kb):
                    x = mpmath.mpf(kb) / n_pr
                    phi = kb**2 * level_difference_over_gamma2_mp(gamma, kb, mpmath.mpf(1) / n_pr)
                    rest3 = phi - sum(_phi(j, x) * w**j for j in (1, 2, 3))
                    assert abs(rest3) <= (0.076 + g2 / 32) * w**4 * x**3, (gamma, kb, n_pr)
                    assert abs(rest3 - _phi(4, x) * w**4) <= 2 * w**5 * x**3, (gamma, kb, n_pr)


def _mp_model_missed(gamma, l_count):
    """-(gamma^4/4) zeta(4, L + 1/2) - (5/32) gamma^4 (2 + gamma^2) zeta(6, L + 1/2)."""
    g2, mid = mpmath.mpf(gamma) ** 2, mpmath.mpf(l_count) + 0.5
    return -(g2**2) / 4 * mpmath.zeta(4, mid) - 5 * g2**2 * (2 + g2) / 32 * mpmath.zeta(6, mid)


def _mp_l_tail(gamma, l_count):
    """The fine-structure model pairs l >= l_count plus _mp_model_missed, by
    the telescoped zeta sums in mpmath."""
    g2, big_l, a = mpmath.mpf(gamma) ** 2, mpmath.mpf(l_count), mpmath.mpf(l_count) + 1
    z2, z3, z4 = (mpmath.zeta(k, a) for k in (2, 3, 4))
    pairs = -2 * (z2 - big_l * z3) + mpmath.mpf(3) / 4 * (z2 - big_l**2 * z4)
    return g2 * pairs + _mp_model_missed(gamma, l_count)


# at 11, L + 1/2 needs a zeta head sum and L + 1 does not; from 12 neither does
@pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0 - 1e-9])
@pytest.mark.parametrize("l_count", [8, 9, 11, 12, 17, 33, 81])
def test_l_tail_closed_form_matches_mpmath(gamma, l_count):
    # its own zeta values, as L = 33 and 81 lie past shift's table
    zetas = scott_shift.hurwitz_zeta(
        scott_shift._L_TAIL_ORDERS, np.add(l_count, scott_shift._L_TAIL_OFFSETS)
    ).tolist()
    with mpmath.workdps(40):
        ref = _mp_l_tail(gamma, l_count)
        got, bound = scott_shift._l_tail(gamma, l_count, zetas)
        assert abs((got - ref) / ref) <= 2e-15
    c8 = scott_shift._l_tail_bound_coefficient(gamma)
    assert bound == c8 * scott_shift.hurwitz_zeta(8.0, l_count + 0.5)


@pytest.mark.parametrize("gamma, tol", [(0.2, 1e-8), (0.5, 1e-8), (0.9, 1e-10), (1.0 - 1e-9, 1e-2)])
def test_shift_makes_one_zeta_call(gamma, tol, monkeypatch):
    # the n-series table over l = 0..l_max; the l-tail reads the import-time table
    calls, zeta = [], scott_shift.hurwitz_zeta

    def counted(s, a):
        calls.append((np.shape(s), np.shape(a)))
        return zeta(s, a)

    monkeypatch.setattr(scott_shift, "hurwitz_zeta", counted)
    res = shift(gamma, tol)
    assert calls == [((res.series_order - 2, 1), (res.l_max + 1,))]


def test_l_tail_table_columns_equal_the_one_call_values():
    # column L of the table carries the bits of the l-tail's own array call at L
    table = scott_shift._L_TAIL_ZETAS
    assert table.shape == (6, scott_shift._L_MAX - scott_shift._L_MIN + 1)
    assert not table.flags.writeable
    for l_count in range(scott_shift._L_MIN, scott_shift._L_MAX + 1):
        one_call = scott_shift.hurwitz_zeta(
            scott_shift._L_TAIL_ORDERS, np.add(l_count, scott_shift._L_TAIL_OFFSETS)
        )
        column = table[:, l_count - scott_shift._L_MIN]
        assert column.tolist() == one_call.tolist(), l_count


def test_shift_names_an_l_cutoff_past_the_table(monkeypatch):
    # unreachable on the tol domain; a smaller table shows the error
    monkeypatch.setattr(scott_shift, "_L_MAX", 12)
    with pytest.raises(ValueError, match=r"L = 2\d.*_L_MAX = 12"):
        shift(0.9, 1e-10)


def test_l_cutoff_stays_at_the_m8_ceiling():
    # at tol 1e-10, L is at most what C8(1) gives (C8 grows with gamma), and no
    # (gamma, tol) gets more channels than the m^-6 bound's rule
    # max(8, ceil((C/(2 tol))^(1/5))), C = (gamma^4 + gamma^6)/3, gave
    ceiling = math.ceil((scott_shift._l_tail_bound_coefficient(1.0) / 2.8e-10) ** (1.0 / 7.0))
    assert ceiling <= 30
    assert scott_shift._L_MAX == ceiling == 23
    for gamma in (0.3, 0.6, 0.86, 0.9, 0.94, 0.99, 0.9999, 1.0 - 1e-9):
        assert shift(gamma, 1e-10).l_max + 1 <= ceiling, gamma
        for tol in (1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-2):
            c = (gamma**4 + gamma**6) / 3.0
            m6_rule = max(8, math.ceil((c / (2.0 * tol)) ** 0.2))
            assert shift(gamma, tol).l_max + 1 <= m6_rule, (gamma, tol)


def test_l_tail_reference_matches_the_level_sum():
    # the reference's zeta identities against the pairs summed the other way:
    # level N >= L + 1 holds the pairs L <= l < N, each channel kb weighted
    # 2kb and giving -(gamma^2/(2 N^3)) (1/kb - 3/(4N)), summed by nsum
    gamma, l_count = 0.9, 33
    with mpmath.workdps(40):
        g2, big_l = mpmath.mpf(gamma) ** 2, mpmath.mpf(l_count)

        def level(n):
            return -2 * (n - big_l) / n**3 + mpmath.mpf(3) / 4 * (n * n - big_l**2) / n**4

        pairs = mpmath.nsum(level, [l_count + 1, mpmath.inf], method="euler-maclaurin")
        nsummed = g2 * pairs + _mp_model_missed(gamma, l_count)
        assert abs(nsummed / _mp_l_tail(gamma, l_count) - 1) <= mpmath.mpf(10) ** -35


def test_level_difference_bounded_on_the_cauchy_circle():
    # |f| <= _F_MAX on |u| = 1/4, which gives |c_k| <= _F_MAX 4^k
    u = 0.25 * np.exp(2j * np.pi * np.arange(256) / 256)
    worst = 0.0
    for gamma in (1e-3, 0.3, 0.6, 0.9, 0.99, 0.9999, 1.0):
        for kb in (1.0, 2.0, 3.0, 10.0, 100.0, 1e5):
            delta = gamma**2 / (kb + np.sqrt(kb * kb - gamma**2))
            z = u * u / (1.0 - 2.0 * delta * u + 2.0 * kb * delta * u * u)
            f = u * u / 2.0 - z / (1.0 + np.sqrt(1.0 - gamma**2 * z))
            worst = max(worst, float(np.abs(f).max()))
    assert worst <= scott_shift._F_MAX


def _series_order_bounds(kb, a, last):
    """The remainder bound of each order 3..last, one order at a time."""
    q = 4.0 / a
    weight = 2.0 * scott_shift._F_MAX * kb / (1.0 - q)
    q_pow = (q * q) * (q * q)
    bounds = {}
    for order in range(3, last + 1):
        bounds[order] = float(np.sum(weight * q_pow * (1.0 + a / order)))
        q_pow = q_pow * q
    return bounds


@pytest.mark.parametrize("gamma", [1e-3, 0.3, 0.9, 0.9999])
@pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-8, 1e-5, 1e-2])
def test_series_order_is_the_smallest_that_fits(gamma, tol):
    # bound(K) <= budget < bound(K - 1), with shift's own channels and budget
    res = shift(gamma, tol)
    l, kb = scott_shift._channel_arrays(res.l_max + 1)
    a = l + scott_shift._N_SERIES
    budget = 0.9 * tol - res.l_bound
    order, bound = scott_shift._series_order(kb, a, budget)
    assert (order, bound) == (res.series_order, res.series_bound)
    ref = _series_order_bounds(kb, a, order)
    assert ref[order] == bound <= budget
    assert order == 3 or ref[order - 1] > budget


@pytest.mark.parametrize("budget", [0.0, -1e-9, float("nan")])
def test_series_order_raises_when_no_order_fits(budget):
    l, kb = scott_shift._channel_arrays(8)
    with pytest.raises(ValueError, match="no series order fits"):
        scott_shift._series_order(kb, l + scott_shift._N_SERIES, budget)


def test_series_order_bound_covers_the_cauchy_remainder():
    # the remainder bound _series_order returns is at least the Cauchy one,
    # 0.12 sum_{k>K} 4^k zeta(k, a) per channel with weight 2kb
    l, kb = scott_shift._channel_arrays(8)
    a = l + scott_shift._N_SERIES
    for budget in (1e-3, 1e-8, 5e-11):
        order, bound = scott_shift._series_order(kb, a, budget)
        assert bound <= budget
        with mpmath.workdps(30):
            cauchy = mpmath.fsum(
                2 * w * scott_shift._F_MAX * 4**k * mpmath.zeta(k, x)
                for w, x in zip(kb.tolist(), a.tolist())
                for k in range(order + 1, order + 30)  # the rest is below 8^-30 of it
            )
            assert cauchy <= bound
