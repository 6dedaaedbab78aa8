"""Riemann and Hurwitz zeta for real s > 1 via Euler-Maclaurin.

zeta(s, a) = sum_{k=0}^{M-1} (a+k)^-s
           + T^(1-s)/(s-1) + T^-s/2
           + sum_{r=1}^{R} B_{2r}/(2r)! * s(s+1)...(s+2r-2) * T^(-s-2r+1)

with T = a + M and M the fewest terms that make T >= max(12, s): M = 0, and no
head sum is formed, where a >= max(12, s) already.  For real s > 1 the
truncation error is bounded by the first omitted correction term; with
T >= max(12, s) and R = 10 that term is far below 1e-16 for every s used here,
so results are accurate to double rounding (absolute error well under 1e-14).
Each head term is one numpy step, so at most _HEAD_MAX of them are taken.
"""

from __future__ import annotations

import numpy as np

_HEAD_MAX = 1000

# B_{2r}/(2r)! for r = 1..10, correctly rounded
_EM_COEFFS = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
)


@np.errstate(all="ignore")
def hurwitz_zeta(s: float | np.ndarray, a: float | np.ndarray) -> float | np.ndarray:
    """Hurwitz zeta sum_{k>=0} (a+k)^-s for real s > 1, a > 0.

    s and a are floats or ndarrays that broadcast against each other
    (evaluated elementwise; returns a float if both are scalars, else an
    ndarray).  Powers go through np.float_power, which calls the C library's
    pow for every element like Python's float **, so an array element carries
    the same bits as the scalar call (np.power may use SIMD approximations
    that differ in the last bit).  ValueError names s or a out of range,
    and s and a where the head would take more than _HEAD_MAX terms (s far
    above a, or infinite) or floats cannot hold s, a or the sum (an int beyond
    floats, or a^-s overflowing for small a).
    """
    try:
        order, arg = np.asarray(s, dtype=float), np.asarray(a, dtype=float)
    except (OverflowError, TypeError, ValueError):  # beyond floats, or not a number
        raise ValueError(f"hurwitz_zeta cannot be evaluated in floats at s={s}, a={a}") from None
    for name, given, values, low in (("s", s, order, 1), ("a", a, arg, 0)):
        if not (values > low).all():
            culprit = given if values.ndim == 0 else values[~(values > low)][0]
            raise ValueError(f"hurwitz_zeta requires {name} > {low}, got {name}={culprit}")

    # head: the m terms that lift a to T = a + m >= max(12, s), ascending term
    # size, compensated; an element's sum and compensation stay exactly 0
    # until its first term, k = m - 1
    m = np.maximum(0.0, np.ceil(np.maximum(12.0, order) - arg))
    terms = float(m.max(initial=0.0))
    if not terms <= _HEAD_MAX:  # nan for s = a = inf
        raise ValueError(f"hurwitz_zeta needs {terms:g} head terms at s={s}, a={a}: "
                         f"at most {_HEAD_MAX}, so s - a <= {_HEAD_MAX}")
    head = comp = 0.0
    for k in range(int(terms) - 1, -1, -1):
        y = np.float_power(arg + k, -order, out=np.zeros(m.shape), where=k < m) - comp
        t = head + y
        comp = (t - head) - y
        head = t

    big_t = arg + m
    tail = np.float_power(big_t, 1.0 - order) / (order - 1.0) + 0.5 * np.float_power(big_t, -order)
    poch = order  # s(s+1)...(s+2r-2), starts at r=1 with single factor s
    tpow = np.float_power(big_t, -order - 1.0)
    inv_t2 = 1.0 / (big_t * big_t)
    for r, coef in enumerate(_EM_COEFFS, start=1):
        tail += coef * poch * tpow
        poch = poch * ((order + 2.0 * r - 1.0) * (order + 2.0 * r))
        tpow *= inv_t2
    total = head + tail
    if not np.isfinite(total).all():
        raise ValueError(f"hurwitz_zeta cannot be evaluated in floats at s={s}, a={a}")
    return float(total) if total.ndim == 0 else total


def riemann_zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1."""
    return hurwitz_zeta(s, 1.0)
