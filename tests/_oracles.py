"""Independent reference implementations for the tests.

Test-suite-only: extended-precision (mpmath, 50 digits) re-derivations of
the closed forms straight from their defining expressions, with none of the
package's floating-point rearrangements, used to freeze expected values and
to bound rounding error; and a Thomas-Fermi shooting classifier that checks
the collocation solver's initial slope by a different method.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf, sqrt
from scipy.integrate import solve_ivp

mp.dps = 50


def dirac_lambda_mp(gamma, n: int, l: int, j: float):
    """Bound-state eigenvalue from the unrearranged closed form."""
    g = mpf(str(gamma))
    kb = mpf(2 * j + 1) / 2
    s = sqrt(kb * kb - g * g)
    x_big = n + l - kb + s
    return sqrt(1 - g * g / (x_big * x_big + g * g)) - 1


def schroedinger_lambda_mp(gamma, n: int, l: int):
    g = mpf(str(gamma))
    return -g * g / (2 * mpf(n + l) ** 2)


def level_difference_mp(gamma, n: int, l: int, j: float):
    return dirac_lambda_mp(gamma, n, l, j) - schroedinger_lambda_mp(gamma, n, l)


def coulomb_expectation_mp(gamma, n: int, l: int, j: float):
    """Eigenstate Coulomb expectation from the unrearranged closed form."""
    g = mpf(str(gamma))
    kb = mpf(2 * j + 1) / 2
    s = sqrt(kb * kb - g * g)
    n_pr = n + l
    return (
        g * g * (kb * kb + (n_pr - kb) * s)
        / (s * ((s + n_pr - kb) ** 2 + g * g) ** mpf("1.5"))
    )


def shoot_classify(slope: float) -> int:
    """Integrate phi'' = phi^{3/2}/sqrt(x) outward from phi'(0) = slope.

    Returns -1 if phi crosses zero (slope too steep, overshoot), +1 if phi'
    turns positive (slope too shallow, undershoot), 0 if neither happens by
    x = 100.  The exact initial slope separates the two outcomes.
    """
    x0 = 1e-6
    # series head phi = 1 + s x + (4/3) x^{3/2} + (2/5) s x^{5/2} + ...
    phi0 = 1.0 + slope * x0 + 4.0 / 3.0 * x0 * math.sqrt(x0) + 0.4 * slope * x0 * x0 * math.sqrt(x0)
    dphi0 = slope + 2.0 * math.sqrt(x0) + slope * x0 * math.sqrt(x0)

    def hit_zero(x, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def slope_turn(x, y):
        return y[1]

    slope_turn.terminal = True
    slope_turn.direction = 1

    sol = solve_ivp(
        lambda x, y: [y[1], max(y[0], 0.0) ** 1.5 / math.sqrt(x)],
        [x0, 100.0],
        [phi0, dphi0],
        events=[hit_zero, slope_turn],
        method="DOP853",
        rtol=1e-10,
        atol=1e-14,
    )
    if sol.t_events[0].size:
        return -1
    if sol.t_events[1].size:
        return +1
    return 0
