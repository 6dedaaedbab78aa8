"""Independent reference implementations for the tests.

Test-suite-only: extended-precision (mpmath, 50 digits) re-derivations of
the closed forms straight from their defining expressions, with none of the
package's floating-point rearrangements, used to freeze expected values and
to bound rounding error; what the fine-structure model misses of an l-pair
of the spectral shift, at 40 digits, a reference for the l-tail bound; a
Thomas-Fermi shooting classifier that checks the collocation solver's
initial slope by a different method; the earlier scipy solve_bvp
Thomas-Fermi solver, kept as a reference for the Chebyshev one; and the
charge and potential of a ball by adaptive quadrature over the profile, a
reference for the exchange-hole kernels.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from mpmath import mpf, sqrt, workdps
from scipy.integrate import (
    IntegrationWarning,
    cumulative_simpson,
    quad,
    simpson,
    solve_bvp,
    solve_ivp,
)

from relscott.thomas_fermi import (
    _KINETIC_PREF,
    DECAY_SIGMA,
    PROFILE_X0,
    PROFILE_X_END,
    TF_LENGTH_B,
    _decay,
)


@workdps(50)
def dirac_lambda_mp(gamma, n: int, l: int, j: float):
    """Bound-state eigenvalue from the unrearranged closed form."""
    g = mpf(str(gamma))
    kb = mpf(2 * j + 1) / 2
    s = sqrt(kb * kb - g * g)
    x_big = n + l - kb + s
    return sqrt(1 - g * g / (x_big * x_big + g * g)) - 1


@workdps(50)
def schroedinger_lambda_mp(gamma, n: int, l: int):
    g = mpf(str(gamma))
    return -g * g / (2 * mpf(n + l) ** 2)


@workdps(50)
def level_difference_mp(gamma, n: int, l: int, j: float):
    return dirac_lambda_mp(gamma, n, l, j) - schroedinger_lambda_mp(gamma, n, l)


@workdps(50)
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


def level_difference_over_gamma2_mp(gamma, kb, u):
    """(lambda_D - lambda_S)/gamma^2 at u = 1/N, at the caller's precision,
    written without cancellation: with z = u^2/D and r = sqrt(1 - gamma^2 z),
    it is -u^2 (4 delta u (1 - kb u)/D + gamma^2 z/(1 + r)) / (2 (1 + r))."""
    g2 = mpf(gamma) ** 2
    delta = g2 / (kb + sqrt(kb * kb - g2))
    d = 1 - 2 * delta * u + 2 * kb * delta * u * u
    z = u * u / d
    r = sqrt(1 - g2 * z)
    return -u * u * (4 * delta * u * (1 - kb * u) / d + g2 * z / (1 + r)) / (2 * (1 + r))


@workdps(40)
def pair_residual_mp(gamma, l: int):
    """What the fine-structure model misses of the pair l >= 1 (both j, all
    n), in s units.  Per channel, the levels N = l + 1..l + 40 are summed
    directly and the rest as sum_{k=3..48} c_k zeta(k, l + 41), c_k the Taylor
    coefficients in u = 1/N of the missed part (c_0..c_2 vanish); as
    |c_k| <= 0.12 4^k, the series' rest is below 1e-49."""
    g2 = mpf(gamma) ** 2
    total = mpf(0)
    for kb in (l, l + 1):
        def miss(u, kb=kb):
            fine_structure = -g2 * u**3 / 2 * (mpf(1) / kb - 0.75 * u)
            return level_difference_over_gamma2_mp(gamma, kb, u) - fine_structure

        c = mpmath.taylor(miss, 0, 48)
        direct = mpmath.fsum(miss(mpf(1) / n) for n in range(l + 1, l + 41))
        series = mpmath.fsum(c[k] * mpmath.zeta(k, l + 41) for k in range(3, 49))
        total += 2 * kb * (direct + series)
    return total


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


def solve_tf_bvp(tol: float) -> tuple[float, float]:
    """(initial slope, E_TF(1)) from scipy's solve_bvp on psi = ln(phi).

    Collocation in v = sqrt(x) out to the library's PROFILE_X_END, on a
    6,001-node geometric mesh started from Sommerfeld's profile, with the
    same Robin and power-law conditions as the library; E_TF(1) from Simpson
    rules on a 30,001-point resample of the collocation spline, with the same
    heads and tails.
    """
    bvp_tol = min(1e-7, max(1e-11, 0.01 * tol))
    v0 = math.sqrt(PROFILE_X0)
    v_far = math.sqrt(PROFILE_X_END)
    x_end = v_far * v_far

    def rhs(v, y, p):
        return np.vstack([y[1], y[1] / v - y[1] * y[1] + 4.0 * v * np.exp(0.5 * y[0])])

    def bc(ya, yb, p):
        phi_end, dphi_end = _decay(x_end, p[0])[:2]
        return np.array([
            math.exp(ya[0]) * (1.0 - 0.5 * v0 * ya[1]) - (1.0 - (2.0 / 3.0) * v0**3),
            yb[0] - np.log(phi_end),
            0.5 * v_far * yb[1] - x_end * dphi_end / phi_end,
        ])

    v_mesh = np.geomspace(v0, v_far, 6001)
    x_mesh = v_mesh * v_mesh
    psi_g = np.log((1.0 + (x_mesh**3 / 144.0) ** (DECAY_SIGMA / 3.0)) ** (-3.0 / DECAY_SIGMA))
    sol = solve_bvp(rhs, bc, v_mesh, np.vstack([psi_g, np.gradient(psi_g, v_mesh)]),
                    p=[13.27], tol=bvp_tol, max_nodes=120_000)
    assert sol.status == 0 or (sol.status == 1 and sol.rms_residuals.max() < 10.0 * bvp_tol)

    v_nodes = sol.x
    dphi0 = math.exp(sol.y[0][0]) * sol.y[1][0] / (2.0 * v_nodes[0])
    slope = (dphi0 - 2.0 * v0) / (1.0 + v0**3)
    vd = np.geomspace(v_nodes[0], v_nodes[-1], 30001)
    xd = vd * vd
    phid = np.exp(sol.sol(vd)[0])
    x_far = float(v_nodes[-1] ** 2)
    t_far = float(sol.p[0]) * x_far ** (-DECAY_SIGMA)
    tail_a = (144.0 * (1.0 - t_far)) ** 1.5 / (4.0 * x_far**4)
    tail_k = (144.0 * (1.0 - t_far)) ** 2.5 / (7.0 * x_far**7)
    i_attr = simpson(2.0 * phid**1.5, x=vd) + 2.0 * v0 + slope * v0**3 + tail_a
    i_kin = simpson(2.0 * phid**2.5, x=vd) + 2.0 * v0 + (5.0 / 3.0) * slope * v0**3 + tail_k
    dq = 2.0 * phid**1.5 * vd * vd
    q = cumulative_simpson(dq, x=vd, initial=0.0) + (2.0 / 3.0) * v0**3
    o = cumulative_simpson((2.0 * phid**1.5)[::-1], x=-vd[::-1], initial=0.0)[::-1] + tail_a
    i_rep = simpson(dq * (q / xd + o), x=vd) + (2.0 / 3.0) * v0**3 * (o[0] + v0) + tail_a
    e_tf_1 = _KINETIC_PREF * i_kin - i_attr / TF_LENGTH_B + i_rep / (2.0 * TF_LENGTH_B)
    return float(slope), float(e_tf_1)


def _shell_integral(sol, f, lo: float, hi: float, kinks=()) -> float:
    """int_lo^hi f(w) dq(w) for rho_1 in Hartree radius w (Z = 1), by quad,
    split at the profile's domain ends and at the given kinks.  An
    IntegrationWarning from quad is raised as an error: an oracle that
    cannot reach its tolerance must fail, not warn."""
    def integrand(w):
        x = w / TF_LENGTH_B
        return f(w) * sol.phi_at(x) ** 1.5 * math.sqrt(x) / TF_LENGTH_B

    ends = [TF_LENGTH_B * float(x) for x in np.exp(sol._breaks)] + list(kinks)
    cuts = sorted({lo, hi, *(c for c in ends if lo < c < hi)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return math.fsum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                         for a, b in zip(cuts[:-1], cuts[1:]))


def ball_charge(sol, d: float, radius: float) -> float:
    """Charge of rho_1 in the ball of given radius centred at |x| = d
    (Hartree, Z = 1): the shells inside it, and the share
    (R - d + w)(R + d - w)/(4 d w) of each shell its sphere cuts."""
    lo, hi = abs(radius - d), radius + d
    inner = _shell_integral(sol, lambda w: 1.0, 0.0, lo) if radius > d else 0.0
    share = lambda w: (radius - d + w) * (radius + d - w) / (4.0 * d * w)
    return inner + _shell_integral(sol, share, lo, hi)


def ball_potential(sol, d: float, radius: float) -> float:
    """int_{|y - x| <= radius} rho_1(y)/|x - y| dy at |x| = d (Hartree,
    Z = 1): dq/max(w, d) from the shells inside the ball and
    (R - |d - w|)/(2 d w) dq from those its sphere cuts."""
    lo, hi = abs(radius - d), radius + d
    total = 0.0
    if radius > d:
        total += _shell_integral(sol, lambda w: 1.0 / d, 0.0, min(lo, d))
        if lo > d:
            total += _shell_integral(sol, lambda w: 1.0 / w, d, lo)
    seg = lambda w: (radius - abs(d - w)) / (2.0 * d * w)
    return total + _shell_integral(sol, seg, lo, hi, kinks=(d,))
