"""Closed-form hydrogenic spectra at coupling gamma = Z/c.

Energies are dimensionless (units of mc^2, rest energy subtracted).  With
N = n + l the principal quantum number and kb = j + 1/2:

    lambda_D = sqrt(1 - gamma^2 / Delta) - 1,
    Delta    = N^2 - 2 (N - kb) delta,      delta = gamma^2 / (kb + sqrt(kb^2 - gamma^2)),
    lambda_S = -gamma^2 / (2 N^2),

where delta equals kb - sqrt(kb^2 - gamma^2) exactly but is evaluated in the
rationalized form above, in _delta alone (scott_shift's Taylor coefficients
call it too).  lambda_D - lambda_S is evaluated as a single combined rational
expression with no subtraction of nearly equal quantities, and lambda_D
itself as lambda_S + (lambda_D - lambda_S), so the returned values stay
accurate to ~1e-15 relative even at N ~ 1e4 where the naive subtractions lose
all significance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from .quantum_numbers import PRINCIPAL_MAX, LevelIndex

# Dimensionless energies below; Hartree-valued quantities elsewhere in the
# package use this alias to mark the unit in signatures.
EnergyHa: TypeAlias = float

# Envelope constant: |lambda_D - lambda_S| <= C * gamma^4 / (N^3 * max(l, 1)).
# C = 2 is proven for gamma <= 1: |phi(w, t)| <= w |phi(1, t)| <= 2 w t^-3
# (scott_shift._l_tail_bound_coefficient) with w = gamma^2/kb^2, t = N/kb
# gives 2 gamma^4/(kb N^3), and kb >= max(l, 1).  The tests check the
# empirical 1.5: the largest ratio seen (l < 60, N < l + 2000, gamma up to
# 1 - 1e-12) is 1.35.
LEVEL_DIFFERENCE_ENVELOPE_C = 1.5


@dataclass(frozen=True)
class Coupling:
    """Relativistic coupling gamma = Z/c, valid on 0 <= gamma < 1."""

    gamma: float

    def __post_init__(self) -> None:
        g = float(self.gamma)
        if not (0.0 <= g < 1.0) or not math.isfinite(g):
            raise ValueError(f"coupling gamma must satisfy 0 <= gamma < 1, got {self.gamma!r}")
        object.__setattr__(self, "gamma", g)


def _gamma_of(g: Coupling | float, *, closed_top: bool = False) -> float:
    """Extract and validate gamma; closed_top admits gamma = 1 for floats."""
    if isinstance(g, Coupling):
        return g.gamma
    gv = float(g)
    hi_ok = gv <= 1.0 if closed_top else gv < 1.0
    if not (0.0 <= gv and hi_ok) or not math.isfinite(gv):
        top = "1]" if closed_top else "1)"
        raise ValueError(f"gamma must lie in [0, {top}, got {g!r}")
    return gv


# ---------------------------------------------------------------------------
# vectorized kernels (principal N may be an array); used by the channel sums
# ---------------------------------------------------------------------------

def _delta(gamma: float, kappa_bar):
    """kb - sqrt(kb^2 - gamma^2), rationalized: O(gamma^2) with no cancellation."""
    return gamma * gamma / (kappa_bar + np.sqrt((kappa_bar - gamma) * (kappa_bar + gamma)))


def dirac_lambda_kernel(gamma: float, principal, kappa_bar: float):
    """lambda_D = lambda_S + (lambda_D - lambda_S) over an array of principal
    numbers N at fixed channel kb; the difference is difference_kernel's."""
    n_pr = np.asarray(principal, dtype=float)
    return difference_kernel(gamma, n_pr, kappa_bar) - gamma * gamma / (2.0 * n_pr * n_pr)


def difference_over_gamma2_kernel(gamma: float, principal, kappa_bar: float):
    """(lambda_D - lambda_S)/gamma^2 as one combined rational expression.

    With a = sqrt(1-x), b = 1 - gamma^2/(2N^2) the difference a - b is
    evaluated as (a^2 - b^2)/(a + b); the numerator collapses to
    -gamma^2 [2 (N - kb) delta / (N^2 Delta) + gamma^2/(4 N^4)], a sum of
    nonnegative well-conditioned terms, so the result is strictly negative
    for gamma > 0 and carries no subtractive cancellation.  The gamma^2
    factor is removed analytically (delta itself is O(gamma^2)), keeping the
    channel sums finite-term-by-term down to gamma -> 0.

    Elementwise in principal and kappa_bar, which broadcast: a (rows, n)
    principal with a (rows, 1) kappa_bar evaluates one channel per row, with
    the same bits as a 1-D call per channel.
    """
    n_pr = np.asarray(principal, dtype=float)
    g2 = gamma * gamma
    delta = _delta(gamma, kappa_bar)
    n2 = n_pr * n_pr
    fs_shift = 2.0 * (n_pr - kappa_bar) * delta  # Delta = N^2 - fs_shift
    big = n2 - fs_shift
    # 1 - x without rounding gamma^2 against N^2, which would cost the ground
    # state digits as gamma -> 1
    one_minus_x = ((n_pr - gamma) * (n_pr + gamma) - fs_shift) / big
    numer = -(fs_shift / (n2 * big) + g2 / (4.0 * n2 * n2))
    denom = np.sqrt(one_minus_x) + 1.0 - g2 / (2.0 * n2)
    return numer / denom


def difference_kernel(gamma: float, principal, kappa_bar: float):
    """lambda_D - lambda_S over an array of principal numbers (see above)."""
    return gamma * gamma * difference_over_gamma2_kernel(gamma, principal, kappa_bar)


def fine_structure_kernel(gamma: float, principal, kappa_bar: float):
    """-gamma^4/(2 N^3) (1/kb - 3/(4N)) over an array of principal numbers."""
    n_pr = np.asarray(principal, dtype=float)
    g4 = gamma**4
    return -g4 / (2.0 * n_pr**3) * (1.0 / kappa_bar - 0.75 / n_pr)


# ---------------------------------------------------------------------------
# scalar operations on validated level indices
# ---------------------------------------------------------------------------

def dirac_level(g: Coupling | float, idx: LevelIndex) -> float:
    """Dirac-Coulomb bound-state energy lambda_D (dimensionless, < 0)."""
    gamma = _gamma_of(g)
    return float(dirac_lambda_kernel(gamma, idx.principal, idx.channel.kappa_bar))


def schroedinger_level(g: Coupling | float, n: int, l: int) -> float:
    """Nonrelativistic hydrogenic energy -gamma^2 / (2 (n+l)^2)."""
    gamma = _gamma_of(g)
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if not isinstance(n, int) or not 1 <= n <= PRINCIPAL_MAX - l:
        raise ValueError(f"n must be an integer >= 1 with n + l <= 2**53, got n={n!r}, l={l}")
    n_pr = n + l
    return -gamma * gamma / (2.0 * n_pr * n_pr)


def level_difference(g: Coupling | float, idx: LevelIndex) -> float:
    """lambda_D - lambda_S, cancellation-free; strictly negative for gamma > 0.

    Satisfies |result| <= LEVEL_DIFFERENCE_ENVELOPE_C * gamma^4 / (N^3 max(l,1)).
    gamma = 0 returns exactly 0.0.
    """
    gamma = _gamma_of(g)
    if gamma == 0.0:
        return 0.0
    return float(difference_kernel(gamma, idx.principal, idx.channel.kappa_bar))


def fine_structure_term(g: Coupling | float, idx: LevelIndex) -> float:
    """Leading relativistic correction -gamma^4/(2N^3)(1/(j+1/2) - 3/(4N))."""
    gamma = _gamma_of(g, closed_top=True)
    return float(fine_structure_kernel(gamma, idx.principal, idx.channel.kappa_bar))


def coulomb_expectation(g: Coupling | float, idx: LevelIndex) -> float:
    """Expectation <gamma/|x|> in the Dirac-Coulomb eigenstate (positive).

    Closed form: gamma^2 (kb^2 + (N-kb) s) / (s ((s + N - kb)^2 + gamma^2)^{3/2})
    with s = sqrt(kb^2 - gamma^2).  Tends to the virial value gamma^2/N^2 as
    gamma -> 0; gamma = 0 returns exactly 0.0.
    """
    gamma = _gamma_of(g)
    if gamma == 0.0:
        return 0.0
    kb = idx.channel.kappa_bar
    n_pr = float(idx.principal)
    g2 = gamma * gamma
    s = math.sqrt((kb - gamma) * (kb + gamma))
    big = (s + n_pr - kb) ** 2 + g2
    return g2 * (kb * kb + (n_pr - kb) * s) / (s * big**1.5)
