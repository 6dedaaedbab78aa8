"""Spectral shift function s(gamma) and Schwinger's closed-form approximation.

s(gamma) = gamma^-2 * sum over channels (l, j), weight 2j+1, of
sum_n (lambda_D - lambda_S).  Every summand is strictly negative, so s < 0 on
(0, 1); s(0) = 0; the Scott coefficient is q = 1/2 + s(gamma).

Evaluation strategy (all pieces deterministic):
  * channels l < L in the canonical order of quantum_numbers.iter_channels;
  * levels n < _N_SERIES of each channel: row sums of the cancellation-free
    combined-difference kernel, a block of about _BLOCK_ELEMENTS values per
    array at a time;
  * levels n >= _N_SERIES: sum_{k>=3} c_k zeta(k, l + _N_SERIES), the Taylor
    series of f(u) = (lambda_D - lambda_S)/gamma^2 in u = 1/N, cut at the
    smallest order whose proven remainder (|c_k| <= 0.12 4^k) fits tol (all
    candidate orders bounded in one pass), from one zeta table over all
    channels, whose a = l + _N_SERIES >= 32 need no zeta head sum;
  * the channels l >= L in closed form: the fine-structure model, its pairs
    telescoped into three Hurwitz zeta values at L + 1, plus
    -(gamma^4/4) m^-4 - (5/32) gamma^4 (2 + gamma^2) m^-6 per l, m = l + 1/2,
    the leading part of what the model misses; the proven bound C8(gamma) m^-8
    on the rest (see _l_tail_bound_coefficient) sets L directly.  The value
    and the bound take their six zeta values from the column for L of
    _L_TAIL_ZETAS, built once at import for every L <= _L_MAX, so the
    n-series table is a shift's only zeta call;
  * totals by math.fsum, correctly rounded: no order or block size changes a bit.

tail_estimate adds the series remainder bound, the l-remainder bound and a
rounding floor, so |true - returned| <= tail_estimate; ShiftResult keeps each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hydrogenic import (
    Coupling,
    _as_float,
    _delta,
    _gamma_of,
    difference_over_gamma2_kernel,
    fine_structure_kernel,
)
from .quantum_numbers import PRINCIPAL_MAX
from .zeta import hurwitz_zeta, riemann_zeta

# (zeta(3) - 5 pi^2/24): coefficient of gamma^2 in Schwinger's closed form
SCHWINGER_COEFFICIENT = riemann_zeta(3.0) - 5.0 * math.pi**2 / 24.0
# S4 = (19 zeta(4) - 22 zeta(5))/8, correctly rounded: the next coefficient,
# s(gamma) = SCHWINGER_COEFFICIENT gamma^2 + S4 gamma^4 + O(gamma^6).  With
# phi_2 of _l_tail_bound_coefficient, level N of channel kb gives gamma^4 times
# 2 kb^-5 phi_2(kb/N) = -(2 kb^-2 N^-3 + 6 kb^-1 N^-4 - 12 N^-5 + 5 kb N^-6)/8.
# The channels l < N hold kb = 1..N-1 twice and kb = N once, so with
# H_p(N) = sum_{k<=N} k^-p level N sums to -(4 H_2 N^-3 + 12 H_1 N^-4 - 19 N^-4
# + 4 N^-5)/8, and all N to -(4 zeta(3,2) + 12 zeta(4,1) + 20 zeta(5) - 19 zeta(4))/8
# in the double zeta values zeta(a,b) = sum_{N>m>=1} N^-a m^-b.  Euler's
# zeta(4,1) = 2 zeta(5) - zeta(2) zeta(3) and zeta(3,2) = 3 zeta(2) zeta(3)
# - (11/2) zeta(5) leave 22 zeta(5) - 19 zeta(4) in the bracket.
GAMMA4_COEFFICIENT = -0.28103364658031409

TOL_MIN = 1e-10
TOL_MAX = 1e-2
DEFAULT_TOL = 1e-8

# the l-tail bound holds for l >= 8, where every kb >= 8
_L_MIN = 8
# levels n < _N_SERIES are summed directly, the rest by the Taylor series in 1/N
_N_SERIES = 32
# |f| <= _F_MAX on |u| = 1/4 (see _taylor_coefficients), so |c_k| <= _F_MAX 4^k
_F_MAX = 0.12
# the l-tail's zeta(s, L + offset): zeta(2..4, L + 1), zeta(4, 6, 8; L + 1/2)
_L_TAIL_ORDERS, _L_TAIL_OFFSETS = (2.0, 3.0, 4.0, 4.0, 6.0, 8.0), (1.0, 1.0, 1.0, 0.5, 0.5, 0.5)

# values per array of the blocked level sums: rows = channels, so n levels
# give max(1, _BLOCK_ELEMENTS // n) channels a block
_BLOCK_ELEMENTS = 1 << 13
# zeta_double_sum_identity_check sums the diagonals M <= _IDENTITY_M_CAP
_IDENTITY_M_CAP = 10_000


@dataclass(frozen=True)
class ShiftResult:
    """Value of s(gamma) with truncation record and certified tail estimate."""

    gamma: float
    value: float
    tail_estimate: float
    l_max: int  # channels l <= l_max are summed; l > l_max by the l-tail model
    n_max: int  # levels n <= n_max are summed directly; n > n_max by the series
    target_tol: float
    series_order: int  # K: the series in 1/N is cut after the u^K term
    series_bound: float  # tail_estimate = (series_bound + l_bound) + rounding_floor
    l_bound: float
    rounding_floor: float


@dataclass(frozen=True)
class ScottCoefficient:
    """Scott coefficient q = 1/2 + s(gamma); q(0) = 1/2."""

    gamma: float
    q: float
    tail_estimate: float


class ZetaIdentityCheck(NamedTuple):
    """Truncated double sum, its tail bound, and the closed form zeta(s-1)-zeta(s)."""

    double_sum: float
    tail_bound: float
    zeta_difference: float


def check_tol(tol: float | None) -> float:
    """shift's tol as a float (DEFAULT_TOL for None); ValueError outside [TOL_MIN, TOL_MAX]."""
    value = DEFAULT_TOL if tol is None else _as_float(tol)
    if not (TOL_MIN <= value <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    return value


def _channel_arrays(l_count: int) -> tuple[np.ndarray, np.ndarray]:
    """l and kb of the channels l < l_count, in the canonical order:
    kb = 1 for l = 0, and kb = l, l + 1 for l >= 1."""
    ls = np.arange(l_count, dtype=float)
    l = np.repeat(ls, np.where(ls > 0.0, 2, 1))
    kb = l + 1.0
    kb[1::2] -= 1.0  # the first channel of each pair l >= 1
    return l, kb


def _weighted_channel_sums(kernel, gamma: float, l: np.ndarray, kb: np.ndarray, n_terms: int):
    """Per channel, 2kb * sum of kernel(gamma, n + l, kb) over n <= n_terms.

    Channels go through kernel in blocks of about _BLOCK_ELEMENTS values, one
    (rows, n_terms) array per call; each row sums like a 1-D np.sum.
    """
    n = np.arange(1, n_terms + 1, dtype=float)
    rows = max(1, _BLOCK_ELEMENTS // n_terms)
    sums = np.empty_like(kb)
    for start in range(0, kb.size, rows):
        block = slice(start, start + rows)
        sums[block] = kernel(gamma, n + l[block, None], kb[block, None]).sum(axis=1)
    return 2.0 * kb * sums


def _taylor_coefficients(gamma: float, kb: np.ndarray, order: int) -> np.ndarray:
    """c_3..c_order of f(u) = (lambda_D - lambda_S)/gamma^2 = sum_k c_k u^k,
    u = 1/N, one array entry per channel kb.  f = h + u^2/2 with
    1 + gamma^2 h = sqrt(1 - x), x = gamma^2 z, z = u^2/D and
    D = 1 - 2 delta u + 2 kb delta u^2, so
        1/D = sum i_k u^k,  i_0 = 1, i_1 = 2 delta,
                            i_k = 2 delta i_{k-1} - 2 kb delta i_{k-2},
        h_k = -i_{k-2}/2 - (gamma^2/2) sum_{i=2}^{k-2} h_i h_{k-i},
    h_2 = -1/2 is cancelled by u^2/2, and c_k = h_k for k >= 3.  The bound:
    delta <= 1 and kb delta <= gamma^2 <= 1 give |D| >= 3/8 and |x| <= 1/6
    on |u| = 1/4, so f = -(u^2/2)(1 - D)/D + (sqrt(1 - x) - 1 + x/2)/gamma^2
    has |f| <= 5/96 + 1/240 < _F_MAX there.
    Row k of the table h holds h_k; each convolution is one einsum, ascending i.
    """
    g2 = gamma * gamma
    delta = _delta(gamma, kb)
    two_delta, two_kb_delta = 2.0 * delta, 2.0 * kb * delta
    inv_d = [np.ones_like(kb), two_delta]
    for _ in range(2, order - 1):
        inv_d.append(two_delta * inv_d[-1] - two_kb_delta * inv_d[-2])
    h = np.full((order + 1, kb.size), -0.5)  # rows 0, 1 unused, 3.. overwritten
    for k in range(3, order + 1):
        conv = np.einsum("ij,ij->j", h[2 : k - 1], h[k - 2 : 1 : -1])
        h[k] = -0.5 * inv_d[k - 2] - 0.5 * g2 * conv
    return h[3:]


def _series_sums(gamma: float, l: np.ndarray, kb: np.ndarray, order: int) -> np.ndarray:
    """Per channel, 2kb * sum_{k=3..order} c_k zeta(k, l + _N_SERIES): the
    levels n >= _N_SERIES.  One zeta row per order over l = 0..max(l), shared
    by an l's pair; the orders are summed smallest terms first."""
    k = np.arange(3.0, order + 1.0)[:, None]
    zetas = hurwitz_zeta(k, np.arange(l.max() + 1.0) + _N_SERIES)[:, l.astype(np.intp)]
    coeffs = _taylor_coefficients(gamma, kb, order)
    return 2.0 * kb * np.einsum("kj,kj->j", coeffs[::-1], zetas[::-1])


def _series_order(kb: np.ndarray, a: np.ndarray, budget: float) -> tuple[int, float]:
    """Smallest order K >= 3 whose series remainder bound fits budget, and the bound.

    Per channel, |sum_{k>K} c_k zeta(k, a)| <= _F_MAX sum_{k>K} 4^k zeta(k, a),
    and zeta(k, a) <= a^-k + a^(1-k)/(k-1) gives, with q = 4/a <= 1/8,
    at most _F_MAX q^(K+1) (1 + a/K) / (1 - q); summed with weight 2kb.
    As q^(K+1) (1 + a/K) = q^K (q + 4/K) < 2 q^K, 2 max(q)^K sum(weight) fixes the
    last order, and one table bounds all up to it.  Raises ValueError if none fits.
    """
    q = 4.0 / a
    weight = 2.0 * _F_MAX * kb / (1.0 - q)
    span = math.log(2.0 * float(np.sum(weight))) - math.log(budget) if budget > 0.0 else 0.0
    last = max(3, math.ceil(span / -math.log(float(q.max()))))
    q_pow = np.multiply.accumulate(np.vstack([(q * q) * (q * q)] + [q] * (last - 3)))
    bounds = (weight * q_pow * (1.0 + a / np.arange(3.0, last + 1.0)[:, None])).sum(axis=1)
    i = int(np.argmax(bounds <= budget))  # the first order that fits, if any
    if not bounds[i] <= budget:
        raise ValueError(f"no series order fits the remainder budget {budget}")
    return 3 + i, float(bounds[i])


def _truncated_sum(kernel, g: Coupling | float, l_max: int, n_max: int) -> float:
    """fsum of kernel's _weighted_channel_sums, l <= l_max and n <= n_max, at gamma of g in
    [0, 1] (0.0 at 0); cutoffs ints with l_max >= 0 and 1 <= n_max <= PRINCIPAL_MAX - l_max."""
    gamma = _gamma_of(g, closed_top=True)
    if not (isinstance(l_max, int) and isinstance(n_max, int)
            and l_max >= 0 and 1 <= n_max <= PRINCIPAL_MAX - l_max):
        raise ValueError(f"cutoffs must be ints, l >= 0, n >= 1 and n + l <= 2**53, "
                         f"got {l_max!r}, {n_max!r}")
    if gamma == 0.0:
        return 0.0
    l, kb = _channel_arrays(l_max + 1)
    return math.fsum(_weighted_channel_sums(kernel, gamma, l, kb, n_max).tolist())


def direct_channel_sum(g: Coupling | float, l_cut: int, n_cut: int) -> float:
    """Plain truncated channel sum: gamma^-2-weighted, l <= l_cut, n <= n_cut.

    Exposes the monotone-refinement surface: every term is negative, so the
    partial sum is nonincreasing in both cutoffs.  gamma = 1 is admitted;
    raises ValueError like schwinger_shift_bruteforce.
    """
    return _truncated_sum(difference_over_gamma2_kernel, g, l_cut, n_cut)


def _l_tail(gamma: float, l_count: int, zetas: list[float]) -> tuple[float, float]:
    """Value of the channels l >= L = l_count, all n: the fine-structure
    model plus -(gamma^4/4) zeta(4, L + 1/2) - (5/32) gamma^4 (2 + gamma^2)
    zeta(6, L + 1/2), the leading part of what the model misses; and its
    bound C8(gamma) zeta(8, L + 1/2) (see _l_tail_bound_coefficient).  zetas
    holds zeta(_L_TAIL_ORDERS, L + _L_TAIL_OFFSETS), in shift a column of
    _L_TAIL_ZETAS.

    The complete-n channel pair at l >= 1 is
    sum_j (2j+1) sum_n fs(N)/gamma^4 = -2 zeta(3, l+1) + (3/4)(2l+1) zeta(4, l+1),
    and the pairs l >= L telescope, summing over n first:
        sum_{l>=L} zeta(s, l+1) = zeta(s-1, L+1) - L zeta(s, L+1),
        sum_{l>=L} (2l+1) zeta(s, l+1) = zeta(s-2, L+1) - L^2 zeta(s, L+1).
    The three terms that result cancel only about 5x (-1.25/L, +1/L, -0.25/L).
    """
    g2 = gamma * gamma
    z2, z3, z4, z4_mid, z6_mid, z8_mid = zetas
    fine_structure = -1.25 * z2 + 2.0 * l_count * z3 - 0.75 * l_count * l_count * z4
    missed = 0.25 * z4_mid + 0.15625 * (2.0 + g2) * z6_mid
    return g2 * fine_structure - g2 * g2 * missed, _l_tail_bound_coefficient(gamma) * z8_mid


def _l_tail_bound_coefficient(gamma: float) -> float:
    """C8(gamma) = (gamma^4 + 12 gamma^6 + 5 gamma^8)/20: for l >= 8 and
    m = l + 1/2, |R(l) + (gamma^4/4) m^-4 + (5/32) gamma^4 (2 + gamma^2) m^-6|
    <= C8 m^-8, where R(l) is what the fine-structure model misses of the
    pair l (both j, all n, in s units).

    Per level, with w = gamma^2/kb^2 <= 1/64 and t = N/kb >= 1,
        kb^2 (lambda_D - lambda_S)/gamma^2 = phi(w, t)
            = -(t - 1) d/(t^2 E) - w/(2 E^2 (1 + sqrt(1 - y))^2),
        d = 1 - sqrt(1 - w),  E = t^2 - 2 (t - 1) d,  y = w/E.
    d, 1/E, y and (1 - sqrt(1 - y))/y are series in w with coefficients
    >= 0, so phi = sum_{j>=1} phi_j(t) w^j with every phi_j <= 0, and
    sum_j |phi_j| = |phi(1, t)| <= 2 t^-3 (at w = 1, E >= t^2/2).  phi_1 w is
    the fine-structure term, and with x = 1/t
        phi_2 = -(2 + 6x - 12x^2 + 5x^3) x^3/16,
        phi_3 = -(1 + 3x + x^2 - 15x^3 + 15x^4 - 35x^5/8) x^3/16,
        phi_4 = -(10 + 30x + 24x^2 - 80x^3 - 180x^4 + 420x^5 - 280x^6 + 63x^7) x^3/256,
    the last bracket lying in [7, 19.41] on [0, 1].  Level N of channel kb
    weighs 2 phi/kb, so phi_j gives the pair gamma^(2j) times a sum of
    zk = zeta(k, l + 1) times powers of l and l + 1.  The midpoint
    Euler-Maclaurin brackets of the completely monotone x^-k,
        zk = m^(1-k)/(k-1) - k m^(-1-k)/24 + 7k(k+1)(k+2) m^(-3-k)/5760
             - theta_k 31k(k+1)(k+2)(k+3)(k+4) m^(-5-k)/967680
    with 0 <= theta_k <= 1, bound these sums; each piece times m^8 is largest
    at m = 8.5, where the bounds below are taken.
    (i) phi_2's pair is gamma^4 P6(l),
        P6 = -(1/8) [2 z3 (l^-2 + (l+1)^-2) + 6 z4 (l^-1 + (l+1)^-1)
                     - 24 z5 + 10 m z6]
           = -m^-4/4 - (5/16) m^-6 - 7(36m^2 - 7)/(192 m^8 (4m^2 - 1)^2) + eps
    exactly, eps being the theta terms, |eps| <= 0.042 m^-8; so
    |P6 + m^-4/4 + (5/16) m^-6| <= 0.044 m^-8.
    (ii) phi_3's pair is gamma^6 P8(l),
        P8 = -(1/8) [z3 (l^-4 + (l+1)^-4) + 3 z4 (l^-3 + (l+1)^-3)
                     + z5 (l^-2 + (l+1)^-2) - 15 z6 (l^-1 + (l+1)^-1)
                     + 30 z7 - (35/4) m z8],
    and the brackets give |P8 + (5/32) m^-6| <= 0.556 m^-8 (-35/64 as m -> oo).
    (iii) The rest, sum_{j>=4} phi_j w^j, is at most
    (19.41/256 + 2w) w^4 t^-3 <= (0.076 + gamma^2/32) w^4 t^-3 per level.
    With sum_{N>l} N^-3 <= m^-2/2 (convexity) and l^-6 + (l+1)^-6 <= 2.15 m^-6,
    the pair gets at most (0.164 + 0.068 gamma^2) gamma^8 m^-8.
    So 0.044 gamma^4 + 0.556 gamma^6 + 0.232 gamma^8 would do, and C8 is larger.
    """
    g2 = gamma * gamma
    return g2 * g2 * (1.0 + g2 * (12.0 + 5.0 * g2)) / 20.0


# shift's L is at most _L_MAX = ceil((C8(1)/(2.8 TOL_MIN))^(1/7)) = 23, as C8
# grows with gamma; column L - _L_MIN holds the l-tail's six zeta values at L,
# each element with its scalar call's bits
_L_MAX = math.ceil((_l_tail_bound_coefficient(1.0) / (2.8 * TOL_MIN)) ** (1.0 / 7.0))
_L_TAIL_ZETAS = hurwitz_zeta(
    np.array(_L_TAIL_ORDERS)[:, None],
    np.add.outer(_L_TAIL_OFFSETS, np.arange(_L_MIN, _L_MAX + 1.0)),
)
_L_TAIL_ZETAS.flags.writeable = False


def shift(g: Coupling | float, tol: float | None = None) -> ShiftResult:
    """Spectral shift s(gamma) with |true - returned| <= tail_estimate <= tol.

    tol defaults to DEFAULT_TOL.  Below gamma of about 1e-154, gamma^2
    underflows and the value is subnormal (or 0); tail_estimate, at least the
    rounding floor, still bounds the error.  Raises ValueError on domain
    violations (gamma outside [0,1), tol outside [1e-10, 1e-2]).
    """
    gamma = _gamma_of(g)
    tol = check_tol(tol)
    if gamma == 0.0:
        return ShiftResult(gamma, 0.0, 0.0, 0, 0, tol, 0, 0.0, 0.0, 0.0)

    # the l >= L error is at most C8 zeta(8, L + 1/2) <= C8 L^-7/7 <= 0.4 tol
    c8 = _l_tail_bound_coefficient(gamma)
    l_count = max(_L_MIN, math.ceil((c8 / (2.8 * tol)) ** (1.0 / 7.0)))
    if l_count > _L_MAX:
        raise ValueError(f"l-tail cutoff L = {l_count} exceeds the zeta table's _L_MAX = {_L_MAX}")
    l_tail, l_res = _l_tail(gamma, l_count, _L_TAIL_ZETAS[:, l_count - _L_MIN].tolist())

    l, kb = _channel_arrays(l_count)
    order, series_res = _series_order(kb, l + _N_SERIES, 0.9 * tol - l_res)
    direct = _weighted_channel_sums(difference_over_gamma2_kernel, gamma, l, kb, _N_SERIES - 1)
    series = _series_sums(gamma, l, kb, order)
    value = math.fsum((direct + series).tolist())
    floor = 64.0 * sys.float_info.epsilon * (1.0 + abs(value))  # rounding
    return ShiftResult(
        gamma, value + l_tail, series_res + l_res + floor, l_count - 1, _N_SERIES - 1, tol,
        order, series_res, l_res, floor,
    )


def scott_coefficient(g: Coupling | float, tol: float | None = None) -> ScottCoefficient:
    """Scott coefficient q = 1/2 + s(gamma); propagates the tail estimate."""
    res = shift(g, tol)
    return ScottCoefficient(res.gamma, 0.5 + res.value, res.tail_estimate)


def schwinger_shift(g: Coupling | float) -> float:
    """Schwinger's closed form (zeta(3) - 5 pi^2/24) gamma^2 ~ -0.8541 gamma^2.

    Polynomial in gamma; gamma = 1 is admitted (plain float argument).
    """
    gamma = _gamma_of(g, closed_top=True)
    return SCHWINGER_COEFFICIENT * gamma * gamma


def schwinger_shift_bruteforce(g: Coupling | float, l_max: int, n_max: int) -> float:
    """Raw truncated double sum of the weighted fine-structure corrections.

    gamma^-2 sum_{l<=l_max} sum_j (2j+1) sum_{n<=n_max} fs(n,l,j); converges
    to schwinger_shift as the cutoffs grow (the l-truncation error for
    gamma=1 is about 1/(2 l_max)).  gamma = 1 is admitted.
    """
    return _truncated_sum(lambda g, p, k: fine_structure_kernel(g, p, k) / (g * g),
                          g, l_max, n_max)


def zeta_double_sum_identity_check(s: float) -> ZetaIdentityCheck:
    """Check sum_{m,n>=1} (m+n)^-s = zeta(s-1) - zeta(s) by truncated summation.

    The double sum collapses along diagonals to sum_{M>=2} (M-1) M^-s; it is
    truncated at M <= _IDENTITY_M_CAP = 10,000 with the integral tail bound
    10,000^(2-s)/(s-2) (hence the finite s > 2 requirement).  Returns
    (double_sum, tail_bound, zeta_difference); the first and last agree
    within tail_bound.
    """
    if not 2.0 < _as_float(s) < math.inf:
        raise ValueError(f"identity check requires finite s > 2, got {s}")
    s = float(s)
    m = np.arange(2, _IDENTITY_M_CAP + 1, dtype=float)
    with np.errstate(under="ignore"):
        terms = (m - 1.0) * m ** (-s)
    double_sum = math.fsum(terms.tolist())
    tail_bound = _IDENTITY_M_CAP ** (2.0 - s) / (s - 2.0)
    closed = riemann_zeta(s - 1.0) - riemann_zeta(s)
    return ZetaIdentityCheck(double_sum, tail_bound, closed)
