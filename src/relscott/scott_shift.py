"""Spectral shift function s(gamma) and Schwinger's closed-form approximation.

s(gamma) = gamma^-2 * sum over channels (l, j), weight 2j+1, of
sum_n (lambda_D - lambda_S).  Every summand is strictly negative, so s < 0 on
(0, 1); s(0) = 0; the Scott coefficient is q = 1/2 + s(gamma).

Evaluation strategy (all pieces deterministic):
  * channels are taken in the canonical order of quantum_numbers.iter_channels
    (increasing l, then kappa_bars(l)) and evaluated a block at a time: one
    2-D call of the cancellation-free combined-difference kernel per block
    (one row per channel, its levels n <= N along the row, about
    _BLOCK_ELEMENTS values per block), whose row sums are the channels'
    direct sums over l < L, n <= N;
  * per-channel n-tails summed in closed form with Hurwitz zeta (over the
    array of channels) at the exact 1/N^3..1/N^5 expansion coefficients of
    the channel (residual ~ N^-6, certified at runtime by a cutoff-doubling
    indicator); the tails at 2N are reused as the next doubling's tails at N;
  * the l >= L remainder in the fine-structure model, summed exactly via the
    double-sum zeta identity, with a computed bound on the model error (the
    exact coefficient mismatches are gamma^6/(2 kb (kb+s)^2) at 1/N^3 and
    3 gamma^6/(2 (kb+s)^2) at 1/N^4), its l-window evaluated as arrays;
  * the per-channel (or per-l) terms are reduced one at a time with a
    Neumaier-compensated sum in the canonical order, so the block size does
    not change a bit of the result.

The reported tail_estimate adds the doubling indicator (a ~30x overestimate
of the returned value's n-tail error), the l-remainder bound, and a rounding
floor; the acceptance suite certifies |true - returned| <= tail_estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hydrogenic import (
    Coupling,
    _gamma_of,
    difference_over_gamma2_kernel,
    fine_structure_kernel,
    tail_coefficients_reduced,
)
from .quantum_numbers import kappa_bars
from .zeta import ZETA_2, ZETA_4, hurwitz_zeta, riemann_zeta

# (zeta(3) - 5 pi^2/24): coefficient of gamma^2 in Schwinger's closed form
SCHWINGER_COEFFICIENT = riemann_zeta(3.0) - 5.0 * math.pi**2 / 24.0

TOL_MIN = 1e-10
TOL_MAX = 1e-2
DEFAULT_TOL = 1e-8
DEFAULT_TOL_NEAR_ONE = 1e-6  # gamma > 0.9: the j=1/2 channels converge slower

_L_START = 8
_L_CAP = 8192
_N_START = 64
_N_CAP = 1 << 16

# safety factor on the c5-term bound covering the unmodelled N^-5+ mismatch
# in the l-tail model-error estimate (validated in the test suite)
_L_RESIDUAL_SAFETY = 1.25
# l-values the residual bound may sum before it stops: l_count .. l_count + 513
_L_WINDOW = 514

# kernel values per call of the blocked channel sums: rows = channels, so
# 2*n_cut columns give max(1, _BLOCK_ELEMENTS // (2*n_cut)) channels a block.
# On tol-1e-10 shifts twice this is no faster, and four times it is slower
# and adds about 2 MB of peak RSS.
_BLOCK_ELEMENTS = 1 << 13


class ToleranceUnreachableError(RuntimeError):
    """Raised when the residual bound cannot be driven below tol within caps."""


@dataclass(frozen=True)
class ShiftResult:
    """Value of s(gamma) with truncation record and certified tail estimate."""

    gamma: Coupling
    value: float
    tail_estimate: float
    l_max: int
    n_max: int
    target_tol: float


@dataclass(frozen=True)
class ScottCoefficient:
    """Scott coefficient q = 1/2 + s(gamma); q(0) = 1/2."""

    gamma: Coupling
    q: float
    tail_estimate: float


class ZetaIdentityCheck(NamedTuple):
    """Truncated double sum, its tail bound, and the closed form zeta(s-1)-zeta(s)."""

    double_sum: float
    tail_bound: float
    zeta_difference: float


def _as_coupling(g: Coupling | float) -> Coupling:
    return g if isinstance(g, Coupling) else Coupling(float(g))


def _compensated_sum(values) -> float:
    """Neumaier-compensated total of values, added in the given order.

    A fixed order gives bit-stable totals; every channel sum reduces its
    per-channel terms this way, in the canonical channel order.
    """
    s = 0.0
    c = 0.0
    for x in np.asarray(values, dtype=float).tolist():
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    return s + c


def _channel_arrays(l_start: int, l_stop: int) -> tuple[np.ndarray, np.ndarray]:
    """l and kb of the channels l_start <= l < l_stop, in the canonical order."""
    flat = np.fromiter(
        (x for l in range(l_start, l_stop) for kb in kappa_bars(l) for x in (l, kb)), dtype=float
    )
    l, kb = flat.reshape(-1, 2).T
    return l, kb


def _weighted_channel_sums(
    kernel, gamma: float, l: np.ndarray, kb: np.ndarray, n_terms: int, n_split: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per channel, 2kb * sum of kernel(gamma, n + l, kb) over n <= n_split
    and over n_split < n <= n_terms.

    Channels go through kernel in blocks of about _BLOCK_ELEMENTS values, one
    (rows, n_terms) array per call; each row sums like a 1-D np.sum.
    """
    n = np.arange(1, n_terms + 1, dtype=float)
    rows = max(1, _BLOCK_ELEMENTS // n_terms)
    head = np.empty_like(kb)
    rest = np.empty_like(kb)
    for start in range(0, kb.size, rows):
        block = slice(start, start + rows)
        vals = kernel(gamma, n + l[block, None], kb[block, None])
        head[block] = vals[:, :n_split].sum(axis=1)
        rest[block] = vals[:, n_split:].sum(axis=1)
    w = 2.0 * kb
    return w * head, w * rest


def direct_channel_sum(gamma: float, l_cut: int, n_cut: int) -> float:
    """Plain truncated channel sum: gamma^-2-weighted, l <= l_cut, n <= n_cut.

    Exposes the monotone-refinement surface: every term is negative, so the
    partial sum is nonincreasing in both cutoffs.
    """
    l, kb = _channel_arrays(0, l_cut + 1)
    sums, _ = _weighted_channel_sums(difference_over_gamma2_kernel, gamma, l, kb, n_cut, n_cut)
    return _compensated_sum(sums)


def _model_tails(gamma: float, l: np.ndarray, kb: np.ndarray, offset: int) -> np.ndarray:
    """Closed-form n-tails (weight included), one per channel:
    2kb * sum_{N >= l + offset} model(N)/gamma^2."""
    r3, r4, r5 = tail_coefficients_reduced(gamma, kb)
    a = l + float(offset)
    return 2.0 * kb * (
        r3 * hurwitz_zeta(3.0, a) + r4 * hurwitz_zeta(4.0, a) + r5 * hurwitz_zeta(5.0, a)
    )


def _direct_plus_model(
    gamma: float, l: np.ndarray, kb: np.ndarray, n_cut: int, tails: np.ndarray | None = None
) -> tuple[float, float, np.ndarray]:
    """Totals at n-cutoffs n_cut and 2*n_cut over the given channels.

    Both totals include the per-channel closed-form n-tail; their difference
    is the runtime indicator for the model-tail residual.  tails are the
    model tails at n_cut if known (the previous doubling's tails at its
    2*n_cut); the tails at 2*n_cut are returned for the next doubling.
    """
    head, rest = _weighted_channel_sums(
        difference_over_gamma2_kernel, gamma, l, kb, 2 * n_cut, n_cut
    )
    if tails is None:
        tails = _model_tails(gamma, l, kb, n_cut + 1)
    tails2 = _model_tails(gamma, l, kb, 2 * n_cut + 1)
    return _compensated_sum(head + tails), _compensated_sum(head + rest + tails2), tails2


# sum_{l>=1} of the complete-n fine-structure channel pairs (see
# _l_tail_closed_form), in closed form via sum_{m,n>=1} (m+n)^-s = zeta(s-1) - zeta(s)
_FS_FULL_L_SUM = -2.0 * (ZETA_2 - riemann_zeta(3.0)) + 0.75 * (ZETA_2 - ZETA_4)


def _l_tail_closed_form(gamma: float, l_count: int) -> float:
    """Fine-structure-model value of the channels l >= l_count, all n.

    The complete-n channel pair at l >= 1 is
    sum_j (2j+1) sum_n fs(N)/gamma^4 = -2 zeta(3, l+1) + (3/4)(2l+1) zeta(4, l+1);
    the pairs l < l_count are subtracted from their closed-form total.
    """
    l = np.arange(1.0, l_count)
    terms = -2.0 * hurwitz_zeta(3.0, l + 1.0) + 0.75 * (2.0 * l + 1.0) * hurwitz_zeta(4.0, l + 1.0)
    return gamma * gamma * (_FS_FULL_L_SUM - _compensated_sum(terms))


def _l_tail_residual_bound(gamma: float, l_count: int) -> float:
    """Bound on the fine-structure model error over channels l >= l_count >= 1.

    Per channel and level the model misses exactly gamma^6/(2 kb (kb+s)^2) at
    1/N^3 and 3 gamma^6/(2 (kb+s)^2) at 1/N^4, plus the c5/N^5 term (taken
    with a safety factor); summed over n with Hurwitz zeta and over l with an
    integral-comparison remainder (terms fall like l^-4).  The l-sum runs in
    order until the term at l falls below 1e-4 of the running total (at least
    8 steps, at most _L_WINDOW); the window is evaluated as arrays and the
    running totals are a cumulative sum.
    """
    g2 = gamma * gamma
    l, kb = _channel_arrays(l_count, l_count + _L_WINDOW)
    s = np.sqrt((kb - gamma) * (kb + gamma))
    sq = np.float_power(kb + s, 2.0)  # the C library's pow, as in zeta: keeps the pinned bits
    m3 = g2 * g2 / (2.0 * kb * sq)  # gamma^6/... divided by gamma^2
    m4 = 3.0 * g2 * g2 / (2.0 * sq)
    _, _, r5 = tail_coefficients_reduced(gamma, kb)
    a = l + 1.0
    channel_terms = 2.0 * kb * (
        m3 * hurwitz_zeta(3.0, a)
        + m4 * hurwitz_zeta(4.0, a)
        + _L_RESIDUAL_SAFETY * np.abs(r5) * hurwitz_zeta(5.0, a)
    )
    terms = channel_terms[0::2] + channel_terms[1::2]  # the pair (l, l+1) of each l >= 1
    totals = np.cumsum(terms)
    step = np.arange(_L_WINDOW)
    stop = int(np.argmax(((step >= 8) & (terms < 1e-4 * totals)) | (step >= _L_WINDOW - 1)))
    # integral-comparison bound on the rest
    return float(totals[stop] + terms[stop] * (l_count + stop) / 3.0)


def default_tolerance(gamma: float) -> float:
    """Default shift tolerance: 1e-8, relaxed to 1e-6 for gamma > 0.9."""
    return DEFAULT_TOL if gamma <= 0.9 else DEFAULT_TOL_NEAR_ONE


def shift(g: Coupling | float, tol: float | None = None) -> ShiftResult:
    """Spectral shift s(gamma) with |true - returned| <= tail_estimate <= tol.

    Raises ToleranceUnreachableError if the residual bound cannot be driven
    below tol within the configured resource caps, ValueError on domain
    violations (gamma outside [0,1), tol outside [1e-10, 1e-2]).
    """
    coupling = _as_coupling(g)
    gamma = coupling.gamma
    if tol is None:
        tol = default_tolerance(gamma)
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if gamma == 0.0:
        return ShiftResult(coupling, 0.0, 0.0, 0, 0, tol)

    l_count = _L_START
    while True:
        l_res = _l_tail_residual_bound(gamma, l_count)
        if l_res <= 0.4 * tol:
            break
        l_count *= 2
        if l_count > _L_CAP:
            raise ToleranceUnreachableError(
                f"l-channel residual bound {l_res:.3e} > 0.4*tol at the cap "
                f"l_count={_L_CAP} (gamma={gamma}, tol={tol})"
            )
    l_tail = _l_tail_closed_form(gamma, l_count)

    l, kb = _channel_arrays(0, l_count)
    tails = None
    n_cut = _N_START
    while True:
        v1, v2, tails = _direct_plus_model(gamma, l, kb, n_cut, tails)
        indicator = abs(v2 - v1)
        floor = 64.0 * np.finfo(float).eps * (1.0 + abs(v2))
        tail_estimate = indicator + l_res + floor
        if tail_estimate <= tol:
            return ShiftResult(
                coupling, v2 + l_tail, tail_estimate, l_count - 1, 2 * n_cut, tol
            )
        n_cut *= 2
        if n_cut > _N_CAP:
            raise ToleranceUnreachableError(
                f"n-tail indicator {indicator:.3e} keeps tail estimate above "
                f"tol={tol} at the cap n_cut={_N_CAP} (gamma={gamma})"
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
    gamma = _gamma_of(g, closed_top=True)
    if not (isinstance(l_max, int) and l_max >= 0 and isinstance(n_max, int) and n_max >= 1):
        raise ValueError(f"cutoffs must satisfy l_max >= 0, n_max >= 1, got {l_max}, {n_max}")
    if gamma == 0.0:
        return 0.0
    g2 = gamma * gamma
    l, kb = _channel_arrays(0, l_max + 1)
    sums, _ = _weighted_channel_sums(
        lambda g, p, k: fine_structure_kernel(g, p, k) / g2, gamma, l, kb, n_max, n_max
    )
    return _compensated_sum(sums)


def zeta_double_sum_identity_check(s: float, m_cap: int = 10_000) -> ZetaIdentityCheck:
    """Check sum_{m,n>=1} (m+n)^-s = zeta(s-1) - zeta(s) by truncated summation.

    The double sum collapses along diagonals to sum_{M>=2} (M-1) M^-s; it is
    truncated at M <= m_cap with the integral tail bound m_cap^(2-s)/(s-2)
    (hence the s > 2 requirement).  Returns (double_sum, tail_bound,
    zeta_difference); the first and last agree within tail_bound.
    """
    s = float(s)
    if not s > 2.0:
        raise ValueError(f"identity check requires s > 2, got {s}")
    if m_cap < 2:
        raise ValueError(f"m_cap must be >= 2, got {m_cap}")
    m = np.arange(2, m_cap + 1, dtype=float)
    with np.errstate(under="ignore"):
        terms = (m - 1.0) * m ** (-s)
    # ascending-order compensated total: diagonal terms decrease in M
    double_sum = _compensated_sum(terms[::-1])
    tail_bound = m_cap ** (2.0 - s) / (s - 2.0)
    closed = riemann_zeta(s - 1.0) - riemann_zeta(s)
    return ZetaIdentityCheck(double_sum, tail_bound, closed)
