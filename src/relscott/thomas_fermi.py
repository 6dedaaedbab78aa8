"""Thomas-Fermi theory of the neutral atom.

The density functional

    E[rho] = (3/5) (3 pi^2)^(2/3)/2 int rho^(5/3) - Z int rho/|x| + D[rho]

is minimized (in Hartree units) by rho_Z with int rho_Z = Z, and the
stationarity condition (1/2)(3 pi^2)^(2/3) rho^(2/3) = Z/r - V_Z reduces, via
Phi_Z(r) = (Z/r) phi(x) with r = b Z^(-1/3) x and b = (1/2)(3 pi/4)^(2/3), to
the universal profile equation

    phi''(x) = phi(x)^(3/2) / sqrt(x),   phi(0) = 1,  phi(inf) = 0,

whose initial slope phi'(0) is Baker's constant.  Everything here is derived
from that profile: rho_Z(r) = Z^2 rho_1(Z^(1/3) r) exactly by construction,
E_TF(Z) = E_TF(1) Z^(7/3), the mean-field potential by Newton's theorem, the
exchange-hole radius, and the hole-screened potential.

The neutral-atom solution is a separatrix with a growing perturbation mode
~ x^4.77, so plain double-precision shooting cannot carry the profile beyond
x ~ 50.  solve_tf therefore solves it globally: Newton iteration on
multi-domain Chebyshev collocation for ln(phi) in t = ln sqrt(x) (the log
keeps residuals relative across eleven decades of phi), started from
Sommerfeld's closed-form approximation
phi ~ (1 + (x^3/144)^(sigma/3))^(-3/sigma).  A slope-free Robin condition at
the origin lets the collocation find the initial slope itself, and a fitted
power-law boundary condition
phi ~ (144/x^3)(1 - F x^-sigma + a2 (F x^-sigma)^2), sigma = (sqrt(73)-7)/2,
holds at the far end.  The decay law is validated against the computed
profile, not assumed.  Integrals are Clenshaw-Curtis and Chebyshev
antiderivatives on the same domains, and values between nodes come from
barycentric interpolation, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hydrogenic import EnergyHa

# dimensionless TF length unit: r = TF_LENGTH_B * Z^(-1/3) * x
TF_LENGTH_B = 0.5 * (3.0 * math.pi / 4.0) ** (2.0 / 3.0)

# decay exponent of the subleading correction to phi ~ 144/x^3
DECAY_SIGMA = (math.sqrt(73.0) - 7.0) / 2.0
_ASYMP_A2 = 9.0 / (2.0 * ((3.0 + 2.0 * DECAY_SIGMA) * (4.0 + 2.0 * DECAY_SIGMA) - 18.0))

PROFILE_X0 = 1e-6
PROFILE_X_FAR = 2000.0

TOL_MIN = 1e-10
TOL_MAX = 1e-4

_KINETIC_PREF = 1.2 * 2.0 ** (4.0 / 3.0) / (3.0 * math.pi) ** (2.0 / 3.0)

# collocation: inner domain ends in t = ln sqrt(x), Chebyshev degree per
# domain, and the Newton step (in ln phi) below which the iterate sits at
# its rounding floor
_DOMAIN_BREAKS = (-2.0, 0.0, 2.0)
_DEGREE = 32
_NEWTON_STEP_TOL = 1e-10
_NEWTON_MAX_STEPS = 30

# columns of the node table: ln phi, d ln phi/dt, q(x), o(x)
_PSI, _PSI_T, _CHARGE, _OUTER = range(4)

# charge-table shells; the rounding of a moment formula per unit of its size,
# and the share of its result that this may reach (see _ball_charge)
_CHARGE_NODES = 20000
_MOMENT_ROUNDING = 8.0 * 2.0**-53
_MOMENT_RTOL = 2.0**-40


class TfConvergenceError(RuntimeError):
    """Newton iteration on the collocation equations did not bring its step
    below the rounding floor; the message gives the last Newton residual."""


class InsufficientChargeError(ValueError):
    """Total charge below 1/2: no exchange-hole radius exists."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _series_phi(x, slope: float):
    x = np.asarray(x, dtype=float)
    return 1.0 + slope * x + (4.0 / 3.0) * x**1.5 + 0.4 * slope * x**2.5


def _series_dphi(x, slope: float):
    x = np.asarray(x, dtype=float)
    return slope + 2.0 * np.sqrt(x) + slope * x**1.5


def _decay_factor(tau):
    """u = 1 - tau + a2 tau^2 with tau = F x^-sigma, so phi ~ (144/x^3) u.

    Returns u, du = d u / d ln x, and their derivatives in tau.
    """
    u = 1.0 - tau + _ASYMP_A2 * tau * tau
    du = DECAY_SIGMA * tau - 2.0 * DECAY_SIGMA * _ASYMP_A2 * tau * tau
    return u, du, 2.0 * _ASYMP_A2 * tau - 1.0, DECAY_SIGMA - 4.0 * DECAY_SIGMA * _ASYMP_A2 * tau


def _asymptote_phi(x, coeff: float):
    x = np.asarray(x, dtype=float)
    u = _decay_factor(coeff * x ** (-DECAY_SIGMA))[0]
    return 144.0 / x**3 * u


def _asymptote_dphi(x, coeff: float):
    x = np.asarray(x, dtype=float)
    u, du = _decay_factor(coeff * x ** (-DECAY_SIGMA))[:2]
    return 144.0 / x**4 * (-3.0 * u + du)


def _lobatto(n: int):
    """Chebyshev-Lobatto nodes of degree n on [-1, 1], ascending.

    Returns the nodes, their barycentric weights, the differentiation matrix
    and the cumulative-integration matrix (node values of f to node values of
    int_{-1}^{s} f, exact for polynomials of degree n; its last row holds the
    Clenshaw-Curtis weights).
    """
    j = np.arange(n + 1)
    theta = np.pi - np.pi * j / n
    nodes = np.cos(theta)
    weights = (-1.0) ** j
    weights[[0, -1]] = 0.5 * weights[[0, -1]]
    gap = nodes[:, None] - nodes
    np.fill_diagonal(gap, 1.0)
    diff = weights / weights[:, None] / gap
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    # values -> Chebyshev coefficients -> antiderivative coefficients -> values
    k = np.arange(n + 2)
    cheb = np.cos(np.outer(theta, k))  # T_k(nodes), k = 0..n+1
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    to_coeff = (2.0 / n) * half[:, None] * cheb[:, : n + 1].T * half
    anti = np.zeros((n + 2, n + 1))
    anti[1, 0] = 1.0
    anti[2, 1] = 0.25
    m = np.arange(2, n + 1)
    anti[m + 1, m] = 0.5 / (m + 1)
    anti[m - 1, m] -= 0.5 / (m - 1)
    integ = np.einsum("ik,kl,lj->ij", cheb - (-1.0) ** k, anti, to_coeff)
    return nodes, weights, diff, integ


def _solve_banded(a, b):
    """Solve a x = b by Gaussian elimination with partial pivoting.

    Only elementwise numpy is used, no BLAS or LAPACK, so the bits do not
    depend on the thread count; the updates stay inside the band of a
    (widened by the row swaps).
    """
    a, b = a.copy(), b.copy()
    n = len(b)
    rows, cols = np.nonzero(a)
    lower = int(np.max(rows - cols))
    upper = int(np.max(cols - rows)) + lower
    for k in range(n - 1):
        r, c = min(n, k + lower + 1), min(n, k + upper + 1)
        p = k + int(np.abs(a[k:r, k]).argmax())
        if p != k:
            a[(k, p), k:c] = a[(p, k), k:c]
            b[k], b[p] = b[p], b[k]
        m = a[k + 1:r, k] / a[k, k]
        a[k + 1:r, k + 1:c] -= m[:, None] * a[k, k + 1:c]
        b[k + 1:r] -= m * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        c = min(n, k + upper + 1)
        x[k] = (b[k] - (a[k, k + 1:c] * x[k + 1:c]).sum()) / a[k, k]
    return x


def _per_domain(matrix, values):
    """Apply one matrix (or one per domain) to each domain's node values."""
    return np.einsum("...ij,...j->...i", matrix, values)


@dataclass(frozen=True, eq=False)
class _NodeTable:
    """Columns tabulated at the Chebyshev nodes of each domain in t = ln sqrt(x)."""

    breaks: np.ndarray  # (domains + 1,) domain ends in t
    nodes: np.ndarray  # (domains, degree + 1) node positions in t
    weights: np.ndarray  # (degree + 1,) barycentric weights
    values: np.ndarray  # (domains, degree + 1, 4), columns _PSI.._OUTER

    def __call__(self, x, column: int) -> np.ndarray:
        """Barycentric interpolation of one column at x (array, inside the
        grid), row by row, so a point gets the same bits in any batch."""
        t = 0.5 * np.log(x)
        domain = self.breaks[1:-1].searchsorted(t)
        out = np.empty_like(t)
        for k in np.unique(domain) if t.size > 1 else domain:
            sel = domain == k
            vals = self.values[k, :, column]
            gap = t[sel, None] - self.nodes[k]
            hit = gap == 0.0
            gap[hit] = 1.0
            c = np.divide(self.weights, gap, out=gap)
            res = np.einsum("ij,j->i", c, vals) / c.sum(axis=1)
            if hit.any():
                on_node = hit.any(axis=1)
                res[on_node] = vals[hit[on_node].argmax(axis=1)]
            out[sel] = res
        return out


@dataclass(frozen=True, eq=False)
class TfSolution:
    """Dimensionless neutral-atom profile with derived energy data.

    grid/phi/dphi hold phi(x) and phi'(x) at the collocation nodes: the
    Chebyshev-Lobatto points of each domain in t = ln sqrt(x), each domain
    end once, from PROFILE_X0 out to a far end chosen so the endpoint value
    sits below 10*tol.  phi_at and dphi_at interpolate the same polynomials
    barycentrically between nodes (series below the grid, fitted power-law
    decay above).  Energies are Hartree at Z = 1.  Instances are immutable
    (arrays are read-only) and identity-hashed.
    """

    initial_slope: float
    grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    e_tf_1: float
    kinetic_1: float
    attraction_1: float
    repulsion_1: float
    asymptote_coefficient: float
    solver_tol: float
    _table: _NodeTable

    def _piecewise(self, x, below, on_grid, above):
        """Evaluate below the grid, on it (interpolated) and above it."""
        x = np.asarray(x, dtype=float)
        if x.size == 1:  # one point: evaluate just its piece
            v = x.item()
            piece = below if v < self.grid[0] else above if v > self.grid[-1] else on_grid
            out = piece(x.reshape(1))
            return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)
        out = np.empty_like(x)
        lo = x < self.grid[0]
        hi = x > self.grid[-1]
        for part, evaluate in ((lo, below), (~(lo | hi), on_grid), (hi, above)):
            if part.any():
                out[part] = evaluate(x[part])
        return out

    def phi_at(self, x) -> np.ndarray:
        """Profile phi(x) for any x > 0 (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("phi_at requires x > 0")
        return self._piecewise(
            x,
            lambda t: _series_phi(t, self.initial_slope),
            lambda t: np.exp(self._table(t, _PSI)),
            lambda t: _asymptote_phi(t, self.asymptote_coefficient),
        )

    def dphi_at(self, x) -> np.ndarray:
        """Profile derivative phi'(x) for any x > 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("dphi_at requires x > 0")
        return self._piecewise(
            x,
            lambda t: _series_dphi(t, self.initial_slope),
            lambda t: np.exp(self._table(t, _PSI)) * self._table(t, _PSI_T) / (2.0 * t),
            lambda t: _asymptote_dphi(t, self.asymptote_coefficient),
        )

    def enclosed_profile_charge(self, x) -> np.ndarray:
        """q(x) = int_0^x phi^{3/2} sqrt(t) dt; q(inf) = 1 (charge fraction)."""
        return self._piecewise(
            x,
            lambda t: (2.0 / 3.0) * t**1.5,
            lambda t: self._table(t, _CHARGE),
            lambda t: 1.0 - (self.phi_at(t) - t * self.dphi_at(t)),
        )

    def outer_profile_integral(self, x) -> np.ndarray:
        """o(x) = int_x^inf phi^{3/2} t^{-1/2} dt = -phi'(x) for the exact profile."""
        o0 = self._table.values[0, 0, _OUTER]
        return self._piecewise(
            x,
            lambda t: o0 + 2.0 * (np.sqrt(self.grid[0]) - np.sqrt(t)),
            lambda t: self._table(t, _OUTER),
            lambda t: -self.dphi_at(t),
        )

    @cached_property
    def _charge_table(self):
        """Z = 1 charge quadrature: nodes w_i (Hartree radius) and weights.

        Trapezoid of phi^{3/2} sqrt(x) dx on a dense log grid; the weights
        integrate to 1.  Built on first use, once per solution.
        """
        x = np.geomspace(PROFILE_X0, self.grid[-1], _CHARGE_NODES + 1)
        phi = np.maximum(self.phi_at(x), 0.0)
        f = phi**1.5 * np.sqrt(x)
        w_mid = 0.5 * (x[:-1] + x[1:]) * TF_LENGTH_B
        cw = 0.5 * (f[:-1] + f[1:]) * np.diff(x)
        w_mid.setflags(write=False)
        cw.setflags(write=False)
        return w_mid, cw

    @cached_property
    def _charge_moments(self):
        """Prefix sums S0, Sm, Sp of cw, cw/w and cw w over the charge table.

        Each starts at 0, so nodes i..j-1 hold S[j] - S[i].  A running sum
        is corrected by the running sum of its own rounding errors, each
        found exactly by Knuth's TwoSum, so S[j] is within u S[j] (u = 2^-53,
        to first order) of the exact sum of its rounded terms; a plain
        running sum would allow _CHARGE_NODES u.  No BLAS, so the bits do not
        depend on the thread count.  Read-only, built once per solution.
        """
        w, cw = self._charge_table
        moments = np.zeros((3, w.size + 1))
        for prefix, terms in zip(moments, (cw, cw / w, cw * w)):
            run = np.cumsum(terms)
            before = np.concatenate(([0.0], run[:-1]))
            added = run - before
            prefix[1:] = run + np.cumsum((before - (run - added)) + (terms - added))
        moments.setflags(write=False)
        return moments

    def export_profile_csv(self, path) -> None:
        """Write the x,phi table (12 significant digits)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,phi\n")
            for x, p in zip(self.grid, self.phi):
                fh.write(f"{x:.12g},{p:.12g}\n")


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _collocation_solve(t_nodes, diff):
    """Newton iteration for psi = ln(phi) at the nodes t_nodes (domains, n+1).

    In t = ln sqrt(x) the profile equation reads

        psi_tt = 2 psi_t - psi_t^2 + 4 exp(3t) exp(psi/2).

    It is collocated at the interior nodes of each domain; psi and psi_t are
    continuous across domain ends.  The origin carries the slope-free Robin
    condition phi - x phi' = 1 - (2/3) x^{3/2}, the far end the power-law
    value and log-slope with unknown tau = F x_end^-sigma.  The iteration
    starts from Sommerfeld's closed form phi ~ (1 + (x^3/144)^(sigma/3))^(-3/sigma),
    which has the right value at the origin and the right 144/x^3 decay, so
    no slope is needed up front.  Returns psi, psi_t and F.
    """
    domains, size = t_nodes.shape
    n = size - 1
    x = np.exp(2.0 * t_nodes)
    v0 = math.exp(t_nodes[0, 0])
    x_end = float(x[-1, -1])
    robin = 1.0 - (2.0 / 3.0) * v0**3
    source = 4.0 * np.exp(3.0 * t_nodes)
    diff2 = np.einsum("kij,kjl->kil", diff, diff)
    far_decay = x_end ** (-DECAY_SIGMA)

    psi = -(3.0 / DECAY_SIGMA) * np.log1p((x**3 / 144.0) ** (DECAY_SIGMA / 3.0))
    tau = 13.27 * far_decay
    unknowns = domains * size + 1
    last = unknowns - 2  # row and column of psi at the far end
    for _ in range(_NEWTON_MAX_STEPS):
        psi_t = _per_domain(diff, psi)
        src = source * np.exp(0.5 * psi)
        res = np.empty(unknowns)
        jac = np.zeros((unknowns, unknowns))

        # collocation rows at the interior nodes of each domain
        inner = _per_domain(diff2, psi) - 2.0 * psi_t + psi_t * psi_t - src
        block = diff2 + 2.0 * (psi_t - 1.0)[:, :, None] * diff
        block[:, np.arange(size), np.arange(size)] -= 0.5 * src
        for k in range(domains):
            rows = slice(k * size + 1, k * size + n)
            res[rows] = inner[k, 1:n]
            jac[rows, k * size:(k + 1) * size] = block[k, 1:n]

        # Robin condition at the origin: exp(psi)(1 - psi_t/2) = 1 - (2/3) v0^3
        e0 = math.exp(psi[0, 0])
        res[0] = e0 * (1.0 - 0.5 * psi_t[0, 0]) - robin
        jac[0, :size] = -0.5 * e0 * diff[0, 0]
        jac[0, 0] += e0 * (1.0 - 0.5 * psi_t[0, 0])

        # continuity of psi (last row of domain k) and psi_t (first of k+1)
        for k in range(domains - 1):
            end, start = k * size + n, (k + 1) * size
            res[end] = psi[k, n] - psi[k + 1, 0]
            jac[end, end] = 1.0
            jac[end, start] = -1.0
            res[start] = psi_t[k, n] - psi_t[k + 1, 0]
            jac[start, k * size:start] = diff[k, n]
            jac[start, start:start + size] -= diff[k + 1, 0]

        # far end: psi = ln(144 u / x^3), psi_t / 2 = x phi'/phi = -3 + du/u
        u, du, u_tau, du_tau = _decay_factor(tau)
        res[last] = psi[-1, n] - (math.log(144.0 / x_end**3) + math.log(u))
        jac[last, last] = 1.0
        jac[last, -1] = -u_tau / u
        res[-1] = 0.5 * psi_t[-1, n] - (-3.0 + du / u)
        jac[-1, last - n:last + 1] = 0.5 * diff[-1, n]
        jac[-1, -1] = -(du_tau * u - du * u_tau) / (u * u)

        step = _solve_banded(jac, -res)
        if not np.all(np.isfinite(step)):
            break
        psi = psi + step[:-1].reshape(domains, size)
        tau += step[-1]
        if np.max(np.abs(step[:-1])) <= _NEWTON_STEP_TOL:
            return psi, _per_domain(diff, psi), tau / far_decay
    raise TfConvergenceError(
        "Newton iteration on the collocation equations did not converge: "
        f"residual {np.max(np.abs(res)):.3e}"
    )


def solve_tf(tol: float = 1e-8) -> TfSolution:
    """Solve the neutral-atom profile and evaluate the TF functional at Z=1.

    tol in [1e-10, 1e-4] sets the far end, so that phi(x_end) ~ 144/x_end^3
    sits below 10*tol; at every tol the collocation is iterated to its
    rounding floor.  E_TF(1) is computed by inserting the reconstructed
    minimizer into the functional (kinetic, attraction, repulsion pieces by
    radial quadrature), not from the slope shortcut.
    """
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    x_far = max(PROFILE_X_FAR, (144.0 / (5.0 * tol)) ** (1.0 / 3.0))

    nodes, weights, diff, integ = _lobatto(_DEGREE)
    breaks = np.array([0.5 * math.log(PROFILE_X0), *_DOMAIN_BREAKS, 0.5 * math.log(x_far)])
    half_width = 0.5 * np.diff(breaks)
    t = 0.5 * (breaks[:-1] + breaks[1:])[:, None] + half_width[:, None] * nodes
    t[:, 0], t[:, -1] = breaks[:-1], breaks[1:]
    psi, psi_t, coeff_f = _collocation_solve(t, diff / half_width[:, None, None])

    v = np.exp(t)
    x = v * v
    phi = np.exp(psi)
    v0, x_end = float(v[0, 0]), float(x[-1, -1])
    tau_end = coeff_f * x_end ** (-DECAY_SIGMA)

    def cumulative(f, matrix=integ):
        return half_width[:, None] * _per_domain(matrix, f)

    def total(f):
        return float(np.sum(cumulative(f)[:, -1]))

    # integrands in t (dx = 2 v^2 dt): I_A of phi^{3/2} x^{-1/2}, charge q of
    # phi^{3/2} sqrt(x), I_K of phi^{5/2} x^{-1/2}
    d_attr = 2.0 * v * phi**1.5
    d_charge = d_attr * x
    tail_a = (144.0 * (1.0 - tau_end)) ** 1.5 / (4.0 * x_end**4)
    tail_k = (144.0 * (1.0 - tau_end)) ** 2.5 / (7.0 * x_end**7)

    # q(x) from the origin, o(x) from infinity, summed across domains
    q_part = cumulative(d_charge)
    o_part = cumulative(d_attr, integ[::-1, ::-1])
    q_before = np.concatenate(([0.0], np.cumsum(q_part[:-1, -1])))
    o_after = np.concatenate((np.cumsum(o_part[:0:-1, 0])[::-1], [0.0]))
    q_nodes = q_part + q_before[:, None] + (2.0 / 3.0) * v0**3
    o_nodes = o_part + o_after[:, None] + tail_a

    # phi'(x0) = -o(x0): the ODE integrated from x0 out, with the series
    # phi' = s + 2 sqrt(x) + s x^{3/2} below it
    slope = float(-(o_nodes[0, 0] + 2.0 * v0) / (1.0 + v0**3))

    # I_A and I_K: head below x0 analytic, tail past x_end power law
    i_attr = total(d_attr) + 2.0 * v0 + slope * v0**3 + tail_a
    i_kin = total(d_attr * phi) + 2.0 * v0 + (5.0 / 3.0) * slope * v0**3 + tail_k

    # D = (1/2b) int dq (q/x + o): below x0, dq = sqrt(x) dx, q/x = (2/3) sqrt(x)
    # and o = o(x0) + 2 (sqrt(x0) - sqrt(x)); past x_far, q -> 1 turns dq q/x
    # into the I_A tail, and dq o is O(x^-7) smaller
    head_r = (2.0 / 3.0) * v0**3 * (o_nodes[0, 0] + v0)
    i_rep = total(d_charge * (q_nodes / x + o_nodes)) + head_r + tail_a
    repulsion = i_rep / (2.0 * TF_LENGTH_B)
    attraction = -i_attr / TF_LENGTH_B
    kinetic = _KINETIC_PREF * i_kin
    e_tf_1 = kinetic + attraction + repulsion

    # each domain end once
    keep = np.ones(t.shape, dtype=bool)
    keep[1:, 0] = False
    grid, phi_arr = x[keep], phi[keep]
    dphi_arr = (phi * psi_t / (2.0 * x))[keep]
    values = np.stack([psi, psi_t, q_nodes, o_nodes], axis=-1)
    for arr in (grid, phi_arr, dphi_arr, breaks, t, weights, values):
        arr.setflags(write=False)

    return TfSolution(
        initial_slope=slope,
        grid=grid,
        phi=phi_arr,
        dphi=dphi_arr,
        e_tf_1=float(e_tf_1),
        kinetic_1=float(kinetic),
        attraction_1=float(attraction),
        repulsion_1=float(repulsion),
        asymptote_coefficient=float(coeff_f),
        solver_tol=tol,
        _table=_NodeTable(breaks, t, weights, values),
    )


def tf_functional_at_scale(sol: TfSolution, amplitude: float) -> float:
    """Functional value at the scaled density amplitude*rho_1 (Z = 1).

    The three pieces scale as amplitude^{5/3}, amplitude, amplitude^2; the
    minimizer probe perturbs amplitude around 1.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    return (
        amplitude ** (5.0 / 3.0) * sol.kinetic_1
        + amplitude * sol.attraction_1
        + amplitude * amplitude * sol.repulsion_1
    )


def tf_energy(Z: float, sol: TfSolution) -> EnergyHa:
    """E_TF(Z) = E_TF(1) * Z^{7/3} (Hartree)."""
    _require_positive(Z=Z)
    return sol.e_tf_1 * Z ** (7.0 / 3.0)


# ---------------------------------------------------------------------------
# density, mean field, exchange hole, screening
# ---------------------------------------------------------------------------

class RadialDensity:
    """Spherically symmetric TF density rho_Z (particles per unit volume).

    rho_Z(r) = Z^2 rho_1(Z^{1/3} r) exactly; rho_1 is reconstructed from the
    profile through the stationarity condition, rho_1(w) = (2 phi(x)/w)^{3/2}
    / (3 pi^2) with w = b x.  Callable on r > 0 (scalar or array).
    """

    def __init__(self, Z: float, sol: TfSolution):
        _require_positive(Z=Z)
        self.Z = float(Z)
        self._sol = sol

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("density requires r > 0")
        scalar = r.ndim == 0
        w = np.atleast_1d(self.Z ** (1.0 / 3.0) * r)
        x = w / TF_LENGTH_B
        phi = np.maximum(self._sol.phi_at(x), 0.0)
        rho1 = (2.0 * phi / w) ** 1.5 / (3.0 * math.pi**2)
        out = self.Z**2 * rho1
        return float(out[0]) if scalar else out


def density(Z: float, sol: TfSolution) -> RadialDensity:
    """TF density for nuclear charge Z; 4 pi int rho r^2 dr = Z."""
    return RadialDensity(Z, sol)


def mean_field(Z: float, sol: TfSolution, r) -> float | np.ndarray:
    """V_Z(r) = (rho_Z * 1/|.|)(r) by Newton's theorem.

    Inside charge / r plus the outside shell integral, both precomputed as
    cumulative quadratures of the profile; the Z-dependence enters through
    the exact scaling V_Z(r) = Z^{4/3} V_1(Z^{1/3} r).
    """
    _require_positive(Z=Z)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("mean_field requires r > 0")
    scalar = r.ndim == 0
    w = np.atleast_1d(Z ** (1.0 / 3.0) * r)
    x = w / TF_LENGTH_B
    q = sol.enclosed_profile_charge(x)
    o = sol.outer_profile_integral(x)
    v1 = (q / x + o) / TF_LENGTH_B
    out = Z ** (4.0 / 3.0) * v1
    return float(out[0]) if scalar else out


def _shells(w, d: float, radius: float) -> tuple[int, int, int]:
    """Ball (d, R): nodes below `inner` lie inside it (w <= R - d), nodes
    lo..hi-1 cut its sphere (the window |R - d| < w < R + d)."""
    lo = int(w.searchsorted(abs(radius - d), "right"))
    return (lo if radius > d else 0), lo, int(w.searchsorted(radius + d))


def _ball_charge(sol: TfSolution, d: float, radius: float) -> float:
    """Charge of rho_1 in the ball of radius R centred at |x| = d > 0.

    A window shell puts the share (R - d + w)(R + d - w)/(4 d w) of its
    charge in the ball, so the window adds [(R^2 - d^2) dSm + 2d dS0 - dSp]/(4d),
    dS its part of each moment, to the S0 of the shells inside.  With the
    prefix sums (_charge_moments) exact to u, this
    is within 8u M/(4d) of the quadrature, M = |R^2 - d^2| Sm + 2d S0 + Sp at
    the window's top.  Where that exceeds 2^-40 of the result (terms cancel
    for d << R, prefix differences where the window holds little of the
    charge below it), the window, 2 min(d, R) wide, is summed directly; both
    sides then subtract the nearer of R and d from w first, exactly where the
    window is narrow.
    """
    w, cw = sol._charge_table
    s0, sm, sp = sol._charge_moments
    inner, lo, hi = _shells(w, d, radius)
    m = (radius - d) * (radius + d)
    charge = s0[inner] + (m * (sm[hi] - sm[lo]) + 2.0 * d * (s0[hi] - s0[lo])
                          - (sp[hi] - sp[lo])) / (4.0 * d)
    size = abs(m) * sm[hi] + 2.0 * d * s0[hi] + sp[hi]
    if _MOMENT_ROUNDING * size > _MOMENT_RTOL * 4.0 * d * abs(charge):
        ww = w[lo:hi]
        sides = (radius - (d - ww)) * ((max(radius, d) - ww) + min(radius, d))
        charge = s0[inner] + np.sum(cw[lo:hi] * sides / ww) / (4.0 * d)
    return float(charge)


def _ball_potential(sol: TfSolution, d: float, radius: float) -> float:
    """int_{|y - x| <= R} rho_1(y)/|x - y| dy at |x| = d > 0.

    Shells inside give charge/max(w, d): S0/d and dSm, within 3u Sm.  Window
    shells give (R - |d - w|)/(2 w d), sums of dS0 and dSm within 8u M/(2d),
    M = |R - d| Sm + (R + d) Sm + 2 S0, else summed as in _ball_charge.
    """
    w, cw = sol._charge_table
    s0, sm, _ = sol._charge_moments
    inner, lo, hi = _shells(w, d, radius)
    below = int(w.searchsorted(d))  # shells with w < d
    near, mid = min(inner, below), min(max(below, lo), hi)
    inside = s0[near] / d + (sm[inner] - sm[near])
    potential = inside + ((radius - d) * (sm[mid] - sm[lo]) + (s0[mid] - s0[lo])
                          + (radius + d) * (sm[hi] - sm[mid]) - (s0[hi] - s0[mid])) / (2.0 * d)
    size = abs(radius - d) * sm[mid] + (radius + d) * sm[hi] + 2.0 * s0[hi]
    if _MOMENT_ROUNDING * size > _MOMENT_RTOL * 2.0 * d * abs(potential):
        ww = w[lo:hi]
        seg = np.minimum(radius - (d - ww), (max(radius, d) - ww) + min(radius, d))
        potential = inside + np.sum(cw[lo:hi] * seg / ww) / (2.0 * d)
    return float(potential)


def _brent_root(f, a: float, b: float, fa: float, fb: float,
                xtol: float = 1e-13, rtol: float = 8.9e-16) -> float:
    """Root of f in [a, b], where f(a) = fa and f(b) = fb differ in sign.

    Brent's method: inverse quadratic or secant steps where they shrink the
    bracket fast enough, bisection otherwise; stops once the bracket is
    below xtol + rtol |x|.  The steps are those of R. P. Brent, "Algorithms
    for Minimization without Derivatives" (1973), ch. 4.  Raises
    ArithmeticError after 100 steps (a nan objective).
    """
    x_pre, x_cur, f_pre, f_cur = a, b, fa, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    if f_pre == 0.0:
        return x_pre
    for _ in range(100):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ArithmeticError(f"Brent's method did not converge in [{a}, {b}]")


def exchange_hole_radius(Z: float, sol: TfSolution, r: float) -> float:
    """Smallest radius whose ball centered at |x| = r holds TF charge 1/2.

    R_Z(r) = Z^{-1/3} R_1, where the Z = 1 ball centred at Z^{1/3} r holds
    charge 1/(2Z); Brent's method finds R_1 on that enclosed charge, which
    grows monotonically with the radius, in O(log n) per step (_ball_charge).
    """
    _require_positive(Z=Z, r=r)
    if Z < 0.5:
        raise InsufficientChargeError(
            f"total charge {Z} < 1/2: no half-charge ball exists"
        )
    scale, target = Z ** (1.0 / 3.0), 0.5 / Z
    d = r * scale
    r_hi = d + float(sol._charge_table[0][-1])

    def objective(radius: float) -> float:
        return _ball_charge(sol, d, radius) - target

    f_hi = objective(r_hi)
    if f_hi < 0.0:
        raise InsufficientChargeError(
            f"quadrature charge cannot reach 1/2 within radius {r_hi / scale}"
        )
    return _brent_root(objective, 0.0, r_hi, -target, f_hi) / scale


def screening_potential(Z: float, c: float, sol: TfSolution, x: float) -> float:
    """Hole-screened mean-field potential chi(x) in units of mc^2.

    chi(x) = c^-2 * int_{|xt - y| > R_Z(xt)} rho_Z(y)/|xt - y| dy with
    xt = x/c in TF coordinates: the full Newton potential minus the
    charge-1/2 hole ball contribution, Z^{4/3} times that of the Z = 1 ball
    (_ball_potential).  Satisfies 0 < chi(x) < c^-2 V_Z(x/c) and
    ||chi||_inf <= C Z^{4/3} c^-2.
    """
    _require_positive(Z=Z, c=c, x=x)
    xt = x / c
    scale = Z ** (1.0 / 3.0)
    radius = exchange_hole_radius(Z, sol, xt)
    hole = Z ** (4.0 / 3.0) * _ball_potential(sol, xt * scale, radius * scale)
    full = float(mean_field(Z, sol, xt))
    return (full - hole) / (c * c)
