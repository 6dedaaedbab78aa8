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
barycentric interpolation, so the module needs numpy alone.  The profile is
one object with no tolerance in it: every solve_tf call returns the same one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .hydrogenic import EnergyHa, _as_float

# dimensionless TF length unit: r = TF_LENGTH_B * Z^(-1/3) * x
TF_LENGTH_B = 0.5 * (3.0 * math.pi / 4.0) ** (2.0 / 3.0)

# decay exponent of the subleading correction to phi ~ 144/x^3
DECAY_SIGMA = (math.sqrt(73.0) - 7.0) / 2.0
_ASYMP_A2 = 9.0 / (2.0 * ((3.0 + 2.0 * DECAY_SIGMA) * (4.0 + 2.0 * DECAY_SIGMA) - 18.0))

TOL_MIN = 1e-10
TOL_MAX = 1e-4

# the profile's ends, the same for every tol: phi(PROFILE_X_END) < 10 TOL_MIN
PROFILE_X0 = 1e-6
PROFILE_X_END = (144.0 / (5.0 * TOL_MIN)) ** (1.0 / 3.0)

_KINETIC_PREF = 1.2 * 2.0 ** (4.0 / 3.0) / (3.0 * math.pi) ** (2.0 / 3.0)

# collocation: inner domain ends in t = ln sqrt(x), Chebyshev degree per
# domain, and the Newton step (in ln phi) below which the iterate sits at
# its rounding floor
_DOMAIN_BREAKS = (-2.0, 0.0, 2.0)
_DEGREE = 32
_NEWTON_STEP_TOL = 1e-10
_NEWTON_MAX_STEPS = 30

# columns of the node table: ln phi, d ln phi/dt, q(x), o(x) and the
# moments p(x) = int_0^x t dq and its rest int_x^inf t dq; lookups
# (_NodeTable.rows, TfSolution._rows) return phi and phi' in the first two
_PSI, _PSI_T, _CHARGE, _OUTER, _MOMENT, _MOMENT_REST = range(6)
_PHI, _DPHI = _PSI, _PSI_T

# ball fields (see _ball_charge): a closed form's rounding per unit of its
# terms' size, the share of its result this may reach, and the 8-point
# Gauss-Legendre rule beyond (positive half on [-1, 1]; all of it on [0, 1])
_ROUNDING = 8.0 * 2.0**-53
_CLOSED_FORM_RTOL = 2.0**-40
_GAUSS = np.array([[0.18343464249564978, 0.36268378337836166],
                   [0.525532409916329, 0.3137066458778869],
                   [0.7966664774136267, 0.22238103445337443],
                   [0.9602898564975362, 0.10122853629037706]])
_GAUSS_X = 0.5 + 0.5 * np.concatenate((-_GAUSS[::-1, 0], _GAUSS[:, 0]))
_GAUSS_W = 0.5 * np.concatenate((_GAUSS[::-1, 1], _GAUSS[:, 1]))


class TfConvergenceError(RuntimeError):
    """Newton iteration on the collocation equations did not bring its step
    below the rounding floor; the message gives the last Newton residual."""


class InsufficientChargeError(ValueError):
    """Total charge at most 1/2: no exchange-hole radius exists."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _finite(name: str, compute, **args):
    """compute(), a float or a list of floats; a result that is not finite, or
    an ArithmeticError on the way, is a ValueError naming args."""
    cause = None
    try:
        out = compute()
        if all(map(math.isfinite, out)) if isinstance(out, list) else math.isfinite(out):
            return out
    except ArithmeticError as exc:
        cause = exc
    named = ", ".join(f"{key} = {value}" for key, value in args.items())
    raise ValueError(f"{name} cannot be evaluated in floats at {named}") from cause


def _elementwise(values, name: str, arg: str, f, **fixed):
    """_finite of f, a list of floats to a list of floats, over the flattened
    values of arg, which must be positive and finite: a float for a scalar,
    else an array of the input's shape."""
    try:
        x = np.asarray(values, dtype=float)
    except OverflowError:  # an int beyond floats fails the test below
        x = np.asarray(math.nan)
    flat = x.ravel().tolist()
    if not all(0.0 < v < math.inf for v in flat):
        raise ValueError(f"{name} requires finite {arg} > 0")
    out = _finite(name, lambda: f(flat), **fixed, **{arg: values})
    return out[0] if x.ndim == 0 else np.array(out).reshape(x.shape)


def _libm(f, a):
    """f (a float function on math, the C library) at each element of a small
    array: numpy's exp, log, log1p and cos round per SIMD target."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _head(x: float, slope: float):
    """phi, phi', q(x) and p(x) = int_0^x t dq below the grid, from the series
    phi = 1 + s x + (4/3) x^{3/2} + (2/5) s x^{5/2} and phi^{3/2} = 1 + (3/2) s x."""
    x15, x25 = x**1.5, x**2.5
    return (1.0 + slope * x + (4.0 / 3.0) * x15 + 0.4 * slope * x25,
            slope + 2.0 * math.sqrt(x) + slope * x15 + x * x,
            ((2.0 / 3.0) + 0.6 * slope * x) * x15, (0.4 + (3.0 / 7.0) * slope * x) * x25)


def _decay_factor(tau):
    """u = 1 - tau + a2 tau^2 with tau = F x^-sigma, so phi ~ (144/x^3) u.

    Returns u, du = d u / d ln x, and their derivatives in tau.
    """
    u = 1.0 - tau + _ASYMP_A2 * tau * tau
    du = DECAY_SIGMA * tau - 2.0 * DECAY_SIGMA * _ASYMP_A2 * tau * tau
    return u, du, 2.0 * _ASYMP_A2 * tau - 1.0, DECAY_SIGMA - 4.0 * DECAY_SIGMA * _ASYMP_A2 * tau


def _decay(x: float, coeff: float):
    """phi, phi' and int_x^inf t^{3/2} phi^{3/2} dt (u^{3/2} to order tau^2)
    of the power-law decay phi ~ (144/x^3) u above the grid (negative powers,
    which underflow quietly where a positive one would overflow)."""
    tau = coeff * x**-DECAY_SIGMA
    u, du = _decay_factor(tau)[:2]
    return (144.0 * x**-3.0 * u, 144.0 * x**-4.0 * (-3.0 * u + du),
            1728.0 / (x * x) * (0.5 - 1.5 * tau / (2.0 + DECAY_SIGMA) + (1.5 * _ASYMP_A2 + 0.375)
                                * tau * tau / (2.0 + 2.0 * DECAY_SIGMA)))


def _sommerfeld_psi(x: float) -> float:
    """ln phi of Sommerfeld's closed form (1 + (x^3/144)^(sigma/3))^(-3/sigma)."""
    return -(3.0 / DECAY_SIGMA) * math.log1p((x**3 / 144.0) ** (DECAY_SIGMA / 3.0))


def _lobatto(n: int):
    """Chebyshev-Lobatto nodes of degree n on [-1, 1], ascending.

    Returns the nodes, their barycentric weights, the differentiation matrix
    and the cumulative-integration matrix (node values of f to node values of
    int_{-1}^{s} f, exact for polynomials of degree n; its last row holds the
    Clenshaw-Curtis weights).
    """
    j = np.arange(n + 1)
    k = np.arange(n + 2)
    # T_k(cos(pi m/n)) = cos(pi m k/n), so the 2n values cos(pi i/n) hold
    # every entry, at i = m k mod 2n; node j is m = n - j
    cos = np.array([math.cos(math.pi * i / n) for i in range(2 * n)])
    cheb = cos[np.outer(n - j, k) % (2 * n)]  # T_k(nodes), k = 0..n+1
    nodes = cheb[:, 1]
    weights = (-1.0) ** j
    weights[[0, -1]] = 0.5 * weights[[0, -1]]
    gap = nodes[:, None] - nodes
    np.fill_diagonal(gap, 1.0)
    diff = weights / weights[:, None] / gap
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    # values -> Chebyshev coefficients -> antiderivative coefficients -> values
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    to_coeff = (2.0 / n) * half[:, None] * cheb[:, : n + 1].T * half
    anti = np.zeros((n + 2, n + 1))
    anti[1, 0] = 1.0
    anti[2, 1] = 0.25
    m = np.arange(2, n + 1)
    anti[m + 1, m] = 0.5 / (m + 1)
    anti[m - 1, m] -= 0.5 / (m - 1)
    # chained: one three-operand einsum would run as a single O(n^4) loop
    integ = np.einsum("il,lj->ij", np.einsum("ik,kl->il", cheb - (-1.0) ** k, anti), to_coeff)
    return nodes, weights, diff, integ


def _eliminate(a, b):
    """Solve the stack of systems a x = b, a (m, n, n) and b (m, n, r), by
    Gaussian elimination with partial pivoting in each system.

    Only elementwise numpy is used, no BLAS or LAPACK, so the bits do not
    depend on the thread count.
    """
    m, n = a.shape[:2]
    ab = np.concatenate((a, b), axis=2)
    systems = np.arange(m)
    for k in range(n - 1):
        p = k + np.abs(ab[:, k:, k]).argmax(axis=1)
        ab[systems, p], ab[:, k] = ab[:, k], ab[systems, p]
        ab[:, k + 1:, k:] -= (ab[:, k + 1:, k] / ab[:, k, k, None])[:, :, None] * ab[:, None, k, k:]
    for k in range(n - 1, -1, -1):
        ab[:, k, n:] /= ab[:, k, k, None]
        ab[:, :k, n:] -= ab[:, :k, k, None] * ab[:, None, k, n:]
    return ab[:, :, n:]


def _per_domain(matrix, values):
    """Apply one matrix (or one per domain) to each domain's node values."""
    return np.einsum("...ij,...j->...i", matrix, values)


@dataclass(frozen=True, eq=False)
class _NodeTable:
    """Columns at the Chebyshev nodes of each domain in ln x, and their lookup."""

    breaks: tuple  # (domains + 1) domain ends in ln x, floats
    nodes: np.ndarray  # (domains, degree + 1) node positions in ln x
    weights: np.ndarray  # (degree + 1,) barycentric weights
    values: np.ndarray  # (domains, 7, degree + 1): _PSI.._MOMENT_REST, then ones
    node_set: frozenset  # every node position, to find a point that hits one
    ends: tuple  # grid[0] and grid[-1] as floats, the range of x that rows takes

    def rows(self, x) -> list:
        """Every column at each point of x (floats inside the grid), phi and
        phi' in place of ln phi and its slope: six floats a point.  ln x and
        exp come from math, the domain from bisect_left on the inner breaks (a
        point on a break takes the one below), the barycentric sums from a
        per-row einsum without BLAS over one gather (the row of ones sums to
        the denominator), and a node's point takes its values: a row has the
        same bits alone as in any batch, thread count or numpy SIMD target."""
        s = [math.log(xi) for xi in x]
        domain = [bisect_left(self.breaks, si, 1, len(self.breaks) - 1) - 1 for si in s]
        gap = self.nodes.take(domain, axis=0)
        np.subtract(np.array(s)[:, None], gap, out=gap)
        vals = self.values.take(domain, axis=0)
        on_node = not self.node_set.isdisjoint(s)
        if on_node:
            hit = gap == 0.0
            gap[hit] = 1.0
        sums = np.einsum("ij,ikj->ik", np.divide(self.weights, gap, out=gap), vals)
        if on_node:  # the node's own values over its row of ones
            rows, cols = np.nonzero(hit)
            sums[rows] = vals[rows, :, cols]
        out = []
        for xi, (psi, psi_t, q, o, p, rest, den) in zip(x, sums.tolist()):
            phi = math.exp(psi / den)
            dphi = phi * (psi_t / den) / (2.0 * xi)
            out.append((phi, dphi, q / den, o / den, p / den, rest / den))
        return out


@dataclass(frozen=True, eq=False)
class TfSolution:
    """Dimensionless neutral-atom profile with derived energy data.

    grid/phi hold phi(x) at the collocation nodes: the
    Chebyshev-Lobatto points of each domain in t = ln sqrt(x), each domain
    end once, from PROFILE_X0 out to PROFILE_X_END, where phi sits below
    10*TOL_MIN.  A node table adds q(x), o(x), int_0^x t dq and
    int_x^inf t dq; every profile function, field and hole quantity reads all
    columns in one barycentric lookup (series below the grid, fitted
    power-law decay above).  Energies are Hartree at Z = 1.  Instances are
    immutable (arrays are read-only) and identity-hashed.
    """

    initial_slope: float
    grid: np.ndarray
    phi: np.ndarray
    e_tf_1: float
    kinetic_1: float
    attraction_1: float
    repulsion_1: float
    asymptote_coefficient: float
    _table: _NodeTable

    def _rows(self, x) -> list:
        """Columns _PHI.._MOMENT_REST, six floats a row, at each x >= 0 of a
        sequence of floats: one table lookup on the grid, _off_grid off it."""
        lo, hi = self._table.ends
        if not x or lo <= min(x) and max(x) <= hi:
            return self._table.rows(x)
        on_grid = iter(self._table.rows([xi for xi in x if lo <= xi <= hi]))
        return [next(on_grid) if lo <= xi <= hi else self._off_grid(xi) for xi in x]

    def _off_grid(self, x: float) -> tuple:
        """The row at x below the grid, from the series head (o = -phi'), or
        above it, from the power-law decay (q = 1 - (phi - x phi'), o = -phi')."""
        if x < self._table.ends[0]:
            phi, dphi, q, p = _head(x, self.initial_slope)
            first = self._table.values[0, :, 0].tolist()
            row = phi, dphi, q, -dphi, p, first[_MOMENT] + first[_MOMENT_REST] - p
        else:
            phi, dphi, rest = _decay(x, self.asymptote_coefficient)
            last = self._table.values[-1, :, -1].tolist()
            q = 1.0 - (phi - x * dphi)
            row = phi, dphi, q, -dphi, last[_MOMENT] + last[_MOMENT_REST] - rest, rest
        return row

    def _column(self, x, name: str, column: int):
        """One column of _rows at each x > 0 (scalar or array), as _elementwise."""
        return _elementwise(x, name, "x", lambda t: [row[column] for row in self._rows(t)])

    def phi_at(self, x) -> np.ndarray:
        """Profile phi(x) for any x > 0 (scalar or array)."""
        return self._column(x, "phi_at", _PHI)

    def dphi_at(self, x) -> np.ndarray:
        """Profile derivative phi'(x) for any x > 0."""
        return self._column(x, "dphi_at", _DPHI)

    def enclosed_profile_charge(self, x) -> np.ndarray:
        """q(x) = int_0^x phi^{3/2} sqrt(t) dt; q(inf) = 1 (charge fraction)."""
        return self._column(x, "enclosed_profile_charge", _CHARGE)

    def outer_profile_integral(self, x) -> np.ndarray:
        """o(x) = int_x^inf phi^{3/2} t^{-1/2} dt = -phi'(x) for the exact profile."""
        return self._column(x, "outer_profile_integral", _OUTER)

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
    no slope is needed up front.  Each Newton step keeps the block shape:
    one stacked elimination makes every domain's interior step affine in its
    end steps, basis times (1, first, last), and the 2 domains + 1 boundary
    rows contracted with it leave a square system in the end steps and tau.
    Returns psi, psi_t and F.
    """
    domains, size = t_nodes.shape
    n = size - 1
    x = _libm(math.exp, 2.0 * t_nodes)
    v0 = math.exp(t_nodes[0, 0])
    x_end = float(x[-1, -1])
    robin = 1.0 - (2.0 / 3.0) * v0**3
    source = 4.0 * _libm(math.exp, 3.0 * t_nodes)
    diff2 = np.einsum("kij,kjl->kil", diff, diff)
    far_decay = x_end ** (-DECAY_SIGMA)
    k = np.arange(domains - 1)

    psi = _libm(_sommerfeld_psi, x)
    tau = 13.27 * far_decay
    for _ in range(_NEWTON_MAX_STEPS):
        psi_t = _per_domain(diff, psi)
        src = source * _libm(math.exp, 0.5 * psi)

        # collocation rows at the interior nodes of each domain
        inner = _per_domain(diff2, psi) - 2.0 * psi_t + psi_t * psi_t - src
        block = diff2 + 2.0 * (psi_t - 1.0)[:, :, None] * diff
        block[:, np.arange(size), np.arange(size)] -= 0.5 * src
        interior = block[:, 1:n]
        basis = np.zeros((domains, size, 3))
        basis[:, [0, n], 1:] = np.eye(2)
        basis[:, 1:n] = _eliminate(interior[:, :, 1:n], -np.concatenate(
            (inner[:, 1:n, None], interior[:, :, [0, n]]), axis=2))

        # boundary rows over (row, domain, node), their tau column and residual
        lin = np.zeros((2 * domains + 1, domains, size))
        lin_tau, res = np.zeros(2 * domains + 1), np.empty(2 * domains + 1)

        # Robin condition at the origin: exp(psi)(1 - psi_t/2) = 1 - (2/3) v0^3
        e0 = math.exp(psi[0, 0])
        res[0] = e0 * (1.0 - 0.5 * psi_t[0, 0]) - robin
        lin[0, 0] = -0.5 * e0 * diff[0, 0]
        lin[0, 0, 0] += e0 * (1.0 - 0.5 * psi_t[0, 0])

        # continuity of psi and psi_t from the end of domain k to the start of k+1
        res[1:domains], res[domains:-2] = psi[:-1, n] - psi[1:, 0], psi_t[:-1, n] - psi_t[1:, 0]
        lin[1 + k, k, n], lin[1 + k, k + 1, 0] = 1.0, -1.0
        lin[domains + k, k], lin[domains + k, k + 1] = diff[:-1, n], -diff[1:, 0]

        # far end: psi = ln(144 u / x^3), psi_t / 2 = x phi'/phi = -3 + du/u
        u, du, u_tau, du_tau = _decay_factor(tau)
        res[-2] = psi[-1, n] - (math.log(144.0 / x_end**3) + math.log(u))
        res[-1] = 0.5 * psi_t[-1, n] - (-3.0 + du / u)
        lin[-2, -1, n], lin[-1, -1] = 1.0, 0.5 * diff[-1, n]
        lin_tau[-2:] = -u_tau / u, -(du_tau * u - du * u_tau) / (u * u)

        ends = np.einsum("rkj,kjc->rkc", lin, basis)
        system = np.concatenate((ends[:, :, 1:].reshape(len(res), -1), lin_tau[:, None]), axis=1)
        rhs = -(res + ends[:, :, 0].sum(axis=1))
        solution = _eliminate(system[None], rhs[None, :, None])[0, :, 0]
        step = basis[:, :, 0] + _per_domain(basis[:, :, 1:], solution[:-1].reshape(domains, 2))
        if not (np.isfinite(solution).all() and np.isfinite(step).all()):
            break
        psi = psi + step
        tau += solution[-1]
        if np.max(np.abs(step)) <= _NEWTON_STEP_TOL:
            return psi, _per_domain(diff, psi), tau / far_decay
    raise TfConvergenceError(
        "Newton iteration on the collocation equations did not converge: "
        f"residual {max(np.max(np.abs(inner[:, 1:n])), np.max(np.abs(res))):.3e}"
    )


def solve_tf(tol: float = 1e-8) -> TfSolution:
    """Solve the neutral-atom profile and evaluate the TF functional at Z=1.

    tol must lie in [1e-10, 1e-4], but the result does not depend on it: the
    far end is PROFILE_X_END for every tol, where phi(x_end) ~ 144/x_end^3
    sits below 10*TOL_MIN, and the collocation is iterated to its rounding
    floor, so every tol gives the same profile bit for bit.  E_TF(1) is
    computed by inserting the reconstructed minimizer into the functional
    (kinetic, attraction, repulsion pieces by radial quadrature), not from the
    slope shortcut.
    """
    if not (TOL_MIN <= _as_float(tol) <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")

    nodes, weights, diff, integ = _lobatto(_DEGREE)
    breaks = np.array([0.5 * math.log(PROFILE_X0), *_DOMAIN_BREAKS, 0.5 * math.log(PROFILE_X_END)])
    half_width = 0.5 * np.diff(breaks)
    t = 0.5 * (breaks[:-1] + breaks[1:])[:, None] + half_width[:, None] * nodes
    t[:, 0], t[:, -1] = breaks[:-1], breaks[1:]
    psi, psi_t, coeff_f = _collocation_solve(t, diff / half_width[:, None, None])

    v = _libm(math.exp, t)
    x = v * v
    phi = _libm(math.exp, psi)
    v0, x_end = float(v[0, 0]), float(x[-1, -1])
    tau_end = coeff_f * x_end ** (-DECAY_SIGMA)

    def cumulative(f, matrix=integ):
        return half_width[:, None] * _per_domain(matrix, f)

    def total(f):
        return float(np.sum(cumulative(f)[:, -1]))

    # integrands in t (dx = 2 v^2 dt): I_A of phi^{3/2} x^{-1/2}, charge q of
    # phi^{3/2} sqrt(x), I_K of phi^{5/2} x^{-1/2}
    d_attr = 2.0 * v * np.float_power(phi, 1.5)
    d_charge = d_attr * x
    _, dphi_end, rest_end = _decay(x_end, coeff_f)
    tail_a = -float(dphi_end)
    tail_k = (144.0 * (1.0 - tau_end)) ** 2.5 / (7.0 * x_end**7)

    # o(x) and the rest of p, int_x^inf t dq, from infinity, summed across
    # domains
    def from_infinity(f, tail):
        part = cumulative(f, integ[::-1, ::-1])
        return part + np.concatenate((np.cumsum(part[:0:-1, 0])[::-1], [0.0]))[:, None] + tail

    o_nodes = from_infinity(d_attr, tail_a)
    p_rest = from_infinity(d_charge * x, rest_end)

    # phi'(x0) = -o(x0): the ODE integrated from x0 out, with the series
    # phi' = s + 2 sqrt(x) + s x^{3/2} + x^2 below it
    slope = float(-(o_nodes[0, 0] + 2.0 * v0 + v0**4) / (1.0 + v0**3))

    # q(x) and p(x) = int_0^x t dq from the origin, with the heads of
    # phi^{3/2} = 1 + (3/2) s x below x0
    def from_origin(f, head):
        part = cumulative(f)
        return part + np.concatenate(([0.0], np.cumsum(part[:-1, -1])))[:, None] + head

    q_head, p_head = _head(v0 * v0, slope)[2:]
    q_nodes = from_origin(d_charge, q_head)
    p_nodes = from_origin(d_charge * x, p_head)

    # I_A and I_K: head below x0 analytic, tail past x_end power law
    i_attr = total(d_attr) + 2.0 * v0 + slope * v0**3 + tail_a
    i_kin = total(d_attr * phi) + 2.0 * v0 + (5.0 / 3.0) * slope * v0**3 + tail_k

    # D = (1/2b) int dq (q/x + o): below x0, dq = sqrt(x) dx, q/x = (2/3) sqrt(x)
    # and o = o(x0) + 2 (sqrt(x0) - sqrt(x)); past x_end, q -> 1 turns dq q/x
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
    values = np.stack([psi, psi_t, q_nodes, o_nodes, p_nodes, p_rest, np.ones_like(psi)], axis=1)
    table = _NodeTable(tuple((2.0 * breaks).tolist()), 2.0 * t, weights, values,
                       frozenset((2.0 * t).ravel().tolist()), (float(grid[0]), float(grid[-1])))
    for arr in (grid, phi_arr, table.nodes, values):
        arr.setflags(write=False)

    return TfSolution(
        initial_slope=slope,
        grid=grid,
        phi=phi_arr,
        e_tf_1=float(e_tf_1),
        kinetic_1=float(kinetic),
        attraction_1=float(attraction),
        repulsion_1=float(repulsion),
        asymptote_coefficient=float(coeff_f),
        _table=table,
    )


def tf_functional_at_scale(sol: TfSolution, amplitude: float) -> float:
    """Functional value at the scaled density amplitude*rho_1 (Z = 1).

    The three pieces scale as amplitude^{5/3}, amplitude, amplitude^2; the
    minimizer probe perturbs amplitude around 1.  ValueError names a bad amplitude.
    """
    _require_positive(amplitude=amplitude)
    a = _as_float(amplitude)
    return _finite("tf_functional_at_scale", lambda: a ** (5.0 / 3.0) * sol.kinetic_1
                   + a * sol.attraction_1 + a * a * sol.repulsion_1, amplitude=amplitude)


def tf_energy(Z: float, sol: TfSolution) -> EnergyHa:
    """E_TF(Z) = E_TF(1) * Z^{7/3} (Hartree); ValueError where it overflows a float."""
    _require_positive(Z=Z)
    try:
        return sol.e_tf_1 * float(Z) ** (7.0 / 3.0)
    except OverflowError:
        raise ValueError(f"E_TF(Z) overflows a float at Z = {Z}") from None


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
        self.Z = Z
        self._sol = sol

    def __call__(self, r) -> np.ndarray:
        def rho(r):
            scale, z2 = float(self.Z) ** (1.0 / 3.0), float(self.Z) ** 2
            w = [scale * ri for ri in r]
            return [z2 * ((2.0 * row[_PHI] / wi) ** 1.5 / (3.0 * math.pi**2))
                    for wi, row in zip(w, self._sol._rows([wi / TF_LENGTH_B for wi in w]))]

        return _elementwise(r, "density", "r", rho, Z=self.Z)


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

    def potential(r):
        scale, z43 = float(Z) ** (1.0 / 3.0), float(Z) ** (4.0 / 3.0)  # floats for any Z
        x = [scale * ri / TF_LENGTH_B for ri in r]
        return [z43 * ((row[_CHARGE] / xi + row[_OUTER]) / TF_LENGTH_B)
                for xi, row in zip(x, sol._rows(x))]

    return _elementwise(r, "mean_field", "r", potential, Z=Z)


def _ball_rows(sol: TfSolution, x: tuple) -> list:
    """(q, 1 - q, o, p, p's rest, -o', mean_field's o) at each point of x (TF units)
    from one lookup's rows; 1 - q = phi - x phi' and o = -phi' stay accurate far out."""
    return [(q, phi - xi * dphi, -dphi, p, rest,
             phi**1.5 / math.sqrt(xi) if xi > 0.0 else math.inf, o)
            for xi, (phi, dphi, q, o, p, rest) in zip(x, sol._rows(x))]


@np.errstate(all="ignore")  # quiet at extreme windows: _finite names a result that is not finite
def _window_gauss(sol: TfSolution, d: float, radius: float):
    """Gauss-Legendre nodes w on [a, m] and [m, b] (a = |R - d|, b = R + d,
    m = max(d, a)) and their weights times dq/dw, from one lookup."""
    a, b = abs(radius - d), radius + d
    m = max(d, a)
    w = np.concatenate((a + (m - a) * _GAUSS_X, m + (b - m) * _GAUSS_X))
    weights = np.concatenate(((m - a) * _GAUSS_W, (b - m) * _GAUSS_W))
    phi = np.array([row[_PHI] for row in sol._rows(w.tolist())])
    return w, weights * np.float_power(phi, 1.5) * np.sqrt(w)


def _between(lo, hi, k: int) -> tuple[float, float]:
    """Change of moment k (0: q, 3: p) from row lo to row hi, from the origin
    (entry k) or infinity (k + 1), whichever holds less, and that size."""
    if hi[k] <= lo[k + 1]:
        return hi[k] - lo[k], hi[k]
    return lo[k + 1] - hi[k + 1], lo[k + 1]


def _ball_charge(sol: TfSolution, d: float, radius: float, a, b):
    """Charge Q of rho_1 in the ball of radius R at |x| = d > 0 (TF units),
    dQ/dR, d^2Q/dR^2 and the rounding bound of Q, from the _ball_rows a and
    b at the window ends |R - d| and R + d.

    A shell at |y| = w in the window a = |R - d| < w < b = R + d puts the
    share (R - d + w)(R + d - w)/(4 d w) of its charge dq in the ball, so
    with the moments S0 = q, Sm = int dq/w and Sp = int w dq = p the window
    adds [(R^2 - d^2) dSm + 2d dS0 - dSp]/(4d) to q(a) inside (if R > d),
    dS each moment's change from a to b.  dQ/dR = R dSm/(2d), and d^2Q/dR^2
    = (dQ/dR)/R + R (o'(a) sgn(R - d) - o'(b))/(2d), with dSm = o(a) - o(b),
    o = -phi'.  S0 and Sp are also kept from infinity (phi - x phi' and
    int_x^inf w dq); each change comes from the form smaller at the window,
    so it never cancels against the moment below it.  Rule: where the closed
    form's rounding bound, 8u per unit of the size of its terms, exceeds
    2^-40 of Q (its terms cancel for d << R and R << d, where the window is
    narrow), Gauss-Legendre on each side of d sums the window instead.
    """
    ds0, s0 = _between(a, b, 0)
    dsp, sp = _between(a, b, 3)
    dsm = a[2] - b[2]
    m = (radius - d) * (radius + d)
    inner = a[0] if radius > d else 0.0
    window = (m * dsm + 2.0 * d * ds0 - dsp) / (4.0 * d)
    slope = radius * dsm / (2.0 * d)
    size = inner + (abs(m) * a[2] + 2.0 * d * s0 + sp) / (4.0 * d)
    if _ROUNDING * size > _CLOSED_FORM_RTOL * abs(inner + window):
        w, dq = _window_gauss(sol, d, radius)
        share = (radius - (d - w)) * ((max(radius, d) - w) + min(radius, d)) / w
        window = float(np.sum(dq * share)) / (4.0 * d)
        slope = radius * float(np.sum(dq / w)) / (2.0 * d)
        size = inner + window
    bend = slope / radius + radius * (b[5] - math.copysign(a[5], radius - d)) / (2.0 * d)
    return inner + window, slope, bend, _ROUNDING * size


def _ball_potential(sol: TfSolution, d: float, radius: float, a, b, c) -> float:
    """int_{|y - x| <= R} rho_1(y)/|x - y| dy at |x| = d > 0 (TF units), from
    the _ball_rows a, b and c at |R - d|, R + d and d.

    Shells inside the ball give dq/max(w, d): q(n)/d + o(n) - o(R - d),
    n = min(R - d, d), if R > d.  Window shells give (R - |d - w|)/(2 d w):
    [(R - d) dSm + dS0]/(2d) on [a, m] and [(R + d) dSm - dS0]/(2d) on
    [m, b], m = max(d, a), with the moments and rule of _ball_charge.
    """
    near, mid = (c, a) if abs(radius - d) >= d else (a, c)
    inside = near[0] / d + (near[2] - a[2]) if radius > d else 0.0
    ds0_lo, s0_lo = _between(a, mid, 0)
    ds0_hi, s0_hi = _between(mid, b, 0)
    window = ((radius - d) * (a[2] - mid[2]) + ds0_lo
              + (radius + d) * (mid[2] - b[2]) - ds0_hi) / (2.0 * d)
    size = (abs(radius - d) * a[2] + (radius + d) * mid[2] + s0_lo + s0_hi) / (2.0 * d)
    if _ROUNDING * size > _CLOSED_FORM_RTOL * (inside + window):
        w, dq = _window_gauss(sol, d, radius)
        window = float(np.sum(dq * (radius - abs(d - w)) / w)) / (2.0 * d)
    return inside + window


def _hole_radius(sol: TfSolution, Z: float, d: float):
    """R_1 at d (TF units) as in exchange_hole_radius, the _ball_rows at
    |R_1 - d| and R_1 + d of the evaluation that stopped the search (None if
    the step test did) and d's row, which joins the first lookup."""
    if Z <= 0.5:
        raise InsufficientChargeError(
            f"total charge {Z} <= 1/2: the half-charge ball would hold the whole atom")
    if not 0.0 < d < math.inf:
        raise ArithmeticError(f"the centre d = {d} (TF units) is not a positive float")
    target = 0.5 / Z
    lo, hi, reached = 0.0, d + float(sol.grid[-1]), False
    try:
        local = (3.0 * target) ** (1.0 / 3.0) * math.sqrt(d * math.exp(-_sommerfeld_psi(d)))
    except OverflowError:  # d^3 beyond floats: start from the ball that reaches the core
        local = math.inf
    radius = min(hi, local, d + (1.5 * target) ** (2.0 / 3.0))
    *rows, centre = _ball_rows(sol, (abs(radius - d), radius + d, d))
    for _ in range(100):
        charge, slope, bend, rounding = _ball_charge(sol, d, radius, *rows)
        if abs(charge - target) <= rounding:
            return radius, rows, centre
        if charge > target:
            hi, reached = radius, True
        elif radius == hi:
            raise InsufficientChargeError(
                f"charge cannot reach 1/2 within radius {hi * TF_LENGTH_B / Z ** (1.0 / 3.0)}")
        else:
            lo = radius
        # g = ln(Q/target) over ln R: g' = k, g'' = k - k^2 + R^2 Q''/Q; a step
        # goes at most e^-3 down (ln Q flattens above the root) and e^8 up
        new = math.nan
        if charge > 0.0 and slope > 0.0:
            g, k = math.log(charge / target), radius * slope / charge
            halley = g * (k - k * k + radius * radius * bend / charge) / (2.0 * k * k)
            step = -g / k / (1.0 - halley if abs(halley) < 0.5 else 1.0)
            new = radius * math.exp(max(-3.0, min(step, 8.0)))
        if abs(new - radius) <= 1e-13 + 8.9e-16 * new:
            return new, None, centre
        if not lo < new < hi:
            new = hi if not reached else math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        radius = new
        rows = _ball_rows(sol, (abs(radius - d), radius + d))
    raise ArithmeticError(f"no half-charge radius found at d = {d} (TF units)")


def exchange_hole_radius(Z: float, sol: TfSolution, r: float) -> float:
    """Smallest radius whose ball centered at |x| = r holds TF charge 1/2.

    R_Z(r) = Z^{-1/3} b R_1, where the Z = 1 ball of radius R_1 centred at
    d = Z^{1/3} r/b (TF units) holds the charge Q = 1/(2Z), monotone in R_1
    (_ball_charge).  Halley steps on ln Q over ln R (Newton's where the
    curvature term is large) keep a bracket, else bisect it in ln R.  They
    start from the local-density ball (3Q)^(1/3) sqrt(d/phi(d)), phi from
    Sommerfeld's closed form, or d + (3Q/2)^(2/3) if smaller (a ball far out
    must reach the core), and stop once a step is below 1e-13 + 8.9e-16 R_1
    or Q is within its rounding bound of 1/(2Z).  Z <= 1/2 has no radius.
    Where floats cannot hold the search (d^4 overflows or Q underflows, say),
    ValueError names Z and r.
    """
    _require_positive(Z=Z, r=r)

    def radius():
        scale = float(Z) ** (1.0 / 3.0)
        return _hole_radius(sol, float(Z), float(r) * scale / TF_LENGTH_B)[0] * TF_LENGTH_B / scale

    return _finite("exchange_hole_radius", radius, Z=Z, r=r)


def screening_potential(Z: float, c: float, sol: TfSolution, x: float) -> float:
    """Hole-screened mean-field potential chi(x) in units of mc^2.

    chi(x) = c^-2 * int_{|xt - y| > R_Z(xt)} rho_Z(y)/|xt - y| dy with
    xt = x/c in TF coordinates: the full Newton potential (mean_field's) minus
    Z^{4/3} times that of the Z = 1 hole ball (_ball_potential), both from the
    rows of the radius search itself (its first lookup adds the centre; the
    window ends are looked up again only if it stopped on the step test).
    Satisfies 0 < chi(x) < c^-2 V_Z(x/c) and ||chi||_inf <= C Z^{4/3} c^-2.
    Where floats cannot hold it, ValueError names Z, c and x.
    """
    _require_positive(Z=Z, c=c, x=x)

    def chi():
        z, light = float(Z), float(c)
        d = float(x) / light * z ** (1.0 / 3.0) / TF_LENGTH_B
        radius, rows, centre = _hole_radius(sol, z, d)
        window = rows or _ball_rows(sol, (abs(radius - d), radius + d))
        hole = z ** (4.0 / 3.0) * _ball_potential(sol, d, radius, *window, centre) / TF_LENGTH_B
        full = z ** (4.0 / 3.0) * ((centre[0] / d + centre[6]) / TF_LENGTH_B)
        return (full - hole) / (light * light)

    return _finite("screening_potential", chi, Z=Z, c=c, x=x)
