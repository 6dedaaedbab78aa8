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
x ~ 50.  solve_tf therefore solves it globally by collocation for ln(phi) in
the v = sqrt(x) variable (the log keeps residuals relative across eleven
decades of phi), starting from Sommerfeld's closed-form approximation
phi ~ (1 + (x^3/144)^(sigma/3))^(-3/sigma).  A slope-free Robin condition at
the origin lets the collocation find the initial slope itself, and a fitted
power-law boundary condition
phi ~ (144/x^3)(1 - F x^-sigma + a2 (F x^-sigma)^2), sigma = (sqrt(73)-7)/2,
holds at the far end.  The decay law is validated against the computed
profile, not assumed.  scipy is imported inside the functions that use it,
so importing this module stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

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

_DENSE_POINTS = 30001
_KINETIC_PREF = 1.2 * 2.0 ** (4.0 / 3.0) / (3.0 * math.pi) ** (2.0 / 3.0)


class TfConvergenceError(RuntimeError):
    """Collocation from the Sommerfeld starting profile failed to converge."""


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


def _asymptote_phi(x, coeff: float):
    x = np.asarray(x, dtype=float)
    t = coeff * x ** (-DECAY_SIGMA)
    return 144.0 / x**3 * (1.0 - t + _ASYMP_A2 * t * t)


def _asymptote_dphi(x, coeff: float):
    x = np.asarray(x, dtype=float)
    t = coeff * x ** (-DECAY_SIGMA)
    u = 1.0 - t + _ASYMP_A2 * t * t
    du = DECAY_SIGMA * t - 2.0 * DECAY_SIGMA * _ASYMP_A2 * t * t  # d u / d ln x
    return 144.0 / x**4 * (-3.0 * u + du)


@dataclass(frozen=True, eq=False)
class TfSolution:
    """Dimensionless neutral-atom profile with derived energy data.

    grid/phi/dphi sample phi(x) from PROFILE_X0 out to a far end chosen so
    the endpoint value sits below 10*tol; phi_at and dphi_at give C1
    monotone-cubic values between nodes (series below the grid, fitted
    power-law decay above).  Energies are Hartree at Z = 1.  Instances are
    immutable (arrays are read-only) and identity-hashed.
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
    _phi_ip: Callable = field(repr=False, compare=False)
    _dphi_ip: Callable = field(repr=False, compare=False)
    _charge_ip: Callable = field(repr=False, compare=False)
    _outer_ip: Callable = field(repr=False, compare=False)

    def _piecewise(self, x, below, on_grid, above):
        """Evaluate below the grid, on it (interpolated) and above it."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        lo = x < self.grid[0]
        hi = x > self.grid[-1]
        mid = ~(lo | hi)
        out[lo] = below(x[lo])
        out[mid] = on_grid(x[mid])
        out[hi] = above(x[hi])
        return float(out[0]) if scalar else out

    def phi_at(self, x) -> np.ndarray:
        """Profile phi(x) for any x > 0 (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("phi_at requires x > 0")
        return self._piecewise(
            x,
            lambda t: _series_phi(t, self.initial_slope),
            self._phi_ip,
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
            self._dphi_ip,
            lambda t: _asymptote_dphi(t, self.asymptote_coefficient),
        )

    def enclosed_profile_charge(self, x) -> np.ndarray:
        """q(x) = int_0^x phi^{3/2} sqrt(t) dt; q(inf) = 1 (charge fraction)."""
        return self._piecewise(
            x,
            lambda t: (2.0 / 3.0) * t**1.5,
            self._charge_ip,
            lambda t: 1.0 - (self.phi_at(t) - t * self.dphi_at(t)),
        )

    def outer_profile_integral(self, x) -> np.ndarray:
        """o(x) = int_x^inf phi^{3/2} t^{-1/2} dt = -phi'(x) for the exact profile."""
        return self._piecewise(
            x,
            lambda t: self._outer_ip(self.grid[0]) + 2.0 * (np.sqrt(self.grid[0]) - np.sqrt(t)),
            self._outer_ip,
            lambda t: -self.dphi_at(t),
        )

    def export_profile_csv(self, path) -> None:
        """Write the x,phi table (12 significant digits)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,phi\n")
            for x, p in zip(self.grid, self.phi):
                fh.write(f"{x:.12g},{p:.12g}\n")


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _collocation_refine(bvp_tol: float, x_far: float):
    """Global collocation for psi = ln(phi) in the v = sqrt(x) variable.

    The log variable keeps the residual scale relative across eleven decades
    of phi (and makes positivity automatic):

        psi'' = psi'/v - psi'^2 + 4 v exp(psi/2).

    The initial mesh carries Sommerfeld's closed-form approximation
    phi ~ (1 + (x^3/144)^(sigma/3))^(-3/sigma), which has the right value at
    the origin and the right 144/x^3 decay, so no slope is needed up front.
    """
    from scipy.integrate import solve_bvp

    v0 = math.sqrt(PROFILE_X0)
    v_far = math.sqrt(x_far)
    x_end = v_far * v_far

    def rhs(v, y, p):
        return np.vstack([y[1], y[1] / v - y[1] * y[1] + 4.0 * v * np.exp(0.5 * y[0])])

    def bc(ya, yb, p):
        phi_end = _asymptote_phi(x_end, p[0])
        return np.array(
            [
                # slope-free Robin condition: phi - x phi' = 1 - (2/3) x^{3/2}
                math.exp(ya[0]) * (1.0 - 0.5 * v0 * ya[1]) - (1.0 - (2.0 / 3.0) * v0**3),
                yb[0] - np.log(phi_end),
                # x phi'/phi = d ln phi / d ln x matched to the power law
                0.5 * v_far * yb[1] - x_end * _asymptote_dphi(x_end, p[0]) / phi_end,
            ]
        )

    v_mesh = np.geomspace(v0, v_far, 4001 if x_far <= 3000.0 else 6001)
    x_mesh = v_mesh * v_mesh
    phi_g = (1.0 + (x_mesh**3 / 144.0) ** (DECAY_SIGMA / 3.0)) ** (-3.0 / DECAY_SIGMA)
    psi_g = np.log(phi_g)
    y_guess = np.vstack([psi_g, np.gradient(psi_g, v_mesh)])

    sol = solve_bvp(rhs, bc, v_mesh, y_guess, p=[13.27], tol=bvp_tol, max_nodes=120_000)
    if sol.status != 0 and not (sol.status == 1 and sol.rms_residuals.max() < 10.0 * bvp_tol):
        raise TfConvergenceError(f"collocation refinement failed: {sol.message}")
    return sol


def solve_tf(tol: float = 1e-8) -> TfSolution:
    """Solve the neutral-atom profile and evaluate the TF functional at Z=1.

    tol in [1e-10, 1e-4] steers the collocation residual target and the
    quadrature budgets; E_TF(1) is computed by inserting the reconstructed
    minimizer into the functional (kinetic, attraction, repulsion pieces by
    radial quadrature), not from the slope shortcut.
    """
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    from scipy.integrate import cumulative_simpson, simpson
    from scipy.interpolate import PchipInterpolator

    bvp_tol = min(1e-7, max(1e-11, 0.01 * tol))
    # far enough that phi(x_end) ~ 144/x^3 sits below 10*tol
    x_far = max(PROFILE_X_FAR, (144.0 / (5.0 * tol)) ** (1.0 / 3.0))
    sol = _collocation_refine(bvp_tol, x_far)

    v_nodes = sol.x
    x_nodes = v_nodes * v_nodes
    phi_nodes = np.exp(sol.y[0])
    dphi_nodes = phi_nodes * sol.y[1] / (2.0 * v_nodes)
    coeff_f = float(sol.p[0])

    v0 = v_nodes[0]
    slope = float((dphi_nodes[0] - 2.0 * v0) / (1.0 + v0**3))

    # dense resample of the collocation spline for all one-dimensional integrals
    vd = np.geomspace(v_nodes[0], v_nodes[-1], _DENSE_POINTS)
    xd = vd * vd
    phid = np.exp(sol.sol(vd)[0])
    x_far = float(x_nodes[-1])
    t_far = coeff_f * x_far ** (-DECAY_SIGMA)

    # I_A = int phi^{3/2} x^{-1/2} dx  (dx = 2 v dv), head analytic, tail power law
    head_a = 2.0 * v0 + slope * v0**3
    tail_a = (144.0 * (1.0 - t_far)) ** 1.5 / (4.0 * x_far**4)
    i_attr = simpson(2.0 * phid**1.5, x=vd) + head_a + tail_a

    # I_K = int phi^{5/2} x^{-1/2} dx
    head_k = 2.0 * v0 + (5.0 / 3.0) * slope * v0**3
    tail_k = (144.0 * (1.0 - t_far)) ** 2.5 / (7.0 * x_far**7)
    i_kin = simpson(2.0 * phid**2.5, x=vd) + head_k + tail_k

    # cumulative charge q(x) and outer integral o(x) on the dense grid
    dq = 2.0 * phid**1.5 * vd * vd  # phi^{3/2} sqrt(x) dx / dv
    q_dense = cumulative_simpson(dq, x=vd, initial=0.0) + (2.0 / 3.0) * v0**3
    o_rev = cumulative_simpson((2.0 * phid**1.5)[::-1], x=-vd[::-1], initial=0.0)[::-1]
    o_dense = o_rev + tail_a

    # D = (1/2b) int dq (q/x + o): below x0, dq = sqrt(x) dx, q/x = (2/3) sqrt(x)
    # and o = o(x0) + 2 (sqrt(x0) - sqrt(x)); past x_far, q -> 1 turns dq q/x
    # into the I_A tail, and dq o is O(x^-7) smaller
    head_r = (2.0 / 3.0) * v0**3 * (o_dense[0] + v0)
    i_rep = simpson(dq * (q_dense / xd + o_dense), x=vd) + head_r + tail_a
    repulsion = i_rep / (2.0 * TF_LENGTH_B)
    attraction = -i_attr / TF_LENGTH_B
    kinetic = _KINETIC_PREF * i_kin
    e_tf_1 = kinetic + attraction + repulsion

    grid = np.asarray(x_nodes, dtype=float)
    phi_arr = np.asarray(phi_nodes, dtype=float)
    dphi_arr = np.asarray(dphi_nodes, dtype=float)
    for arr in (grid, phi_arr, dphi_arr):
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
        asymptote_coefficient=coeff_f,
        solver_tol=tol,
        _phi_ip=PchipInterpolator(grid, phi_arr, extrapolate=False),
        _dphi_ip=PchipInterpolator(grid, dphi_arr, extrapolate=False),
        _charge_ip=PchipInterpolator(xd, q_dense, extrapolate=False),
        _outer_ip=PchipInterpolator(xd, o_dense, extrapolate=False),
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


@lru_cache(maxsize=8)
def _charge_quadrature(Z: float, sol: TfSolution):
    """Nodes w_i (Hartree radius) and per-node charge weights.

    Charge weights integrate to Z (trapezoid of Z * phi^{3/2} sqrt(x) dx on a
    dense log grid); used by the enclosed-charge and hole-potential kernels.
    Cached per (Z, solution) pair; TfSolution hashes by identity.
    """
    x = np.geomspace(PROFILE_X0, sol.grid[-1], 20001)
    phi = np.maximum(sol.phi_at(x), 0.0)
    f = phi**1.5 * np.sqrt(x)
    dx = np.diff(x)
    w_mid = 0.5 * (x[:-1] + x[1:]) * TF_LENGTH_B * Z ** (-1.0 / 3.0)
    cw = Z * 0.5 * (f[:-1] + f[1:]) * dx
    w_mid.setflags(write=False)
    cw.setflags(write=False)
    return w_mid, cw


def _enclosed_charge(w_nodes, charge_w, d: float, radius: float) -> float:
    """Charge of rho_Z inside the ball of given radius centered at |x| = d."""
    if radius <= 0.0:
        return 0.0
    if d == 0.0:
        return float(np.sum(charge_w[w_nodes <= radius]))
    cos_t = (d * d + w_nodes * w_nodes - radius * radius) / (2.0 * d * w_nodes)
    frac = np.clip(0.5 * (1.0 - cos_t), 0.0, 1.0)
    return float(np.dot(frac, charge_w))


def _hole_potential(w_nodes, charge_w, d: float, radius: float) -> float:
    """int_{|y - x| <= radius} rho_Z(y)/|x - y| dy at center distance d."""
    lo = np.abs(d - w_nodes)
    hi = np.minimum(d + w_nodes, radius)
    seg = np.maximum(hi - lo, 0.0)
    return float(np.dot(seg / (2.0 * w_nodes * d), charge_w))


def exchange_hole_radius(Z: float, sol: TfSolution, r: float) -> float:
    """Smallest radius whose ball centered at |x| = r holds TF charge 1/2.

    Computed by bisection on the spherically averaged enclosed-charge
    integral; satisfies the scaling R_Z(r) = Z^{-1/3} R_1(Z^{1/3} r).
    """
    from scipy.optimize import brentq

    _require_positive(Z=Z, r=r)
    if Z < 0.5:
        raise InsufficientChargeError(
            f"total charge {Z} < 1/2: no half-charge ball exists"
        )
    w_nodes, charge_w = _charge_quadrature(Z, sol)
    r_hi = r + w_nodes[-1]

    def objective(radius: float) -> float:
        return _enclosed_charge(w_nodes, charge_w, r, radius) - 0.5

    if objective(r_hi) < 0.0:
        raise InsufficientChargeError(
            f"quadrature charge cannot reach 1/2 within radius {r_hi}"
        )
    return float(brentq(objective, 0.0, r_hi, xtol=1e-13, rtol=8.9e-16))


def screening_potential(Z: float, c: float, sol: TfSolution, x: float) -> float:
    """Hole-screened mean-field potential chi(x) in units of mc^2.

    chi(x) = c^-2 * int_{|xt - y| > R_Z(xt)} rho_Z(y)/|xt - y| dy with
    xt = x/c in TF coordinates: the full Newton potential minus the
    charge-1/2 hole ball contribution.  Satisfies
    0 < chi(x) < c^-2 V_Z(x/c) and ||chi||_inf <= C Z^{4/3} c^-2.
    """
    _require_positive(Z=Z, c=c, x=x)
    xt = x / c
    radius = exchange_hole_radius(Z, sol, xt)
    w_nodes, charge_w = _charge_quadrature(Z, sol)
    hole = _hole_potential(w_nodes, charge_w, xt, radius)
    full = float(mean_field(Z, sol, xt))
    return (full - hole) / (c * c)
