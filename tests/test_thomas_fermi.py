import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from relscott import (
    InsufficientChargeError,
    density,
    exchange_hole_radius,
    hurwitz_zeta,
    mean_field,
    screening_potential,
    solve_tf,
    tf_energy,
    tf_functional_at_scale,
)
from relscott.cli import main
from relscott.thomas_fermi import (
    _GAUSS_W,
    _GAUSS_X,
    TF_LENGTH_B,
    TOL_MIN,
    _ball_charge,
    _ball_potential,
    _ball_rows,
    _eliminate,
)

from _oracles import (
    ball_charge,
    ball_potential,
    shoot_classify,
    solve_tf_bvp,
)
from _support import EDGE_FLOATS, child_stdout

BAKER_SLOPE = -1.5880710226113753  # literature value of phi'(0)


def test_energy_value(tf_solution):
    assert tf_solution.e_tf_1 == pytest.approx(-0.768745, abs=1e-4)


def test_initial_slope(tf_solution):
    assert tf_solution.initial_slope == pytest.approx(-1.5881, abs=1e-3)
    # with phi's x^3/3 term in the head phi' below x0, and o(x_end) = -phi'(x_end)
    # of the decay law, phi'(0) = -o(0) lands within about 2e-14 of Baker's value
    # (the solve's rounding moves it within [-2.8e-14, 6.7e-14] as the start
    # varies)
    assert abs(tf_solution.initial_slope - BAKER_SLOPE) <= 1e-13


def test_shooting_brackets_the_collocation_slope(tf_solution):
    # an independent method: shooting 1e-8 below the solver's slope
    # overshoots (phi hits zero), 1e-8 above it undershoots (phi' turns up)
    assert shoot_classify(tf_solution.initial_slope - 1e-8) == -1
    assert shoot_classify(tf_solution.initial_slope + 1e-8) == +1


def test_chebyshev_solver_matches_the_bvp_oracle():
    # the earlier solve_bvp solver, now a test oracle, at the tightest tol
    sol = solve_tf(1e-10)
    slope, e_tf_1 = solve_tf_bvp(1e-10)
    assert abs(sol.initial_slope - slope) <= 1e-11
    assert abs(sol.e_tf_1 - e_tf_1) <= 1e-11


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
def test_tol_bounds_the_slope_error(tol):
    assert abs(solve_tf(tol).initial_slope - BAKER_SLOPE) <= tol


@pytest.mark.parametrize("n", [1, 2, 5, 9, 31, 33])
def test_eliminate_matches_numpy_solve(n):
    # one stack of systems that need different row swaps: a zero leading
    # pivot, a diagonally dominant matrix (no swap), the same with its rows
    # reversed (swaps throughout) and a random one; numpy.linalg.solve is
    # only the oracle here
    rng = np.random.default_rng(n)
    a = rng.standard_normal((4, n, n))
    a[1] += 4.0 * n * np.eye(n)
    a[2] = a[1, ::-1]
    if n > 1:
        a[0, 0, 0] = 0.0
    b = rng.standard_normal((4, n, 3))
    given = a.copy(), b.copy()
    x = _eliminate(a, b)
    assert x.shape == b.shape
    assert np.array_equal(a, given[0]) and np.array_equal(b, given[1])
    for system in range(4):
        expected = np.linalg.solve(a[system], b[system])
        assert np.max(np.abs(x[system] - expected)) <= 1e-12 * np.max(np.abs(expected)), system


def test_profile_shape(tf_solution):
    sol = tf_solution
    assert sol.phi[0] == pytest.approx(1.0, abs=1e-5)
    assert np.all(np.diff(sol.grid) > 0.0)
    assert np.all(sol.phi > 0.0)
    assert np.all(np.diff(sol.phi) < 0.0)  # strictly decreasing


def test_profile_endpoint(tf_solution):
    assert tf_solution.phi[-1] < 10.0 * TOL_MIN


def test_decay_law_validated(tf_solution):
    # x^3 phi -> 144 with the fitted two-term subleading correction; the
    # computed profile follows the power law it was matched to, and the
    # fitted coefficient is stable against where it is probed
    sol = tf_solution
    sigma = (np.sqrt(73.0) - 7.0) / 2.0
    a2 = 9.0 / (2.0 * ((3.0 + 2.0 * sigma) * (4.0 + 2.0 * sigma) - 18.0))
    for x in (800.0, 1400.0, 1900.0):
        t = sol.asymptote_coefficient * x ** (-sigma)
        assert sol.phi_at(x) * x**3 / 144.0 == pytest.approx(1.0 - t + a2 * t * t, rel=2e-4)
    assert sol.asymptote_coefficient == pytest.approx(13.27, abs=0.05)


def test_interpolation_continuity(tf_solution):
    # grid values join the series head and the power-law continuation
    sol = tf_solution
    x0, x_end = sol.grid[0], sol.grid[-1]
    series_val = 1.0 + sol.initial_slope * x0 + (4.0 / 3.0) * x0**1.5
    assert sol.phi[0] == pytest.approx(series_val, abs=1e-10)
    assert sol.phi[-1] == pytest.approx(sol.phi_at(x_end * (1.0 + 1e-12)), rel=1e-6)


def test_node_columns_join_the_head_and_the_decay(tf_solution):
    # phi, phi', q, o and both parts of the moment int t dq meet their
    # series head at the grid's start and their power-law forms at the far end
    x0, x_end = tf_solution.grid[0], tf_solution.grid[-1]
    for end, beyond in ((x0, x0 * (1.0 - 1e-12)), (x_end, x_end * (1.0 + 1e-12))):
        on_grid, off_grid = tf_solution._rows([float(end), float(beyond)])
        assert off_grid == pytest.approx(on_grid, rel=1e-9, abs=0.0), end


def _array_lookup(sol, x):
    """The array lookup the row lookup replaced, on ln x from math.log:
    searchsorted domains, one batched einsum, node hits.  Returns ln phi, its
    slope, q, o, p and p's rest at each x."""
    s = np.array([math.log(v) for v in x])
    domain = np.asarray(sol._breaks)[1:-1].searchsorted(s)
    gap = s[:, None] - sol._nodes.take(domain, axis=0)
    hit = gap == 0.0
    gap[hit] = 1.0
    vals = sol._values.take(domain, axis=0)
    sums = np.einsum("ij,ikj->ik", sol._weights / gap, vals)
    out = sums[:, :-1] / sums[:, -1:]
    rows, cols = np.nonzero(hit)
    out[rows] = vals[rows, :-1, cols]
    return out


def _on_log(target: float) -> float | None:
    """A float x with math.log(x) == target, if one lies within 8 floats of exp(target)."""
    x = math.exp(target)
    for _ in range(8):
        if math.log(x) == target:
            return x
        x = math.nextafter(x, math.inf if math.log(x) < target else 0.0)
    return None


def _lookup_points(sol, count: int, seed: int) -> list:
    """Seeded points spread in ln x over the grid, with its ends and 1.0 (an inner break)."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(sol.grid[0]), math.log(sol.grid[-1])
    return [float(sol.grid[0]), float(sol.grid[-1]), 1.0,
            *np.exp(rng.uniform(lo, hi, count)).clip(sol.grid[0], sol.grid[-1]).tolist()]


def test_row_lookup_is_the_same_alone_and_in_any_batch(tf_solution):
    x = _lookup_points(tf_solution, 60, 11)
    alone = [tf_solution._lookup([v])[0] for v in x]
    assert all(len(row) == 6 and all(type(c) is float for c in row) for row in alone)
    rng = np.random.default_rng(12)
    for size in (2, 3, 7, len(x)):
        order = rng.permutation(len(x)).tolist()
        for start in range(0, len(x), size):
            batch = order[start:start + size]
            assert tf_solution._lookup([x[i] for i in batch]) == [alone[i] for i in batch], size


def test_row_lookup_keeps_the_array_lookups_columns(tf_solution):
    # q, o and the two moments keep the array lookup's bits; phi and phi' move
    # only by exp's rounding, math's against numpy's
    x = _lookup_points(tf_solution, 400, 13)
    rows = np.array(tf_solution._lookup(x))
    old = _array_lookup(tf_solution, x)
    assert np.array_equal(rows[:, 2:], old[:, 2:])
    phi = np.exp(old[:, 0])
    assert np.all(np.abs(rows[:, 0] - phi) <= np.spacing(phi))
    assert np.allclose(rows[:, 1], phi * old[:, 1] / (2.0 * np.array(x)), rtol=4e-16, atol=0.0)


def test_row_lookup_on_breaks_and_grid_ends_takes_the_array_lookups_domain(tf_solution):
    # a point on an inner break takes the domain below it, as searchsorted did
    on_breaks = [_on_log(b) for b in tf_solution._breaks[1:-1]]
    assert None not in on_breaks
    x = [*on_breaks, float(tf_solution.grid[0]), float(tf_solution.grid[-1])]
    rows = np.array(tf_solution._lookup(x))
    old = _array_lookup(tf_solution, x)
    assert np.array_equal(rows[:, 2:], old[:, 2:])
    phi = [math.exp(psi) for psi in old[:, 0].tolist()]
    assert rows[:, 0].tolist() == phi
    assert rows[:, 1].tolist() == [p * psi_t / (2.0 * v) for p, psi_t, v in zip(phi, old[:, 1], x)]


def test_row_lookup_on_a_node_returns_the_node_values(tf_solution):
    found = 0
    for d, (nodes, values) in enumerate(zip(tf_solution._nodes, tf_solution._values)):
        for j, node in enumerate(nodes.tolist()):
            x = _on_log(node)
            if x is None or (j == 0 and d > 0):  # a domain's start is the last one's end
                continue
            found += 1
            psi, psi_t, *rest = values[:-1, j].tolist()
            phi = math.exp(psi)
            assert tf_solution._lookup([x]) == [(phi, phi * psi_t / (2.0 * x), *rest)], (d, j)
    assert found >= 100


def test_gauss_legendre_rule():
    # the 8-point rule the hole kernels use on [0, 1], against numpy's
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(_GAUSS_X - 0.5 * (1.0 + nodes))) <= 2e-16
    assert np.max(np.abs(_GAUSS_W - 0.5 * weights)) <= 2e-16


def test_functional_pieces(tf_solution):
    sol = tf_solution
    assert sol.kinetic_1 + sol.attraction_1 + sol.repulsion_1 == pytest.approx(sol.e_tf_1, abs=1e-15)
    # scaling virial and amplitude stationarity of the minimizer
    assert abs(2.0 * sol.kinetic_1 + sol.attraction_1 + sol.repulsion_1) < 1e-6
    assert abs(5.0 / 3.0 * sol.kinetic_1 + sol.attraction_1 + 2.0 * sol.repulsion_1) < 1e-6


def test_functional_pieces_keep_the_tf_ratios():
    # with the attraction A = phi'(0)/b, TF theory gives E = 3A/7, K = -3A/7
    # and R = -A/7 exactly
    sol = solve_tf(1e-10)
    a = sol.initial_slope / TF_LENGTH_B
    assert abs(sol.e_tf_1 - 3.0 * a / 7.0) <= 1e-11
    assert abs(sol.kinetic_1 + 3.0 * a / 7.0) <= 1e-11
    assert abs(sol.repulsion_1 + a / 7.0) <= 1e-11


def test_minimality_probe(tf_solution):
    e0 = tf_functional_at_scale(tf_solution, 1.0)
    assert e0 == pytest.approx(tf_solution.e_tf_1, abs=1e-15)
    assert tf_functional_at_scale(tf_solution, 1.01) > e0
    assert tf_functional_at_scale(tf_solution, 0.99) > e0


def test_tf_energy_scaling(tf_solution):
    assert tf_energy(1.0, tf_solution) == tf_solution.e_tf_1
    assert tf_energy(10.0, tf_solution) == pytest.approx(-0.768745 * 10.0 ** (7.0 / 3.0), rel=2e-4)
    assert tf_energy(10.0, tf_solution) == pytest.approx(-165.62, abs=0.02)
    assert abs(tf_energy(1e-9, tf_solution)) < 1e-20
    with pytest.raises(ValueError):
        tf_energy(0.0, tf_solution)


def test_charge_normalization(tf_solution):
    rho = density(1.0, tf_solution)
    r = np.geomspace(1e-8, tf_solution.grid[-1] * TF_LENGTH_B, 40001)
    from scipy.integrate import simpson

    q_grid = simpson(4.0 * np.pi * rho(r) * r * r, x=r)
    q_tail, _ = quad(lambda u: 4.0 * np.pi * rho(u) * u * u, r[-1], np.inf)
    q_head = (2.0 / 3.0) * (r[0] / TF_LENGTH_B) ** 1.5
    assert q_grid + q_tail + q_head == pytest.approx(1.0, abs=1e-6)


def test_density_scaling(tf_solution):
    r = np.geomspace(1e-3, 50.0, 60)
    rho8 = density(8.0, tf_solution)
    rho1 = density(1.0, tf_solution)
    assert rho8(r) == pytest.approx(64.0 * rho1(2.0 * r), rel=1e-12)


def test_density_pointwise_bound(tf_solution):
    for z in (1.0, 8.0, 30.0):
        rho = density(z, tf_solution)
        r = np.geomspace(1e-6, 500.0, 400)
        assert np.all(rho(r) <= (2.0 * z / r) ** 1.5 / (3.0 * np.pi**2) * (1.0 + 1e-12))


def test_density_domain(tf_solution):
    rho = density(1.0, tf_solution)
    with pytest.raises(ValueError):
        rho(0.0)
    with pytest.raises(ValueError):
        density(-1.0, tf_solution)


def test_mean_field_newton_vs_tf_identity(tf_solution):
    # Newton quadrature route must agree with V = (Z/r)(1 - phi(r/b)) from
    # the stationarity condition
    for z in (1.0, 8.0):
        r = np.geomspace(1e-4, 100.0, 120)
        v = mean_field(z, tf_solution, r)
        x = z ** (1.0 / 3.0) * r / TF_LENGTH_B
        ident = (z / r) * (1.0 - tf_solution.phi_at(x))
        assert v == pytest.approx(ident, rel=1e-7)


def test_mean_field_far_field(tf_solution):
    # r V_Z(r) -> Z once all charge is enclosed
    for z in (1.0, 8.0):
        gaps = [abs(r * mean_field(z, tf_solution, r) / z - 1.0) for r in (150.0, 600.0)]
        assert gaps[-1] < 1e-4
        assert gaps[-1] < gaps[0]


def test_mean_field_sup_scaling(tf_solution):
    r = np.geomspace(1e-7, 200.0, 300)
    sup1 = np.max(mean_field(1.0, tf_solution, r))
    sup8 = np.max(mean_field(8.0, tf_solution, r / 2.0) / 8.0 ** (4.0 / 3.0))
    assert sup8 == pytest.approx(sup1, rel=1e-12)
    assert sup1 == pytest.approx(-BAKER_SLOPE / TF_LENGTH_B, rel=1e-3)


def test_mean_field_gradient_bound_shape(tf_solution):
    # |V_Z'(r)| sqrt(r) Z^{-3/2} is bounded by its Z=1 supremum: by scaling,
    # V_Z'(r) = Z^{5/3} V_1'(Z^{1/3} r), so the shape function on mapped grids
    # is Z-independent and finite
    r = np.geomspace(1e-5, 20.0, 100)
    h = 1e-7
    d1 = (mean_field(1.0, tf_solution, r + h) - mean_field(1.0, tf_solution, r - h)) / (2 * h)
    shape1 = np.abs(d1) * np.sqrt(r)
    assert np.all(np.isfinite(shape1))
    z = 27.0
    rz = r * z ** (-1.0 / 3.0)
    hz = h * z ** (-1.0 / 3.0)
    dz = (mean_field(z, tf_solution, rz + hz) - mean_field(z, tf_solution, rz - hz)) / (2 * hz)
    assert dz == pytest.approx(z ** (5.0 / 3.0) * d1, rel=1e-5)
    shape_z = np.abs(dz) * np.sqrt(rz) * z ** (-1.5)
    assert np.max(shape_z) <= np.max(shape1) * (1.0 + 1e-5)


def test_mean_field_domain(tf_solution):
    with pytest.raises(ValueError):
        mean_field(1.0, tf_solution, 0.0)
    with pytest.raises(ValueError):
        mean_field(1.0, tf_solution, -2.0)


@pytest.fixture(scope="module")
def fine_solution():
    """The tol-1e-10 profile that the quadrature oracle integrates."""
    return solve_tf(1e-10)


def test_hole_radius_defining_property(fine_solution):
    # the Z = 1 ball at Z^(1/3) d of radius Z^(1/3) R_Z(d) holds 1/(2Z)
    for z in (1.0, 92.0):
        scale = z ** (1.0 / 3.0)
        for d in (1e-9, 1e-6, 0.05, 0.5, 1.0, 5.0, 60.0, 3000.0):
            radius = exchange_hole_radius(z, fine_solution, d)
            charge = ball_charge(fine_solution, scale * d, scale * radius)
            assert charge == pytest.approx(0.5 / z, abs=1e-10), (z, d)


@pytest.mark.parametrize("d", [1e-9, 1e-5, 1e-3, 0.05, 1.0, 60.0, 3000.0])
def test_moment_kernels_match_the_node_sums(fine_solution, d):
    # the closed forms in the cumulative moments (and their Gauss-Legendre
    # fallback) against quadrature of the profile, at and around the
    # half-charge radius
    root = exchange_hole_radius(1.0, fine_solution, d)
    dt = d / TF_LENGTH_B
    for radius in (0.5 * root, root * (1 - 1e-6), root, root * (1 + 1e-6), 2.0 * root):
        rt = radius / TF_LENGTH_B
        a, b, c = _ball_rows(fine_solution, (abs(rt - dt), rt + dt, dt))
        charge = _ball_charge(fine_solution, dt, rt, a, b)[0]
        hole = _ball_potential(fine_solution, dt, rt, a, b, c) / TF_LENGTH_B
        assert abs(charge - ball_charge(fine_solution, d, radius)) <= 1e-12
        assert hole == pytest.approx(ball_potential(fine_solution, d, radius), rel=1e-10, abs=0.0)


def test_hole_radius_monotone(tf_solution):
    # TF density is radially decreasing, so beyond the (origin) peak the
    # half-charge radius cannot decrease
    rs = np.geomspace(0.02, 50.0, 25)
    radii = [exchange_hole_radius(1.0, tf_solution, float(r)) for r in rs]
    assert all(b >= a - 1e-9 for a, b in zip(radii, radii[1:]))


def test_hole_radius_scaling(fine_solution):
    # absolute charge 1/2 transforms the defining equation to
    # Z * enc_1(Z^{1/3} d, Z^{1/3} R_Z(d)) = 1/2
    z, d = 8.0, 0.5
    rhat = brentq(
        lambda rr: ball_charge(fine_solution, z ** (1.0 / 3.0) * d, rr) - 0.5 / z,
        1e-3,
        2000.0,
        xtol=1e-13,
    )
    assert exchange_hole_radius(z, fine_solution, d) == pytest.approx(
        z ** (-1.0 / 3.0) * rhat, rel=1e-11
    )


def test_hole_radius_domain(tf_solution):
    with pytest.raises(ValueError):
        exchange_hole_radius(1.0, tf_solution, 0.0)
    # at Z = 1/2 the ball would hold the whole atom: rejected before any search
    for z in (0.4, 0.5):
        with pytest.raises(InsufficientChargeError, match=f"^total charge {z} <= 1/2"):
            exchange_hole_radius(z, tf_solution, 1.0)


def test_hole_radius_far_out_is_the_centre(tf_solution):
    # d + x_end rounds to d, and the ball of radius d holds about half the atom,
    # less than 1/(2Z) for Z < 1: the radius lies in (d, d + x_end], which
    # rounds to d
    for z, r in ((0.75, 1e20), (0.9, 1e300)):
        assert exchange_hole_radius(z, tf_solution, r) == pytest.approx(r, rel=4e-16, abs=0.0)
    # q(x_end) < 1/(2Z): the radius may lie past the profile's end
    for r in (1.0, 1e20):
        with pytest.raises(InsufficientChargeError, match="^charge cannot reach 1/2 within radius"):
            exchange_hole_radius(0.5 + 1e-10, tf_solution, r)


def test_screening_far_out_leaves_z_minus_a_half(tf_solution):
    # where d + x_end rounds to d (d ~ x/c) the hole's charge 1/(2Z) sits at
    # distance d, so chi(x) = (Z - 1/2)/(x c) to rounding, on either side of Z = 1
    for z, r in ((0.75, 1e20), (0.9, 1e300), (2.0, 1e20), (92.0, 1e300)):
        for c in (1.0, 137.0):
            chi = screening_potential(z, c, tf_solution, r * c)
            assert r * c * c * chi / (z - 0.5) == pytest.approx(1.0, rel=1e-14)


def test_screening_bounds(tf_solution):
    # 0 < chi(x) < c^-2 V_Z(x/c) strictly on a log grid spanning [1e-3,1e3]*c
    for c in (1.0, 2.0):
        for x in np.geomspace(1e-3 * c, 1e3 * c, 13):
            chi = screening_potential(1.0, c, tf_solution, float(x))
            ub = mean_field(1.0, tf_solution, float(x) / c) / (c * c)
            assert 0.0 < chi < ub


def test_screening_oracle_value(tf_solution):
    # independent dense 2D quadrature (numerical angular integral)
    d = 1.0
    radius = exchange_hole_radius(1.0, tf_solution, d)
    rho = density(1.0, tf_solution)

    def angular(u):
        def integrand(mu):
            s = np.sqrt(u * u + d * d - 2.0 * d * u * mu)
            return 1.0 / s if s > radius else 0.0

        crit = np.clip((u * u + d * d - radius * radius) / (2.0 * d * u), -1.0, 1.0)
        val, _ = quad(integrand, -1.0, 1.0, limit=200, points=[crit])
        return val

    outer = lambda u: 2.0 * np.pi * rho(u) * u * u * angular(u)
    v1, _ = quad(outer, 1e-6, d + radius, limit=300, points=[max(radius - d, 1e-9), d, radius])
    v2, _ = quad(outer, d + radius, 60.0, limit=300)
    v3, _ = quad(outer, 60.0, np.inf, limit=200)
    oracle = v1 + v2 + v3
    assert screening_potential(1.0, 1.0, tf_solution, 1.0) == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("z", [1.0, 92.0])
def test_screening_matches_the_quad_oracle(fine_solution, z):
    # the full potential less Z^(4/3) times the quadrature potential of the
    # Z = 1 ball at the library's own radius
    c = 137.0
    scale = z ** (1.0 / 3.0)
    for x in (c * r for r in (1e-9, 1e-6, 0.05, 1.0, 60.0, 3000.0)):
        xt = x / c  # the point screening_potential works at
        radius = exchange_hole_radius(z, fine_solution, xt)
        hole = z ** (4.0 / 3.0) * ball_potential(fine_solution, scale * xt, scale * radius)
        oracle = (mean_field(z, fine_solution, xt) - hole) / (c * c)
        assert screening_potential(z, c, fine_solution, x) == pytest.approx(
            oracle, rel=1e-10, abs=0.0), (z, xt)


def test_screening_far_field(tf_solution):
    # x chi(x) c^2 -> Z - 1/2 (Newton's theorem with the half-charge hole)
    vals = [x * screening_potential(1.0, 1.0, tf_solution, float(x)) for x in (100.0, 300.0, 1000.0)]
    assert abs(vals[-1] - 0.5) < 5e-3
    assert abs(vals[-1] - 0.5) < abs(vals[0] - 0.5)


def test_screening_c_scaling(tf_solution):
    # chi(x; c) = c^-2 chi_tilde(x/c): two routes through the API agree
    x = 3.0
    a = screening_potential(1.0, 2.0, tf_solution, x)
    b = screening_potential(1.0, 1.0, tf_solution, x / 2.0) / 4.0
    assert a == pytest.approx(b, rel=1e-12)


def test_hole_fields_do_not_depend_on_blas_threads():
    code = """
import relscott
sol = relscott.solve_tf(1e-8)
for z, r in ((1.0, 0.02), (8.0, 0.5), (47.0, 2.0), (92.0, 10.0)):
    print(repr(relscott.exchange_hole_radius(z, sol, r)),
          repr(relscott.screening_potential(z, 137.0, sol, 137.0 * r)))
"""
    outputs = [child_stdout(code, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_screening_domain(tf_solution):
    with pytest.raises(ValueError):
        screening_potential(1.0, 1.0, tf_solution, 0.0)
    with pytest.raises(ValueError):
        screening_potential(1.0, 0.0, tf_solution, 1.0)
    for z in (0.4, 0.5):
        with pytest.raises(InsufficientChargeError, match=f"^total charge {z} <= 1/2"):
            screening_potential(z, 1.0, tf_solution, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_names_the_argument(tf_solution, bad):
    sol = tf_solution
    calls = [
        (lambda: tf_energy(bad, sol), "^Z must be positive and finite"),
        (lambda: density(bad, sol), "^Z must be positive and finite"),
        (lambda: exchange_hole_radius(bad, sol, 1.0), "^Z must be positive and finite"),
        (lambda: exchange_hole_radius(1.0, sol, bad), "^r must be positive and finite"),
        (lambda: screening_potential(1.0, bad, sol, 1.0), "^c must be positive and finite"),
        (lambda: screening_potential(1.0, 1.0, sol, bad), "^x must be positive and finite"),
        (lambda: density(1.0, sol)(bad), "requires finite r > 0"),
        (lambda: density(1.0, sol)(np.array([1.0, bad])), "requires finite r > 0"),
        (lambda: mean_field(1.0, sol, bad), "requires finite r > 0"),
        (lambda: sol.phi_at(bad), "requires finite x > 0"),
        (lambda: sol.dphi_at(np.array([bad])), "requires finite x > 0"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()


_PUBLIC_CALLS = {
    "density": (("Z", "r"), lambda sol, Z, r: density(Z, sol)(r)),
    "density_array": (("Z", "r"), lambda sol, Z, r: density(Z, sol)(np.array([[r], [1.0]]))),
    "mean_field": (("Z", "r"), lambda sol, Z, r: mean_field(Z, sol, r)),
    "mean_field_array": (("Z", "r"), lambda sol, Z, r: mean_field(Z, sol, np.array([r, 2.0]))),
    "phi_at": (("x",), lambda sol, x: sol.phi_at(x)),
    "dphi_at": (("x",), lambda sol, x: sol.dphi_at(x)),
    "enclosed_profile_charge": (("x",), lambda sol, x: sol.enclosed_profile_charge(x)),
    "outer_profile_integral": (("x",), lambda sol, x: sol.outer_profile_integral(x)),
    "exchange_hole_radius": (("Z", "r"), lambda sol, Z, r: exchange_hole_radius(Z, sol, r)),
    "screening_potential": (("Z", "c", "x"),
                            lambda sol, Z, c, x: screening_potential(Z, c, sol, x)),
    "hurwitz_zeta": (("s", "a"), lambda sol, s, a: hurwitz_zeta(s, a)),
    "tf_functional_at_scale": (("amplitude",),
                               lambda sol, amplitude: tf_functional_at_scale(sol, amplitude)),
}


@pytest.mark.parametrize("name", list(_PUBLIC_CALLS))
@settings(max_examples=30, deadline=None)
@given(values=st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS))
def test_any_float_gives_a_finite_value_or_names_the_argument(tf_solution, name, values):
    names, call = _PUBLIC_CALLS[name]
    args = dict(zip(names, values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(tf_solution, **args)
        except InsufficientChargeError:
            return  # documented: total charge too close to 1/2 for a hole radius
        except ValueError as exc:
            assert any(re.search(rf"\b{arg}\b", str(exc)) for arg in names), str(exc)
            return
    assert np.isfinite(value).all(), (args, value)


@pytest.mark.parametrize("bad", ["3", None])
def test_non_numbers_name_the_argument(tf_solution, bad):
    # Z, r, c and amplitude are compared only once their type is known; tol
    # and x go through float(), which reads a numeric string
    sol = tf_solution
    calls = [
        (lambda: tf_energy(bad, sol), "^Z must be positive and finite"),
        (lambda: density(bad, sol), "^Z must be positive and finite"),
        (lambda: mean_field(bad, sol, 1.0), "^Z must be positive and finite"),
        (lambda: exchange_hole_radius(1.0, sol, bad), "^r must be positive and finite"),
        (lambda: screening_potential(1.0, bad, sol, 1.0), "^c must be positive and finite"),
        (lambda: tf_functional_at_scale(sol, bad), "^amplitude must be positive and finite"),
        (lambda: solve_tf(bad), "^tol must lie in"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert sol.phi_at("0.5") == sol.phi_at(0.5)


def test_profile_export(tf_solution, tmp_path):
    out = tmp_path / "profile.csv"
    tf_solution.export_profile_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 1 + tf_solution.grid.size
    x0, p0 = lines[1].split(",")
    assert float(x0) == pytest.approx(tf_solution.grid[0], rel=1e-12)
    assert float(p0) == pytest.approx(tf_solution.phi[0], rel=1e-12)


def test_solver_tol_domain():
    with pytest.raises(ValueError):
        solve_tf(1e-3)
    with pytest.raises(ValueError):
        solve_tf(1e-11)


def test_one_profile_for_every_tol(capsys):
    # tol is validated but does not reach the profile: the far end is fixed
    solutions = [solve_tf(tol) for tol in (1e-4, 1e-8, 1e-10)]
    first = solutions[0]
    assert first.phi[-1] < 1e-9
    for sol in solutions[1:]:
        for name in ("grid", "phi"):
            assert np.array_equal(getattr(sol, name), getattr(first, name)), name
        for name in ("initial_slope", "e_tf_1", "kinetic_1", "attraction_1", "repulsion_1",
                     "asymptote_coefficient"):
            assert getattr(sol, name) == getattr(first, name), name
    printed = []
    for tol in ("1e-4", "1e-10"):
        assert main(["tf", "--json", "--tol", tol]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_solver_tolerance_extremes():
    # both ends of the accepted tol range converge and honor the endpoint
    for tol in (1e-4, 1e-10):
        sol = solve_tf(tol)
        assert sol.phi[-1] < 10.0 * tol
        assert sol.e_tf_1 == pytest.approx(-0.768745, abs=1e-4)
        assert sol.initial_slope == pytest.approx(BAKER_SLOPE, abs=1e-8)
