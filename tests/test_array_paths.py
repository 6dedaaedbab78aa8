"""The array forms the channel sums and the TF profile run on agree bit for
bit with scalar and per-channel evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscott import density, exchange_hole_radius, hurwitz_zeta, mean_field, screening_potential
from relscott import scott_shift
from relscott.hydrogenic import difference_over_gamma2_kernel, fine_structure_kernel
from relscott.quantum_numbers import kappa_bars


def _channels(l_count):
    return [(l, kb) for l in range(l_count) for kb in kappa_bars(l)]


@pytest.mark.parametrize("kernel", [difference_over_gamma2_kernel, fine_structure_kernel])
@pytest.mark.parametrize("gamma", [0.05, 0.6, 0.9375, 0.9999])
def test_2d_kernel_equals_row_by_row(kernel, gamma):
    n = np.arange(1, 301, dtype=float)
    chans = _channels(40)
    l = np.array([c[0] for c in chans], dtype=float)
    kb = np.array([c[1] for c in chans])
    grid = kernel(gamma, n + l[:, None], kb[:, None])
    assert grid.shape == (len(chans), n.size)
    for row, (li, kbi) in zip(grid, chans):
        assert np.array_equal(row, kernel(gamma, n + li, kbi))


@pytest.mark.parametrize("block", [1, 7, 300, 1 << 13])
def test_blocked_channel_sums_equal_channel_loop(block, monkeypatch):
    # any block size (rows per kernel call) gives the per-channel loop's bits
    monkeypatch.setattr(scott_shift, "_BLOCK_ELEMENTS", block)
    gamma, l_count, n_cut = 0.9, 30, 64
    n = np.arange(1, n_cut + 1, dtype=float)
    want = [
        2.0 * kb * float(np.sum(difference_over_gamma2_kernel(gamma, n + l, kb)))
        for l, kb in _channels(l_count)
    ]
    l, kb = scott_shift._channel_arrays(l_count)
    sums = scott_shift._weighted_channel_sums(difference_over_gamma2_kernel, gamma, l, kb, n_cut)
    assert sums.tolist() == want


@pytest.mark.parametrize("block", [1, 7, 300, 1 << 13])
def test_blocked_series_sums_equal_channel_loop(block, monkeypatch):
    # the series of every channel has the bits of that channel evaluated alone
    gamma, l_count, order = 0.9375, 40, 14
    want = [
        float(scott_shift._series_sums(gamma, np.array([float(l)]), np.array([kb]), order)[0])
        for l, kb in _channels(l_count)
    ]
    monkeypatch.setattr(scott_shift, "_BLOCK_ELEMENTS", block)
    l, kb = scott_shift._channel_arrays(l_count)
    assert scott_shift._series_sums(gamma, l, kb, order).tolist() == want


@pytest.mark.parametrize("gamma", [0.05, 0.6, 0.9375, 0.9999])
def test_series_sums_equal_the_order_by_order_loop(gamma):
    # the table forms keep the loop's order of operations: h_i h_{k-i} in
    # ascending i, and the series from the highest order down
    order, n0 = 15, scott_shift._N_SERIES
    l, kb = scott_shift._channel_arrays(40)
    g2 = gamma * gamma
    delta = g2 / (kb + np.sqrt((kb - gamma) * (kb + gamma)))
    inv_d = [np.ones_like(kb), 2.0 * delta]
    for _ in range(2, order - 1):
        inv_d.append(2.0 * delta * inv_d[-1] - 2.0 * kb * delta * inv_d[-2])
    h = [None, None, np.full_like(kb, -0.5)]
    for k in range(3, order + 1):
        conv = sum(h[i] * h[k - i] for i in range(2, k - 1))
        h.append(-0.5 * inv_d[k - 2] - 0.5 * g2 * conv)
    assert np.array_equal(scott_shift._taylor_coefficients(gamma, kb, order), h[3:])
    zetas = [[hurwitz_zeta(float(k), x + n0) for x in l.tolist()] for k in range(3, order + 1)]
    want = 2.0 * kb * sum(c * np.array(z) for c, z in zip(h[:2:-1], zetas[::-1]))
    assert np.array_equal(scott_shift._series_sums(gamma, l, kb, order), want)


def test_shift_bits_do_not_depend_on_block_size(monkeypatch):
    want = scott_shift.shift(0.9, 1e-9)
    for block in (5, 1000, 1 << 15):
        monkeypatch.setattr(scott_shift, "_BLOCK_ELEMENTS", block)
        assert scott_shift.shift(0.9, 1e-9) == want


def test_channel_arrays_follow_kappa_bars():
    for l_count in (1, 2, 9, 4096):
        l, kb = scott_shift._channel_arrays(l_count)
        want = [(float(li), k) for li in range(l_count) for k in kappa_bars(li)]
        assert list(zip(l.tolist(), kb.tolist())) == want


@pytest.mark.parametrize("s", [1.05, 2.0, 3.0, 4.0, 5.0, 6.5, 30.0])
def test_array_hurwitz_equals_scalar_calls(s):
    # small a runs the masked head loop for a different number of terms per
    # element; large a goes straight to the Euler-Maclaurin tail
    rng = np.random.default_rng(7)
    a = np.concatenate([
        rng.uniform(0.1, 40.0, 200),
        np.arange(1.0, 70.0),
        rng.uniform(40.0, 1e4, 100),
        [0.5, 11.999, 12.0, 12.001, 4001.0],
    ])
    got = hurwitz_zeta(s, a)
    want = np.array([hurwitz_zeta(s, float(x)) for x in a])
    assert isinstance(got, np.ndarray) and got.shape == a.shape
    assert np.array_equal(got, want)
    # an array of orders broadcast against the array of a: the same bits again
    orders = np.array([s, s + 1.0, 2.5 * s, 17.0])[:, None]
    grid = hurwitz_zeta(orders, a)
    assert grid.shape == (4, a.size)
    for row, order in zip(grid, orders[:, 0]):
        assert np.array_equal(row, [hurwitz_zeta(float(order), float(x)) for x in a])


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(1.05, 40.0),
    offsets=st.lists(st.floats(0.0, 200.0), max_size=12),
    head=st.booleans(),
    orders=st.lists(st.floats(1.05, 40.0), min_size=1, max_size=6),
)
def test_array_hurwitz_elements_equal_scalar_calls(s, offsets, head, orders):
    # without head every a >= max(12, s), so the call forms no head sum; with
    # head the array mixes a below max(12, s) (for s > 12 also 12 <= a < s),
    # a = max(12, s) exactly and a above it
    def around(edge, extra):
        if head:
            return [0.1 + x for x in extra] + [0.75 * edge, np.nextafter(edge, 0.0), edge]
        return [edge + x for x in extra] + [edge]

    a = around(max(12.0, s), offsets)
    got = hurwitz_zeta(s, np.array(a))
    assert got.tolist() == [hurwitz_zeta(s, x) for x in a]
    # an array of orders paired elementwise with a, as the l-tail's one call
    # takes them: each order's a lie around its own max(12, s) as above
    pairs = [(order, x) for order in orders for x in around(max(12.0, order), offsets[:2])]
    got = hurwitz_zeta(np.array([o for o, _ in pairs]), np.array([x for _, x in pairs]))
    assert got.tolist() == [hurwitz_zeta(o, x) for o, x in pairs]


def test_array_hurwitz_keeps_shape():
    a = np.arange(1.0, 13.0).reshape(3, 4)
    got = hurwitz_zeta(3.0, a)
    assert got.shape == (3, 4)
    assert got[1, 2] == hurwitz_zeta(3.0, 7.0)


@pytest.mark.parametrize("bad", [0.0, -2.5, float("nan")])
def test_array_hurwitz_rejects_nonpositive_a(bad):
    with pytest.raises(ValueError, match=f"hurwitz_zeta requires a > 0, got a={bad}"):
        hurwitz_zeta(3.0, np.array([1.0, 20.0, bad, 3.0]))


@pytest.mark.parametrize("bad", [1.0, 0.5, float("nan")])
def test_array_hurwitz_rejects_order_at_most_one(bad):
    with pytest.raises(ValueError, match=f"hurwitz_zeta requires s > 1, got s={bad}"):
        hurwitz_zeta(np.array([3.0, bad, 2.0]), 5.0)


@pytest.mark.parametrize(
    "name", ["phi_at", "dphi_at", "enclosed_profile_charge", "outer_profile_integral"]
)
def test_profile_scalar_equals_array(tf_solution, name):
    # 50 points: below the grid, collocation nodes, the domain breaks, the
    # grid ends, points between nodes, and above the grid
    grid = tf_solution.grid
    breaks = np.exp(tf_solution._breaks)
    rng = np.random.default_rng(7)
    x = np.concatenate([
        [0.1 * grid[0], 0.5 * grid[0]],
        grid[[0, 1, 20, 33, 60, 95, 127, -2, -1]],
        breaks,
        np.geomspace(grid[0], grid[-1], 32)[1:-1] * (1.0 + 1e-3 * rng.random(30)),
        [grid[-1] * (1.0 + 1e-9), 2.0 * grid[-1], 1e5, 1e7],
    ])
    assert x.size == 50
    f = getattr(tf_solution, name)
    together = f(x)
    for xi, want in zip(x, together):
        got = f(float(xi))
        assert type(got) is float
        assert got == want, (name, xi)


@pytest.mark.parametrize("name", ["phi_at", "density", "mean_field"])
def test_scalar_forms_agree(tf_solution, name):
    # a Python float, an np.float64, a 0-d and a 1-element array give the
    # same bits below, on and above the grid, and the same error outside the
    # domain
    f, message = {
        "phi_at": (tf_solution.phi_at, "phi_at requires finite x > 0"),
        "density": (density(3.0, tf_solution), "density requires finite r > 0"),
        "mean_field": (lambda r: mean_field(3.0, tf_solution, r), "mean_field requires finite r > 0"),
    }[name]
    forms = (float, np.float64, np.array, lambda v: np.array([v]))
    for v in (1e-9, 0.3, 1.0, 5.0, 1e5):
        *scalars, one = [f(form(v)) for form in forms]
        assert [type(s) for s in scalars] == [float] * 3
        assert one.shape == (1,)
        assert {s.hex() for s in scalars} == {float(one[0]).hex()}, (name, v)
    for bad in (0.0, -1.0, math.nan, math.inf):
        for form in forms:
            with pytest.raises(ValueError) as err:
                f(form(bad))
            assert str(err.value) == message, (name, bad, form)


@pytest.mark.parametrize("name", ["exchange_hole_radius", "screening_potential"])
def test_hole_fields_compute_in_floats_for_every_scalar_form(tf_solution, name):
    # Z and r as a float, an np.float64 or a 0-d array give one float with the
    # same bits, also at r = 1e300, where d^3 is beyond floats (an np.float64
    # used to reach a value there through numpy's quiet overflow, a float a
    # ValueError)
    f = {
        "exchange_hole_radius": lambda z, r: exchange_hole_radius(z, tf_solution, r),
        "screening_potential": lambda z, r: screening_potential(z, 137.0, tf_solution, 137.0 * r),
    }[name]
    for z, r in ((1.0, 0.02), (8.0, 0.5), (92.0, 10.0), (1.0, 1e300)):
        got = [f(form(z), form(r)) for form in (float, np.float64, np.array)]
        assert {type(v) for v in got} == {float}, (name, z, r)
        assert len({v.hex() for v in got}) == 1 and math.isfinite(got[0]), (name, z, r)
