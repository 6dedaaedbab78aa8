"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 3 asserts the stated value at gamma = 0.9999 and is expected to
fail: the claimed limit -1.91 is only approached as gamma -> 1 like
-1.9135 + 4.0 sqrt(1 - gamma^2), which still sits 0.057 away at 0.9999 (see
the companion criterion 3b, which verifies the limit itself and passes).
The implementation agrees with an independent 50-digit evaluation at equal
cutoffs to 16 digits, so the discrepancy is in the stated criterion, not in
the computation.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from relscott import (
    SCHWINGER_COEFFICIENT,
    density,
    exchange_hole_radius,
    mean_field,
    schwinger_shift_bruteforce,
    screening_potential,
    shift,
    zeta_double_sum_identity_check,
)
from relscott.hydrogenic import (
    difference_kernel,
    difference_over_gamma2_kernel,
    dirac_lambda_kernel,
    fine_structure_kernel,
)
from relscott.thomas_fermi import TF_LENGTH_B

from _oracles import ball_charge
from test_hydrogenic import FS_REMAINDER_ENVELOPE_C


def _report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "relscott.cli", *args], capture_output=True, text=True
    )


def test_criterion_1_thomas_fermi_energy():
    t0 = time.perf_counter()
    res = _cli("tf")
    elapsed = time.perf_counter() - t0
    e1 = float(res.stdout.splitlines()[1].split(",")[1])
    ok = res.returncode == 0 and abs(e1 - (-0.768745)) <= 1e-4 and elapsed < 5.0
    _report("criterion 1 (E_TF(1) = -0.768745 +- 1e-4, < 5 s)", ok, f"e_tf_1 = {e1:.7f}", elapsed)
    assert res.returncode == 0
    assert e1 == pytest.approx(-0.768745, abs=1e-4)
    assert elapsed < 5.0


def test_criterion_2_schwinger_bruteforce():
    t0 = time.perf_counter()
    closed = SCHWINGER_COEFFICIENT
    nodes = [500, 1000, 2000]
    vals = [schwinger_shift_bruteforce(1.0, m, m) for m in nodes]
    # both truncation tails are O(1/cutoff): Richardson-extrapolate the joint
    # cutoff to infinity (Neville on 1/M -> 0), as in the double-sum oracle
    xs = [1.0 / m for m in nodes]
    tab = list(vals)
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * (0.0 - xs[i]) / (xs[i] - xs[i - j])
    extrapolated = tab[-1]
    elapsed = time.perf_counter() - t0
    ok = abs(extrapolated - closed) <= 1e-5 and f"{vals[-1]:.3f}" == "-0.854" and elapsed < 30.0
    _report(
        "criterion 2 (brute force vs zeta(3) - 5pi^2/24 within 1e-5, < 30 s)",
        ok,
        f"extrapolated = {extrapolated:.9f}, closed = {closed:.9f}, raw(2000) = {vals[-1]:.6f}",
        elapsed,
    )
    assert abs(extrapolated - closed) <= 1e-5
    assert f"{vals[-1]:.3f}" == "-0.854"  # printed magnitude of the raw sum
    assert elapsed < 30.0


def test_criterion_3_gamma_to_one_limit_as_stated():
    t0 = time.perf_counter()
    res = shift(0.9999, 1e-6)
    q = 0.5 + res.value
    elapsed = time.perf_counter() - t0
    ok = abs(q - (-1.91)) <= 0.02 and elapsed < 60.0
    _report(
        "criterion 3 (1/2 + s(0.9999) = -1.91 +- 0.02, < 60 s)",
        ok,
        f"q = {q:.6f}; the -1.91 limit is attained only as gamma -> 1 "
        f"(approach ~ -1.9135 + 4.0 sqrt(1-gamma^2)); see criterion 3b",
        elapsed,
    )
    assert elapsed < 60.0
    assert q == pytest.approx(-1.91, abs=0.02), (
        "stated criterion is unattainable: 1/2 + s(0.9999) = "
        f"{q:.5f}, which an independent 50-digit evaluation confirms; "
        "-1.91 is the gamma -> 1 limit value (criterion 3b passes)"
    )


def test_criterion_3_supporting_evidence():
    # independent confirmation that s(0.9999) is what the machinery reports:
    # raw truncated double summation (no tail models at all) extrapolated in
    # the joint cutoff agrees with shift() to ~1e-9, so the criterion-3 gap
    # is in the stated target, not in the evaluation
    t0 = time.perf_counter()
    g = 0.9999

    def raw_direct(m: int) -> float:
        total = 0.0
        n = np.arange(1, m + 1, dtype=float)
        for l in range(m):
            for kb in ((1.0,) if l == 0 else (float(l), float(l + 1))):
                total += 2.0 * kb * float(np.sum(difference_over_gamma2_kernel(g, n + l, kb)))
        return total

    nodes = [500, 1000, 2000]
    vals = [raw_direct(m) for m in nodes]
    xs = [1.0 / m for m in nodes]
    tab = list(vals)
    for j in range(1, len(tab)):
        for i in range(len(tab) - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * (0.0 - xs[i]) / (xs[i] - xs[i - j])
    res = shift(g, 1e-8)
    elapsed = time.perf_counter() - t0
    gap = abs(tab[-1] - res.value)
    ok = gap <= 1e-7
    _report(
        "criterion 3 evidence (raw double sum extrapolated vs shift at 0.9999)",
        ok,
        f"brute force {tab[-1]:.9f} vs shift {res.value:.9f}, gap {gap:.1e}",
        elapsed,
    )
    assert gap <= 1e-7


def test_criterion_3b_gamma_to_one_limit_diagnostic():
    t0 = time.perf_counter()
    res = shift(1.0 - 1e-10, 1e-6)
    q = 0.5 + res.value
    elapsed = time.perf_counter() - t0
    ok = abs(q - (-1.91)) <= 0.02 and elapsed < 60.0
    _report("criterion 3b (limit: 1/2 + s(1 - 1e-10) = -1.91 +- 0.02)", ok, f"q = {q:.6f}", elapsed)
    assert q == pytest.approx(-1.91, abs=0.02)
    assert elapsed < 60.0


def test_criterion_4_small_gamma_asymptotics():
    t0 = time.perf_counter()
    res = shift(0.01)
    ratio = res.value / 0.0001
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - (-0.854)) <= 2e-3 and elapsed < 30.0
    _report("criterion 4 (s(0.01)/1e-4 = -0.854 +- 2e-3, < 30 s)", ok, f"ratio = {ratio:.6f}", elapsed)
    assert ratio == pytest.approx(-0.854, abs=2e-3)
    assert elapsed < 30.0


def test_criterion_5_zeta_identity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for s in (3.0, 4.0):
        chk = zeta_double_sum_identity_check(s)
        gap = abs(chk.double_sum - chk.zeta_difference)
        ok = ok and gap <= chk.tail_bound
        details.append(f"s={s:.0f}: gap {gap:.2e} <= tail {chk.tail_bound:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("criterion 5 (double-sum identity within tail, < 5 s)", ok, "; ".join(details), elapsed)
    for s in (3.0, 4.0):
        chk = zeta_double_sum_identity_check(s)
        assert abs(chk.double_sum - chk.zeta_difference) <= chk.tail_bound
    assert elapsed < 5.0


def _coulomb_expectation_grid(gamma: float, n_pr, kb: float):
    # vectorized Burke-Grant closed form (spot-checked against the scalar op)
    s = np.sqrt((kb - gamma) * (kb + gamma))
    big = (s + n_pr - kb) ** 2 + gamma * gamma
    return gamma * gamma * (kb * kb + (n_pr - kb) * s) / (s * big**1.5)


def test_criterion_6_eigenvalue_properties():
    from relscott import ChannelIndex, LevelIndex, coulomb_expectation

    t0 = time.perf_counter()
    gammas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ordering_ok = True
    remainder_ok = True
    virial_ok = True
    for g in gammas:
        for l in range(0, 1000):
            n_top = 1000 - l
            if n_top < 1:
                break
            n_pr = np.arange(1 + l, n_top + l + 1, dtype=float)
            for kb in ((1.0,) if l == 0 else (float(l), float(l + 1))):
                lam_d = dirac_lambda_kernel(g, n_pr, kb)
                lam_s = -g * g / (2.0 * n_pr * n_pr)
                diff = difference_kernel(g, n_pr, kb)
                ordering_ok &= bool(np.all(lam_d < lam_s) and np.all(lam_s < 0.0))
                rem = diff - fine_structure_kernel(g, n_pr, kb)
                remainder_ok &= bool(
                    np.all(np.abs(rem) <= FS_REMAINDER_ENVELOPE_C * g**6 / n_pr**4)
                )
                bg = _coulomb_expectation_grid(g, n_pr, kb)
                virial_ok &= bool(np.all(np.abs(bg / (g * g / n_pr**2) - 1.0) <= 5.0 * g * g))
    # transcription guard for the vectorized Burke-Grant form
    for g, n, l, j in ((0.5, 2, 1, 1.5), (0.9, 7, 0, 0.5)):
        scalar = coulomb_expectation(g, LevelIndex(n, ChannelIndex(l, j)))
        grid = float(_coulomb_expectation_grid(g, np.array([float(n + l)]), j + 0.5)[0])
        assert scalar == pytest.approx(grid, rel=1e-14)
    elapsed = time.perf_counter() - t0
    ok = ordering_ok and remainder_ok and virial_ok and elapsed < 60.0
    _report(
        "criterion 6 (ordering, remainder envelope, virial bound on the full grid, < 60 s)",
        ok,
        f"ordering {ordering_ok}, remainder {remainder_ok} (C = {FS_REMAINDER_ENVELOPE_C}), virial {virial_ok}",
        elapsed,
    )
    assert ordering_ok and remainder_ok and virial_ok
    assert elapsed < 60.0


def test_criterion_7_thomas_fermi_structure(tf_solution):
    from scipy.integrate import quad, simpson

    t0 = time.perf_counter()
    sol = tf_solution

    rho1 = density(1.0, sol)
    r = np.geomspace(1e-8, sol.grid[-1] * TF_LENGTH_B, 40001)
    charge = (
        simpson(4.0 * np.pi * rho1(r) * r * r, x=r)
        + quad(lambda u: 4.0 * np.pi * rho1(u) * u * u, r[-1], np.inf)[0]
        + (2.0 / 3.0) * (r[0] / TF_LENGTH_B) ** 1.5
    )
    charge_ok = abs(charge - 1.0) <= 1e-6

    rs = np.geomspace(1e-3, 50.0, 80)
    rho8 = density(8.0, sol)
    scaling_ok = bool(np.allclose(rho8(rs), 64.0 * rho1(2.0 * rs), rtol=1e-10))

    bound_ok = True
    for z in (1.0, 8.0):
        rz = np.geomspace(1e-6, 500.0, 300)
        bound_ok &= bool(
            np.all(density(z, sol)(rz) <= (2.0 * z / rz) ** 1.5 / (3.0 * np.pi**2) * (1 + 1e-12))
        )

    hole_ok = True
    for d in (0.1, 1.0, 10.0):
        radius = exchange_hole_radius(1.0, sol, d)
        hole_ok &= abs(ball_charge(sol, d, radius) - 0.5) <= 1e-10

    chi_ok = True
    for x in np.geomspace(1e-3, 1e3, 13):
        chi = screening_potential(1.0, 1.0, sol, float(x))
        chi_ok &= 0.0 < chi < mean_field(1.0, sol, float(x))

    elapsed = time.perf_counter() - t0
    ok = charge_ok and scaling_ok and bound_ok and hole_ok and chi_ok and elapsed < 60.0
    _report(
        "criterion 7 (TF structure: charge, scaling, bound, hole, screening, < 60 s)",
        ok,
        f"charge = {charge:.9f}, scaling {scaling_ok}, bound {bound_ok}, hole {hole_ok}, chi {chi_ok}",
        elapsed,
    )
    assert charge_ok and scaling_ok and bound_ok and hole_ok and chi_ok
    assert elapsed < 60.0


def test_criterion_8_curve_determinism(tmp_path):
    t0 = time.perf_counter()
    import os

    args = ["curve", "--gamma-min", "0", "--gamma-max", "0.99", "--steps", "100"]
    outputs = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"curve_{i}.csv"
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        res = subprocess.run(
            [sys.executable, "-m", "relscott.cli", *args, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] == outputs[2] and elapsed < 120.0
    _report(
        "criterion 8 (curve 100 steps byte-identical across runs/threads, < 120 s)",
        ok,
        f"identical = {outputs[0] == outputs[1] == outputs[2]}, rows = {len(outputs[0].splitlines())}",
        elapsed,
    )
    assert outputs[0] == outputs[1] == outputs[2]
    assert elapsed < 120.0
