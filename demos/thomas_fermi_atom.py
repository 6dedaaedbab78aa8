"""Thomas-Fermi neutral atom: profile, energy pieces, screening.

Solves the universal profile equation, prints Baker's constant and the
functional decomposition of E_TF(1), demonstrates the exact Z-scaling of the
density and mean field, and evaluates the exchange-hole screened potential.

Run: python demos/thomas_fermi_atom.py [profile.csv]
"""

import sys

import relscott.cli
from relscott import (
    density,
    exchange_hole_radius,
    mean_field,
    screening_potential,
    solve_tf,
    tf_energy,
)


def main() -> int:
    sol = solve_tf(1e-8)
    print(f"initial slope (Baker's constant): {sol.initial_slope:.10f}")
    print(f"E_TF(1) = {sol.e_tf_1:.8f} Ha")
    print(f"  kinetic    {sol.kinetic_1:12.8f}")
    print(f"  attraction {sol.attraction_1:12.8f}")
    print(f"  repulsion  {sol.repulsion_1:12.8f}")
    print(f"profile: {sol.grid.size} nodes on [{sol.grid[0]:.1e}, {sol.grid[-1]:.0f}], "
          f"phi(end) = {sol.phi[-1]:.2e}, decay coefficient F = {sol.asymptote_coefficient:.3f}")

    print("\nE_TF(Z) = E_TF(1) Z^(7/3):")
    for z in (1, 10, 80):
        print(f"  Z = {z:3d}: {tf_energy(float(z), sol):14.4f} Ha")

    print("\ndensity scaling rho_Z(r) = Z^2 rho_1(Z^(1/3) r) at r = 1:")
    rho1, rho8 = density(1.0, sol), density(8.0, sol)
    print(f"  rho_8(1) = {rho8(1.0):.8e}   64 rho_1(2) = {64 * rho1(2.0):.8e}")

    print("\nmean field (Newton's theorem) and its far field r V -> Z:")
    for r in (0.01, 1.0, 10.0, 300.0):
        v = mean_field(1.0, sol, r)
        print(f"  r = {r:7.2f}: V = {v:12.6e}   r V = {r * v:.6f}")

    print("\nexchange hole and screened potential at Z = 1, c = 1:")
    for x in (0.1, 1.0, 10.0):
        radius = exchange_hole_radius(1.0, sol, x)
        chi = screening_potential(1.0, 1.0, sol, x)
        ub = mean_field(1.0, sol, x)
        print(f"  x = {x:5.2f}: R = {radius:9.5f}  chi = {chi:.6f}  (unscreened {ub:.6f})")

    if len(sys.argv) < 2:
        return 0
    path = sys.argv[1]
    print()
    status = relscott.cli.main(["tf", "--profile", path])
    print(f"\nwrote {path}" if status == 0 else f"\n{path} not written")
    return status


if __name__ == "__main__":
    sys.exit(main())
