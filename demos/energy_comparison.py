"""Scott-coefficient comparison against the bundled sample energy table.

Reduces each tabulated total energy to (E - E_TF(Z))/Z^2 and sets it against
the model coefficient 1/2 + s(alpha Z) and Schwinger's closed form, i.e. the
columns of the energy-comparison figure data.

Run: python demos/energy_comparison.py
"""

from importlib.resources import files

import relscott.cli
from relscott import PhysicalConstants, ingest_energy_table, predict_energy, solve_tf


def main() -> None:
    sample = files("relscott").joinpath("data/sample_nist.csv")
    relscott.cli.main(["compare", "--nist", str(sample)])
    print()

    sol = solve_tf(1e-8)
    records = ingest_energy_table(sample.read_text(encoding="utf-8"))

    print("asymptotic formula vs tabulated energy (light elements; the")
    print("large-Z expansion is not expected to be accurate down here):")
    for rec in records[:6]:
        predicted = predict_energy(float(rec.Z), PhysicalConstants().alpha * rec.Z, sol, 1e-8)
        print(f"  Z = {rec.Z:2d}: predicted {predicted:12.4f} Ha   tabulated {rec.e_total:12.4f} Ha")


if __name__ == "__main__":
    main()
