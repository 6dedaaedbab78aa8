"""Input lattices shared by the workloads and the reference generator.

Every seeded input is drawn from one of these finite sets, so that each
output can be checked against a value stored in references.json.
"""

# CLI default fine-structure constant; gamma = ALPHA * Z in `energy`/`compare`
ALPHA = 7.2973525693e-3
C_LIGHT = 1.0 / ALPHA

# gamma = k/400 on [0, 0.99]; `curve` and `precise` draw from it
GAMMA_LATTICE = tuple(k / 400 for k in range(397))

# nuclear charges of the `atom` workload with alpha*Z < 1 (real elements)
ATOM_Z = tuple(range(1, 119))

# (Z, r) points of the `fields` workload; r in bohr, 0.01 .. 10
FIELD_Z = tuple(range(2, 93))
R_LATTICE = tuple(10.0 ** (-2.0 + 3.0 * j / 15) for j in range(16))


def atom_gamma(z: int) -> float:
    """The coupling the CLI derives from --Z (float(Z) times the default alpha)."""
    return ALPHA * float(z)
