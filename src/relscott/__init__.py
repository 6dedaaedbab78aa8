"""Relativistic Scott correction of heavy atoms.

Hydrogenic Dirac/Schroedinger spectra, the spectral shift function s(gamma)
with its Schwinger closed-form approximation, Thomas-Fermi theory of the
neutral atom, and the ground-state energy formula
E(Z) = E_TF(1) Z^{7/3} + (1/2 + s(gamma)) Z^2 with comparison tables.
"""

from .atomic_energy import (
    FINE_STRUCTURE_ALPHA,
    ComparisonRow,
    NistRecord,
    PhysicalConstants,
    comparison_table,
    emit_energy_table,
    ingest_energy_table,
    ingest_reference_table,
    predict_energy,
)
from .hydrogenic import (
    LEVEL_DIFFERENCE_ENVELOPE_C,
    Coupling,
    EnergyHa,
    coulomb_expectation,
    dirac_level,
    fine_structure_term,
    level_difference,
    schroedinger_level,
)
from .quantum_numbers import (
    ChannelIndex,
    LevelIndex,
    channels_for_l,
    dirac_degeneracy,
    iter_channels,
)
from .scott_shift import (
    SCHWINGER_COEFFICIENT,
    ScottCoefficient,
    ShiftResult,
    ZetaIdentityCheck,
    schwinger_shift,
    schwinger_shift_bruteforce,
    scott_coefficient,
    shift,
    zeta_double_sum_identity_check,
)
from .thomas_fermi import (
    InsufficientChargeError,
    RadialDensity,
    TfConvergenceError,
    TfSolution,
    density,
    exchange_hole_radius,
    mean_field,
    screening_potential,
    solve_tf,
    tf_energy,
    tf_functional_at_scale,
)
from .zeta import hurwitz_zeta, riemann_zeta

__all__ = [
    "ChannelIndex",
    "ComparisonRow",
    "Coupling",
    "EnergyHa",
    "FINE_STRUCTURE_ALPHA",
    "InsufficientChargeError",
    "LEVEL_DIFFERENCE_ENVELOPE_C",
    "LevelIndex",
    "NistRecord",
    "PhysicalConstants",
    "RadialDensity",
    "SCHWINGER_COEFFICIENT",
    "ScottCoefficient",
    "ShiftResult",
    "TfConvergenceError",
    "TfSolution",
    "ZetaIdentityCheck",
    "channels_for_l",
    "comparison_table",
    "coulomb_expectation",
    "density",
    "dirac_degeneracy",
    "dirac_level",
    "emit_energy_table",
    "exchange_hole_radius",
    "fine_structure_term",
    "hurwitz_zeta",
    "ingest_energy_table",
    "ingest_reference_table",
    "iter_channels",
    "level_difference",
    "mean_field",
    "predict_energy",
    "riemann_zeta",
    "schroedinger_level",
    "schwinger_shift",
    "schwinger_shift_bruteforce",
    "scott_coefficient",
    "screening_potential",
    "shift",
    "solve_tf",
    "tf_energy",
    "tf_functional_at_scale",
    "zeta_double_sum_identity_check",
]

__version__ = "0.1.0"
