"""Ground-state energy prediction and comparison against reference tables.

E(Z) = E_TF(1) Z^{7/3} + (1/2 + s(gamma)) Z^2 with gamma = alpha Z in the
comparison pipeline (an explicit gamma may also be supplied for asymptotic
studies).  Reference energies are total electronic binding energies in
Hartree (negative); the per-element reduction (E - E_TF(Z))/Z^2 exposes the
coefficient of Z^2 for comparison with the model and with Schwinger's
closed form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .hydrogenic import Coupling, EnergyHa
from .scott_shift import SCHWINGER_COEFFICIENT, check_tol, shift
from .thomas_fermi import TfSolution, tf_energy

FINE_STRUCTURE_ALPHA = 7.2973525693e-3

ENERGY_TABLE_HEADER = "Z,E_total_Ha"
REFERENCE_TABLE_HEADER = "Z,E_ref_Ha"


@dataclass(frozen=True)
class PhysicalConstants:
    """Fine-structure constant; gamma = alpha * Z in the comparison pipeline."""

    alpha: float = FINE_STRUCTURE_ALPHA

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 0.01):
            raise ValueError(f"alpha must lie in (0, 0.01), got {self.alpha!r}")


@dataclass(frozen=True)
class NistRecord:
    """One element: nuclear charge Z, an int >= 1 (not a bool), and a finite, negative
    total ground-state energy (Hartree); the table readers check their rows here."""

    Z: int
    e_total: float

    def __post_init__(self) -> None:
        if isinstance(self.Z, bool) or not isinstance(self.Z, int) or self.Z < 1:
            raise ValueError(f"Z must be an integer >= 1, got {self.Z!r}")
        if not -sys.float_info.max <= self.e_total < 0.0:  # an int may lie beyond floats
            raise ValueError(f"e_total must be finite and negative, got {self.e_total!r}")


@dataclass(frozen=True)
class ComparisonRow:
    """Per-element Scott-coefficient comparison; model_q absent for alpha*Z >= 1."""

    Z: int
    gamma: float
    empirical_q: float
    model_q: float | None
    schwinger_q: float
    reference_q: float | None
    flagged: bool


def predict_energy(
    Z: float,
    g: Coupling | float,
    tf: TfSolution,
    tol: float | None = None,
) -> EnergyHa:
    """E(Z) = E_TF(1) Z^{7/3} + (1/2 + s(gamma)) Z^2 (Hartree)."""
    e_tf = tf_energy(Z, tf)  # validates Z before the costlier shift
    return e_tf + (0.5 + shift(g, tol).value) * Z * Z


def _parse_table(text: str, header: str) -> list[NistRecord]:
    records: dict[int, NistRecord] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.replace(" ", "") != header:
                raise ValueError(
                    f"line {lineno}: expected header '{header}', got '{line}'"
                )
            header_seen = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 2 comma-separated fields, got '{line}'")
        try:
            rec = NistRecord(int(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad row '{line}': {exc}") from None
        if rec.Z in records:
            raise ValueError(f"line {lineno}: duplicate Z = {rec.Z}")
        records[rec.Z] = rec
    if not header_seen:
        raise ValueError(f"no header line '{header}' found")
    return sorted(records.values(), key=lambda r: r.Z)


def ingest_energy_table(source: str) -> list[NistRecord]:
    """Parse CSV text with header Z,E_total_Ha ('#' comments allowed).

    Returns records sorted by Z; a malformed row, a row NistRecord rejects
    and a duplicate Z raise ValueError naming the offending line.
    """
    return _parse_table(source, ENERGY_TABLE_HEADER)


def ingest_reference_table(source: str) -> list[NistRecord]:
    """Parse a reference table (header Z,E_ref_Ha), same validation rules."""
    return _parse_table(source, REFERENCE_TABLE_HEADER)


def emit_energy_table(records: list[NistRecord]) -> str:
    """Serialize records back to the ingest format (round-trip identity)."""
    lines = [ENERGY_TABLE_HEADER]
    for rec in sorted(records, key=lambda r: r.Z):
        lines.append(f"{rec.Z},{rec.e_total!r}")
    return "\n".join(lines) + "\n"


def comparison_table(
    records: list[NistRecord],
    reference: list[NistRecord] | None,
    constants: PhysicalConstants,
    tf: TfSolution,
    tol: float | None = None,
) -> list[ComparisonRow]:
    """One row per Z, ascending: empirical, model, and Schwinger coefficients.

    empirical_q = (E - E_TF(Z))/Z^2; model_q = 1/2 + s(alpha Z) where
    alpha Z < 1, otherwise the row is flagged and carries no model value;
    schwinger_q = 1/2 + (zeta(3) - 5 pi^2/24)(alpha Z)^2.  Pure function of
    its inputs: identical inputs give identical output.  tol is checked
    like shift's, even where no row reaches shift.
    """
    tol = check_tol(tol)
    ref_by_z = {rec.Z: rec.e_total for rec in (reference or [])}
    rows: list[ComparisonRow] = []
    for rec in sorted(records, key=lambda r: r.Z):
        e_tf = tf_energy(rec.Z, tf)  # first: it names a Z that overflows a float
        gamma = constants.alpha * rec.Z
        z2 = float(rec.Z) ** 2
        empirical_q = (rec.e_total - e_tf) / z2
        flagged = gamma >= 1.0
        model_q = None if flagged else 0.5 + shift(gamma, tol).value
        schwinger_q = 0.5 + SCHWINGER_COEFFICIENT * gamma * gamma
        e_ref = ref_by_z.get(rec.Z)
        reference_q = None if e_ref is None else (e_ref - e_tf) / z2
        rows.append(
            ComparisonRow(rec.Z, gamma, empirical_q, model_q, schwinger_q, reference_q, flagged)
        )
    return rows

