"""The four workloads: seeded inputs, the timed operation, and its output check.

Each workload is a closed loop with one caller: the benchmark runs one
operation, waits for its result, then sends the next.  A batch is the list of
inputs drawn from the seed; the benchmark repeats the batch until its time is
up.  Checks compare every output with values that do not come from the timed
code: literature constants below and the stored tables in references.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import relscott

import lattice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Thomas-Fermi energy at Z = 1 (Hartree) and Baker's initial slope phi'(0),
# literature values to 10 decimals
E_TF_1 = -0.7687451248
BAKER_SLOPE = -1.5880710226
LITERATURE_ERR = 5e-11
# s(gamma) from a 40-digit evaluation, with the error the test suite states
MP_SHIFT = {
    0.2: (-0.03462488405782744, 1e-11),
    0.5: (-0.2342005734448872, 5e-10),
    0.9: (-1.100627560519426, 3e-9),
}
# Apery's constant; Schwinger's coefficient is zeta(3) - 5 pi^2/24
ZETA_3 = 1.2020569031595942854
SCHWINGER_REF = ZETA_3 - 5.0 * math.pi**2 / 24.0

TOL_CURVE = 1e-8  # `relscott curve` default
TOL_PRECISE = 1e-10  # the library's tightest
TOL_TF = 1e-8  # CLI default; the solver's accuracy target for the TF checks
# field values of the timed solve_tf(1e-8) profile agree with the stored
# solve_tf(1e-10) ones to 3e-6 relative, the exchange-hole radius being the
# loosest (make_references.py prints the gap); the check allows ten times that
FIELD_RTOL = 3e-5
# a value printed with 12 significant digits is off by at most 5e-12 relative
CSV_RTOL = 6e-12


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def shift_reference(refs: dict, gamma: float) -> tuple[float, float]:
    """(value, error) of s(gamma): the 40-digit value if there is one, else the table."""
    if gamma in MP_SHIFT:
        return MP_SHIFT[gamma]
    value, err = refs["shift"][repr(gamma)]
    return value, err


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


class Workload:
    """One workload: `batch` holds the seeded inputs, `run` is the timed call."""

    name = ""
    in_process = True
    TINY = 1  # batch length with --tiny
    child_spans = None  # spans a traced child process left for the caller to merge

    def __init__(self, seed: int, refs: dict, tiny: bool, workdir: Path) -> None:
        self.refs = refs
        self.workdir = workdir
        self.tracer = None
        self.batch = self.make_batch(np.random.default_rng([seed, sum(map(ord, self.name))]))
        if tiny:
            self.batch = self.batch[:self.TINY]

    def make_batch(self, rng: np.random.Generator) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """The workload's own set-up, timed as part of setup_s."""

    def run(self, item):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        """None if the output is right, else what is wrong."""
        raise NotImplementedError

    def digest_record(self, item, out):
        """The part of an output that the digest covers (JSON-serialisable)."""
        return out


class _ShiftWorkload(Workload):
    tol = 0.0

    def run(self, gamma):
        res = relscott.shift(gamma, self.tol)
        return res.value, res.tail_estimate, res.l_max, res.n_max, relscott.schwinger_shift(gamma)

    def check(self, gamma, out):
        value, tail, _, _, schwinger = out
        ref, ref_err = shift_reference(self.refs, gamma)
        if not tail <= self.tol:
            return f"shift({gamma}): tail_estimate {tail:.3e} above tol {self.tol:.0e}"
        if not _close(value, ref, tail + ref_err):
            return f"shift({gamma}) = {value!r}, reference {ref!r} +- {ref_err:.1e}, tail {tail:.2e}"
        if not _close(schwinger, SCHWINGER_REF * gamma * gamma, 1e-14):
            return f"schwinger_shift({gamma}) = {schwinger!r}"
        return None

    def err_over_tail(self, gamma, out) -> float:
        """Share of the check's allowance used: |value - ref| / (tail + ref_err)."""
        value, tail = out[0], out[1]
        ref, ref_err = shift_reference(self.refs, gamma)
        allowed = tail + ref_err
        return abs(value - ref) / allowed if allowed > 0.0 else 0.0


def _jittered(rng: np.random.Generator, centre: int, spread: int) -> int:
    return centre + int(rng.integers(-spread, spread + 1))


class Curve(_ShiftWorkload):
    """`relscott curve` traffic: a 22-point grid on [0, 0.99] (the midpoints of
    18-step lattice strata), each point moved by up to one lattice step, plus
    the gammas with 40-digit references; ascending, as `curve` runs them.

    Eleven grid points lie on each side of 0.5, so the median operation of a
    batch is always the one at the fixed gamma 0.5.
    """

    name = "curve"
    tol = TOL_CURVE
    TINY = 3

    def make_batch(self, rng):
        picks = [lattice.GAMMA_LATTICE[_jittered(rng, 9 + 18 * i, 1)] for i in range(22)]
        return sorted(picks + list(MP_SHIFT))


class Precise(_ShiftWorkload):
    """Deep cutoffs: a few gammas in [0.85, 0.95] at tol 1e-10, plus 0.9.

    Each seeded gamma is up to one lattice step from a fixed centre, so every
    seed asks for the same mix of cutoffs and only the exact inputs move.
    """

    name = "precise"
    tol = TOL_PRECISE
    CENTRES = (345, 375)  # lattice indices of gamma 0.8625 and 0.9375

    def make_batch(self, rng):
        picks = [lattice.GAMMA_LATTICE[_jittered(rng, k, 1)] for k in self.CENTRES]
        return sorted(picks + [0.9])


class Fields(Workload):
    """Derived TF quantities at seeded (Z, r) points.

    The batch visits 12 distinct Z round-robin, more than the 8 entries the
    library's per-Z charge-quadrature cache holds, so the cache never hits.
    """

    name = "fields"
    TINY = 4
    DISTINCT_Z = 12
    OPS = 48
    sol = None  # the TF profile solved in set-up

    def make_batch(self, rng):
        zs = [int(z) for z in rng.choice(lattice.FIELD_Z, self.DISTINCT_Z, replace=False)]
        return [(zs[m % self.DISTINCT_Z], int(rng.integers(len(lattice.R_LATTICE))))
                for m in range(self.OPS)]

    def setup(self):
        self.sol = relscott.solve_tf(TOL_TF)

    def run(self, item):
        z, j = item
        r = lattice.R_LATTICE[j]
        c = lattice.C_LIGHT
        sol = self.sol
        return (
            float(relscott.density(z, sol)(r)),
            float(relscott.mean_field(z, sol, r)),
            relscott.exchange_hole_radius(z, sol, r),
            relscott.screening_potential(z, c, sol, c * r),
        )

    def check(self, item, out):
        z, j = item
        names = ("density", "mean_field", "exchange_hole_radius", "screening_potential")
        refs = self.refs["fields"][f"{z},{j}"]
        for name, value, ref in zip(names, out, refs):
            if not _close(value, ref, FIELD_RTOL * abs(ref)):
                return f"{name}(Z={z}, r={lattice.R_LATTICE[j]:.4g}) = {value!r}, reference {ref!r}"
        if not all(v > 0.0 for v in out):
            return f"fields at Z={z}, j={j} not all positive: {out}"
        if not out[3] < out[1] * lattice.ALPHA**2:
            return f"screening {out[3]!r} not below mean field / c^2 at Z={z}, j={j}"
        return None


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _num(field: str) -> float | None:
    return None if field == "" else float(field)


class Atom(Workload):
    """Cold CLI path: one fresh `relscott` process per operation, cycling
    through `tf`, `energy --Z <seeded Z>` and `compare --nist <seeded table>`."""

    name = "atom"
    in_process = False
    TINY = 3
    ENERGY_Z = 80
    # light to heavy, and one beyond alpha*Z = 1; each moved by up to 2
    COMPARE_Z = (5, 24, 56, 100, 140)
    TIMEOUT_S = 150.0

    def make_batch(self, rng):
        table = []
        for centre in self.COMPARE_Z:
            z = _jittered(rng, centre, 2)
            q = float(rng.uniform(-1.2, 0.3))
            table.append((z, round(E_TF_1 * z ** (7.0 / 3.0) + q * z * z, 6)))
        path = self.workdir / "energies.csv"
        path.write_text("Z,E_total_Ha\n" + "".join(f"{z},{e!r}\n" for z, e in table),
                        encoding="utf-8")
        z_energy = _jittered(rng, self.ENERGY_Z, 2)
        return [("tf",), ("energy", z_energy), ("compare", str(path), tuple(table))]

    def _argv(self, item) -> list[str]:
        if item[0] == "energy":
            return ["energy", "--Z", str(item[1])]
        if item[0] == "compare":
            return ["compare", "--nist", item[1]]
        return ["tf"]

    def run(self, item):
        spans_path = self.workdir / "child_spans.npz"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "relscott.cli"]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path)]
        try:
            proc = subprocess.run(cmd + self._argv(item), capture_output=True, env=child_env(),
                                  cwd=self.workdir, timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, "", f"timed out after {self.TIMEOUT_S} s"
        if self.tracer is not None and proc.returncode == 0:
            with np.load(spans_path, allow_pickle=False) as data:
                self.child_spans = {k: data[k] for k in data.files}
        return (proc.returncode, proc.stdout.decode("utf-8"),
                proc.stderr.decode("utf-8", errors="replace"))

    def digest_record(self, item, out):
        return out[1]

    def check(self, item, out):
        status, text, stderr = out
        if status != 0:
            return f"relscott {' '.join(self._argv(item))} exited {status}: {stderr.strip()[-300:]}"
        header, rows = _parse_csv(text)
        kind = item[0]
        if kind == "tf":
            return self._check_tf(header, rows)
        if kind == "energy":
            return self._check_energy(item[1], header, rows)
        return self._check_compare(item[2], header, rows)

    @staticmethod
    def _check_tf(header, rows):
        if header != ["initial_slope", "e_tf_1"] or len(rows) != 1:
            return f"tf: unexpected output {header} {rows}"
        slope, e1 = map(float, rows[0])
        if not _close(slope, BAKER_SLOPE, TOL_TF + LITERATURE_ERR + CSV_RTOL * abs(slope)):
            return f"tf: initial slope {slope!r}, Baker's {BAKER_SLOPE}"
        if not _close(e1, E_TF_1, TOL_TF + LITERATURE_ERR + CSV_RTOL * abs(e1)):
            return f"tf: E_TF(1) = {e1!r}, reference {E_TF_1}"
        return None

    def _check_energy(self, z, header, rows):
        if header != ["Z", "gamma", "e_tf_ha", "scott_q", "energy_ha"] or len(rows) != 1:
            return f"energy: unexpected output {header} {rows}"
        z_out, gamma, e_tf, q, energy = map(float, rows[0])
        gamma_ref = lattice.atom_gamma(z)
        ref, ref_err = shift_reference(self.refs, gamma_ref)
        e_tf_ref = E_TF_1 * z ** (7.0 / 3.0)
        e_tf_tol = (TOL_TF + LITERATURE_ERR) * z ** (7.0 / 3.0)
        q_tol = TOL_CURVE + ref_err
        checks = (
            ("Z", z_out, float(z), 0.0),
            ("gamma", gamma, gamma_ref, 0.0),
            ("e_tf_ha", e_tf, e_tf_ref, e_tf_tol),
            ("scott_q", q, 0.5 + ref, q_tol),
            ("energy_ha", energy, e_tf_ref + (0.5 + ref) * z * z, e_tf_tol + q_tol * z * z),
        )
        for name, value, want, tol in checks:
            if not _close(value, want, tol + CSV_RTOL * abs(want)):
                return f"energy --Z {z}: {name} = {value!r}, reference {want!r}"
        return None

    def _check_compare(self, table, header, rows):
        want_header = ["Z", "gamma", "empirical_q", "model_q", "schwinger_q", "reference_q"]
        if header != want_header or len(rows) != len(table):
            return f"compare: unexpected output {header} with {len(rows)} rows"
        for (z, e_total), row in zip(sorted(table), rows):
            z_out, gamma, empirical, model, schwinger, reference = map(_num, row)
            gamma_ref = lattice.atom_gamma(z)
            z13 = z ** (1.0 / 3.0)
            checks = [
                ("Z", z_out, float(z), 0.0),
                ("gamma", gamma, gamma_ref, 0.0),
                ("empirical_q", empirical, (e_total - E_TF_1 * z ** (7.0 / 3.0)) / (z * z),
                 (TOL_TF + LITERATURE_ERR) * z13),
                ("schwinger_q", schwinger, 0.5 + SCHWINGER_REF * gamma_ref**2, 1e-14),
            ]
            if gamma_ref < 1.0:
                ref, ref_err = shift_reference(self.refs, gamma_ref)
                checks.append(("model_q", model, 0.5 + ref, TOL_CURVE + ref_err))
            elif model is not None:
                return f"compare: Z={z} has alpha*Z >= 1 but a model value {model!r}"
            if reference is not None:
                return f"compare: Z={z} has a reference value without a reference table"
            for name, value, want, tol in checks:
                if value is None or not _close(value, want, tol + CSV_RTOL * abs(want)):
                    return f"compare: Z={z} {name} = {value!r}, reference {want!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Curve, Precise, Atom, Fields)}


def digest(records) -> str:
    """sha256 of the outputs of one batch, for bit-identity comparisons."""
    blob = json.dumps(records, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
