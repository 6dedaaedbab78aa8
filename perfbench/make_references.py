"""Regenerate references.json, the stored values the benchmark checks against.

    python3 perfbench/make_references.py

Run it only when a lattice in lattice.py changes.  The tables are computed
once, at tighter accuracy than the timed calls use where the library allows:

* ``shift``: s(gamma) at tol 1e-10 (the library's tightest) for every gamma
  of the `curve`/`precise` lattice and every alpha*Z of the `atom` workload,
  stored as [value, tail_estimate];
* ``fields``: density, mean field, exchange-hole radius and screening
  potential from a solve_tf(1e-10) profile, stored per (Z, r-index).  The
  timed code uses solve_tf(1e-8); the largest relative gap between the two
  profiles' field values is printed so the check tolerance can be set above it.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lattice  # noqa: E402

JOBS = 2  # worker processes for the shift table


def _shift_ref(gamma: float):
    from relscott import shift

    t0 = time.perf_counter()
    res = shift(gamma, 1e-10)
    dt = time.perf_counter() - t0
    return repr(gamma), [res.value, res.tail_estimate], (res.l_max, res.n_max, dt)


def _field_values(sol, z: int, r: float):
    from relscott import density, exchange_hole_radius, mean_field, screening_potential

    c = lattice.C_LIGHT
    return [
        float(density(z, sol)(r)),
        float(mean_field(z, sol, r)),
        exchange_hole_radius(z, sol, r),
        screening_potential(z, c, sol, c * r),
    ]


def main() -> int:
    gammas = sorted(set(lattice.GAMMA_LATTICE) | {lattice.atom_gamma(z) for z in lattice.ATOM_Z})
    ctx = multiprocessing.get_context("spawn")
    shift_table = {}
    with ctx.Pool(JOBS) as pool:
        for key, value, (l_max, n_max, dt) in pool.imap(_shift_ref, gammas):
            shift_table[key] = value
            print(f"shift gamma={key} L={l_max} N={n_max} {dt:.2f}s", file=sys.stderr, flush=True)

    from relscott import solve_tf

    fine = solve_tf(1e-10)
    timed = solve_tf(1e-8)
    fields = {}
    worst = 0.0
    for z in lattice.FIELD_Z:
        for j, r in enumerate(lattice.R_LATTICE):
            ref = _field_values(fine, z, r)
            got = _field_values(timed, z, r)
            worst = max(worst, max(abs(a - b) / abs(a) for a, b in zip(ref, got)))
            fields[f"{z},{j}"] = ref
    print(f"fields: largest relative gap between tol 1e-8 and 1e-10 profiles {worst:.3e}",
          file=sys.stderr)

    out = {
        "about": "generated by make_references.py; shift values at tol 1e-10 as "
        "[value, tail_estimate], fields from solve_tf(1e-10) as "
        "[density, mean_field, exchange_hole_radius, screening_potential]",
        "shift": shift_table,
        "fields": fields,
    }
    (HERE / "references.json").write_text(json.dumps(out, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
