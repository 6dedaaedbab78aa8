"""Command-line front end: shift, curve, tf, energy, compare.

Every command is deterministic given its flags and inputs; CSV output uses
12 significant digits, JSON uses full round-trip float formatting, so reruns
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .atomic_energy import (
    FINE_STRUCTURE_ALPHA,
    PhysicalConstants,
    comparison_table,
    ingest_energy_table,
    ingest_reference_table,
)
from .scott_shift import check_tol, schwinger_shift, shift
from .thomas_fermi import _require_positive, solve_tf, tf_energy

COMPARISON_COLUMNS = ("Z", "gamma", "empirical_q", "model_q", "schwinger_q", "reference_q")
# curve holds every row to the end: about 85 MB and 35 s at the cap (2-vCPU Xeon)
CURVE_MAX_STEPS = 100_000


def _common_flags(parser: argparse.ArgumentParser, alpha: bool = False) -> None:
    parser.add_argument("--tol", type=float, default=1e-8, help="numerical tolerance (default 1e-8)")
    if alpha:
        parser.add_argument(
            "--alpha",
            type=float,
            default=FINE_STRUCTURE_ALPHA,
            help="fine-structure constant (default %(default)s)",
        )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")


@contextmanager
def _reporting_os_error(action: str, path: str):
    """Turn an OSError on path into the CLI's one-line error (exit status 1)."""
    try:
        yield
    except OSError as exc:
        raise RuntimeError(f"cannot {action} {path}: {exc}") from None


def _read(path: str, what: str) -> str:
    with _reporting_os_error(f"read {what}", path), open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _csv_cell(value) -> str:
    return "" if value is None else f"{value:.12g}" if isinstance(value, float) else str(value)


def _emit(args: argparse.Namespace, records: dict | list[dict], columns=None) -> None:
    """Write one record (a dict) or a table (a list of dicts) to --out or stdout.

    JSON keeps the records as given; CSV has a header of the columns (default:
    the first record's keys) and 12 significant digits, empty for None.
    """
    if args.json:
        text = json.dumps(records, indent=2) + "\n"
    else:
        table = [records] if isinstance(records, dict) else records
        columns = columns or list(table[0])
        lines = [",".join(columns)]
        lines += [",".join(_csv_cell(rec[c]) for c in columns) for rec in table]
        text = "\n".join(lines) + "\n"
    if args.out:
        with _reporting_os_error("write", args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _shift_record(gamma: float, tol: float) -> dict:
    res = shift(gamma, tol)
    return {
        "gamma": gamma,
        "s_d": res.value,
        "scott_q": 0.5 + res.value,
        "schwinger_q": 0.5 + schwinger_shift(gamma),
        "tail_estimate": res.tail_estimate,
    }


def _cmd_shift(args: argparse.Namespace) -> int:
    _emit(args, _shift_record(args.gamma, args.tol))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    if not (0.0 <= args.gamma_min < args.gamma_max < 1.0):
        raise ValueError(
            f"need 0 <= gamma-min < gamma-max < 1, got {args.gamma_min}, {args.gamma_max}"
        )
    if not 2 <= args.steps <= CURVE_MAX_STEPS:
        raise ValueError(f"steps must lie in [2, {CURVE_MAX_STEPS}], got {args.steps}")
    records = []
    for i in range(args.steps):
        g = args.gamma_min + (args.gamma_max - args.gamma_min) * i / (args.steps - 1)
        rec = _shift_record(g, args.tol)
        del rec["tail_estimate"]
        records.append(rec)
    _emit(args, records)
    return 0


def _cmd_tf(args: argparse.Namespace) -> int:
    sol = solve_tf(args.tol)
    if args.profile:
        _emit(argparse.Namespace(json=False, out=args.profile),
              [{"x": x, "phi": phi} for x, phi in zip(sol.grid.tolist(), sol.phi.tolist())])
    _emit(args, {"initial_slope": sol.initial_slope, "e_tf_1": sol.e_tf_1})
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    _require_positive(Z=args.Z)
    alpha = PhysicalConstants(args.alpha).alpha
    gamma = args.gamma if args.gamma is not None else alpha * args.Z
    if not (0.0 <= gamma < 1.0):
        hint = "" if args.gamma is not None else "; pass --gamma explicitly"
        raise ValueError(f"coupling gamma = {gamma} outside [0, 1){hint}")
    tol = check_tol(args.tol)  # before the TF solve
    e_tf = tf_energy(args.Z, solve_tf())
    q = 0.5 + shift(gamma, tol).value
    _emit(
        args,
        {"Z": args.Z, "gamma": gamma, "e_tf_ha": e_tf, "scott_q": q, "energy_ha": e_tf + q * args.Z**2},
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    constants = PhysicalConstants(args.alpha)
    records = ingest_energy_table(_read(args.nist, "energy table"))
    reference = ingest_reference_table(_read(args.ref, "reference table")) if args.ref else None
    tol = check_tol(args.tol)  # before the TF solve
    rows = comparison_table(records, reference, constants, solve_tf(), tol)
    _emit(args, [{c: getattr(r, c) for c in COMPARISON_COLUMNS} for r in rows], COMPARISON_COLUMNS)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relscott",
        description="Relativistic Scott correction tools: spectral shift, "
        "Thomas-Fermi atom, energy predictions and comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shift", help="spectral shift s(gamma) and Scott coefficient")
    p.add_argument("--gamma", type=float, required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("curve", help="Scott-coefficient curve over a gamma grid")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help=f"grid points, 2 to {CURVE_MAX_STEPS}")
    _common_flags(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("tf", help="Thomas-Fermi profile, slope, and E_TF(1)")
    p.add_argument("--profile", metavar="PATH", default=None, help="write x,phi profile CSV")
    _common_flags(p)
    p.set_defaults(func=_cmd_tf)

    p = sub.add_parser("energy", help="predicted ground-state energy E(Z)")
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None, help="override gamma (default alpha*Z)")
    _common_flags(p, alpha=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("compare", help="empirical/model/Schwinger coefficient table")
    p.add_argument("--nist", metavar="PATH", required=True, help="energy table CSV (Z,E_total_Ha)")
    p.add_argument("--ref", metavar="PATH", default=None, help="reference table CSV (Z,E_ref_Ha)")
    _common_flags(p, alpha=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
