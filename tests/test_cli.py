import json
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from relscott import NistRecord, PhysicalConstants, comparison_table
from relscott.cli import main

from _support import child_stdout

SAMPLE = str(files("relscott").joinpath("data/sample_nist.csv"))
GOLDEN = Path(__file__).parent / "data"
# Z = 138 has alpha*Z >= 1: the row is flagged and carries no model value
FLAGGED_TABLE = "Z,E_total_Ha\n1,-0.5\n138,-100000.0\n"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "relscott.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_shift_gamma_zero():
    res = run_cli("shift", "--gamma", "0")
    assert res.returncode == 0
    header, row = res.stdout.splitlines()
    assert header == "gamma,s_d,scott_q,schwinger_q,tail_estimate"
    fields = row.split(",")
    assert float(fields[1]) == 0.0
    assert float(fields[2]) == 0.5


def test_shift_domain_error():
    res = run_cli("shift", "--gamma", "1")
    assert res.returncode != 0
    assert "gamma" in res.stderr


def test_shift_json_matches_library():
    from relscott import shift

    res = run_cli("shift", "--gamma", "0.9999", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    expected = shift(0.9999, 1e-8)
    assert payload["scott_q"] == pytest.approx(0.5 + expected.value, abs=1e-9)
    assert payload["s_d"] == expected.value  # full round-trip float
    assert set(payload) == {"gamma", "s_d", "scott_q", "schwinger_q", "tail_estimate"}


def test_shift_csv_and_json_agree():
    csv_res = run_cli("shift", "--gamma", "0.3")
    json_res = run_cli("shift", "--gamma", "0.3", "--json")
    row = csv_res.stdout.splitlines()[1].split(",")
    payload = json.loads(json_res.stdout)
    for i, key in enumerate(["gamma", "s_d", "scott_q", "schwinger_q", "tail_estimate"]):
        assert float(row[i]) == pytest.approx(payload[key], rel=1e-11, abs=1e-300)


def test_curve_two_steps():
    res = run_cli("curve", "--gamma-min", "0", "--gamma-max", "0.5", "--steps", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "gamma,s_d,scott_q,schwinger_q"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.5
    assert float(lines[2].split(",")[0]) == 0.5


def test_curve_monotone_q():
    res = run_cli("curve", "--gamma-min", "0", "--gamma-max", "0.9", "--steps", "10")
    qs = [float(line.split(",")[2]) for line in res.stdout.splitlines()[1:]]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_curve_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    r1 = run_cli("curve", "--gamma-min", "0.1", "--gamma-max", "0.8", "--steps", "5", "--out", str(a))
    r2 = run_cli("curve", "--gamma-min", "0.1", "--gamma-max", "0.8", "--steps", "5", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_domain_errors():
    assert run_cli("curve", "--gamma-min", "0", "--gamma-max", "1.0", "--steps", "5").returncode != 0
    assert run_cli("curve", "--gamma-min", "0", "--gamma-max", "0.5", "--steps", "1").returncode != 0


@pytest.mark.parametrize("steps", ["1", "100001", "1000000000"])
def test_curve_steps_rejected_before_any_shift(steps, monkeypatch, capsys):
    def no_shift(*args, **kwargs):
        raise AssertionError("shift ran for an invalid --steps")

    monkeypatch.setattr("relscott.cli.shift", no_shift)
    assert main(["curve", "--gamma-min", "0", "--gamma-max", "0.5", "--steps", steps]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: steps must lie in [2, 100000], got {steps}\n"
    assert captured.out == ""


def test_tf_default_run():
    res = run_cli("tf")
    assert res.returncode == 0
    header, row = res.stdout.splitlines()
    assert header == "initial_slope,e_tf_1"
    slope, e1 = (float(v) for v in row.split(","))
    assert abs(e1 - (-0.768745)) < 1e-4
    assert abs(slope - (-1.5881)) < 1e-3


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency: importing the package loads none of
    # scipy, fractions or decimal, and the TF commands and the four field
    # functions leave scipy unloaded
    code = f"""
import contextlib, io, sys
import relscott
print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))
from relscott.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["tf"], ["energy", "--Z", "80"], ["compare", "--nist", {SAMPLE!r}]):
        assert main(argv) == 0
sol = relscott.solve_tf(1e-8)
relscott.density(8.0, sol)(0.5)
relscott.mean_field(8.0, sol, 0.5)
relscott.exchange_hole_radius(8.0, sol, 0.5)
relscott.screening_potential(8.0, 137.0, sol, 68.5)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert child_stdout(code) == "[]\n[]\n"


# `tf --json` at both tol ends and `compare --json` on the sample table
_JSON_COMMANDS = f"""
from relscott.cli import main
for argv in (["tf"], ["tf", "--tol", "1e-10"], ["compare", "--nist", {SAMPLE!r}]):
    assert main([*argv, "--json"]) == 0
"""
# the four field functions at a few (Z, r), and s(gamma) with its tail on a
# small (gamma, tol) grid
_FIELDS_AND_SHIFT = """
import relscott
sol = relscott.solve_tf()
for z, r in ((1.0, 0.02), (8.0, 0.5), (47.0, 2.0), (92.0, 10.0), (3.0, 3000.0)):
    print(repr(relscott.density(z, sol)(r)), repr(relscott.mean_field(z, sol, r)),
          repr(relscott.exchange_hole_radius(z, sol, r)),
          repr(relscott.screening_potential(z, 137.0, sol, 137.0 * r)))
for gamma in (0.0, 0.05, 0.3, 0.6, 0.9, 0.99):
    for tol in (1e-6, 1e-8, 1e-10):
        result = relscott.shift(gamma, tol)
        print(repr(result.value), repr(result.tail_estimate))
"""


def _dispatch_targets_above_baseline() -> str:
    """The SIMD targets numpy dispatches to on this host above its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return " ".join(target for target in umath.__cpu_dispatch__
                    if umath.__cpu_features__.get(target) and target not in umath.__cpu_baseline__)


def test_tf_output_does_not_depend_on_blas_threads():
    outputs = [child_stdout(_JSON_COMMANDS, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_outputs_do_not_depend_on_numpy_simd_dispatch():
    # numpy's exp, log and power loops round differently on each SIMD target
    # (AVX-512 against AVX2, say), so the Thomas-Fermi path takes these from
    # the C library.  A child that may use no target above numpy's baseline
    # prints the same bytes.  This covers numpy's dispatch only: both children
    # run the same C library, whose own CPU variants this cannot reach.
    targets = _dispatch_targets_above_baseline()
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target above its baseline on this host")
    code = _JSON_COMMANDS + _FIELDS_AND_SHIFT
    dispatched, baseline = child_stdout(code), child_stdout(code, NPY_DISABLE_CPU_FEATURES=targets)
    assert dispatched
    assert dispatched == baseline


def test_tf_rejects_out_of_range_tol():
    res = run_cli("tf", "--tol", "1e-3")
    assert res.returncode != 0
    assert "tol" in res.stderr


@pytest.mark.parametrize("tol", ["1e-11", "0.05"])
@pytest.mark.parametrize("command", [["energy", "--Z", "80"], ["compare", "--nist", SAMPLE]])
def test_tol_error_names_the_shift_range(command, tol, monkeypatch, capsys):
    # --tol goes to shift, so both ends name shift's range, checked before the
    # TF atom is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("the TF atom was solved for an invalid tol")

    monkeypatch.setattr("relscott.cli.solve_tf", no_solve)
    assert main([*command, "--tol", tol]) == 1
    assert capsys.readouterr().err == f"error: tol must lie in [1e-10, 0.01], got {float(tol)}\n"


def test_energy_gamma_error_hints_only_when_gamma_was_derived(capsys):
    for gamma in ("nan", "1.5"):
        assert main(["energy", "--Z", "80", "--gamma", gamma]) == 1
        assert capsys.readouterr().err == f"error: coupling gamma = {float(gamma)} outside [0, 1)\n"
    assert main(["energy", "--Z", "200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: coupling gamma = 1.459")
    assert err.endswith(" outside [0, 1); pass --gamma explicitly\n")


def test_tf_profile_file(tmp_path):
    out = tmp_path / "profile.csv"
    res = run_cli("tf", "--profile", str(out))
    assert res.returncode == 0
    assert out.read_text().splitlines()[0] == "x,phi"


def test_energy_example():
    res = run_cli("energy", "--Z", "1", "--gamma", "0")
    assert res.returncode == 0
    header, row = res.stdout.splitlines()
    assert header == "Z,gamma,e_tf_ha,scott_q,energy_ha"
    energy = float(row.split(",")[4])
    assert abs(energy - (-0.268745)) < 1e-4


def test_energy_gamma_defaults_to_alpha_z():
    res = run_cli("energy", "--Z", "10", "--json")
    payload = json.loads(res.stdout)
    assert payload["gamma"] == pytest.approx(10 * 7.2973525693e-3, rel=1e-12)


def test_energy_cli_wraps_predict_energy(tf_solution):
    from relscott import predict_energy

    res = run_cli("energy", "--Z", "5", "--json")
    payload = json.loads(res.stdout)
    expected = predict_energy(5.0, payload["gamma"], tf_solution, 1e-8)
    assert payload["energy_ha"] == pytest.approx(expected, rel=1e-13)


def test_compare_sample_table():
    res = run_cli("compare", "--nist", SAMPLE)
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "Z,gamma,empirical_q,model_q,schwinger_q,reference_q"
    assert len(lines) == 19  # 18 sample elements
    assert all(line.split(",")[3] != "" for line in lines[1:])  # all within domain


def test_compare_missing_file():
    res = run_cli("compare", "--nist", "/nonexistent/table.csv")
    assert res.returncode != 0
    assert "/nonexistent/table.csv" in res.stderr


def test_compare_parse_error_names_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Z,E_total_Ha\n2,abc\n")
    res = run_cli("compare", "--nist", str(bad))
    assert res.returncode != 0
    assert "line 2" in res.stderr


def _compare_out(tmp_path, table_text, *flags):
    """Run `compare` in process on the given table; return what it wrote to --out."""
    table = tmp_path / "table.csv"
    table.write_text(table_text)
    out = tmp_path / "out.txt"
    assert main(["compare", "--nist", str(table), "--out", str(out), *flags]) == 0
    return out.read_text()


def _flagged_rows(tf_solution, reference=None):
    return comparison_table(
        [NistRecord(1, -0.5), NistRecord(138, -1e5)],
        reference,
        PhysicalConstants(),
        tf_solution,
        1e-8,
    )


def test_csv_emission(tmp_path, tf_solution):
    rows = _flagged_rows(tf_solution)
    lines = _compare_out(tmp_path, FLAGGED_TABLE).splitlines()
    assert lines[0] == "Z,gamma,empirical_q,model_q,schwinger_q,reference_q"
    assert len(lines) == 3
    flagged_fields = lines[2].split(",")
    assert flagged_fields[3] == "" and flagged_fields[5] == ""  # no model/reference value
    assert float(lines[1].split(",")[2]) == pytest.approx(rows[0].empirical_q, rel=1e-11)


def test_json_emission(tmp_path, tf_solution):
    rows = _flagged_rows(tf_solution)
    payload = json.loads(_compare_out(tmp_path, FLAGGED_TABLE, "--json"))
    assert [p["Z"] for p in payload] == [1, 138]
    assert payload[0]["model_q"] == rows[0].model_q  # full round-trip float
    assert payload[1]["model_q"] is None
    assert set(payload[0]) == {"Z", "gamma", "empirical_q", "model_q", "schwinger_q", "reference_q"}


def test_compare_json_equals_comparison_table(tmp_path, tf_solution):
    ref = tmp_path / "ref.csv"
    ref.write_text("Z,E_ref_Ha\n1,-0.51\n")
    rows = _flagged_rows(tf_solution, [NistRecord(1, -0.51)])
    payload = json.loads(_compare_out(tmp_path, FLAGGED_TABLE, "--json", "--ref", str(ref)))
    assert payload == [
        {
            "Z": r.Z,
            "gamma": r.gamma,
            "empirical_q": r.empirical_q,
            "model_q": r.model_q,
            "schwinger_q": r.schwinger_q,
            "reference_q": r.reference_q,
        }
        for r in rows
    ]


def test_compare_header_only_table(tmp_path):
    empty = "Z,E_total_Ha\n"
    assert _compare_out(tmp_path, empty) == "Z,gamma,empirical_q,model_q,schwinger_q,reference_q\n"
    assert _compare_out(tmp_path, empty, "--json") == "[]\n"


# The goldens were written by the CLI (to --out or stdout, which get the same
# bytes) and pin its output byte for byte across changes; regenerate them
# only for an intended output change.
@pytest.mark.parametrize(
    "golden, argv",
    [
        ("curve_0_0.99_12.csv", ["curve", "--gamma-min", "0", "--gamma-max", "0.99", "--steps", "12"]),
        ("compare_sample_nist.csv", ["compare", "--nist", SAMPLE]),
        ("tf_default.csv", ["tf"]),
    ],
)
def test_pinned_output_matches_golden(golden, argv, tmp_path):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_unwritable_out_is_an_error(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.csv"
    assert main(["shift", "--gamma", "0.5", "--out", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")


def test_unwritable_profile_is_an_error(tmp_path, capsys):
    bad = tmp_path / "missing" / "profile.csv"
    assert main(["tf", "--profile", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {bad}: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "--gamma", "0.5"],
        ["curve", "--gamma-min", "0", "--gamma-max", "0.5", "--steps", "2"],
        ["tf"],
    ],
)
def test_alpha_only_where_used(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--alpha", "5"])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0.05", "-1"])
def test_energy_validates_alpha_like_compare(alpha, capsys):
    assert main(["energy", "--Z", "10", "--alpha", alpha]) == 1
    energy_err = capsys.readouterr().err
    assert energy_err == f"error: alpha must lie in (0, 0.01), got {float(alpha)!r}\n"
    assert main(["compare", "--nist", SAMPLE, "--alpha", alpha]) == 1
    assert capsys.readouterr().err == energy_err


@pytest.mark.parametrize("z", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("gamma", [[], ["--gamma", "0.5"]])
def test_energy_rejects_z_before_solving(z, gamma, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("the TF atom was solved for an invalid Z")

    monkeypatch.setattr("relscott.cli.solve_tf", no_solve)
    assert main(["energy", f"--Z={z}", *gamma]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: Z must be positive and finite, got {float(z)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, z",
    [("energy", 1e200), ("compare", 10**200), ("compare", 10**400)],
)
def test_overflowing_e_tf_is_one_error_line(command, z, tmp_path):
    # 10**400 does not even convert to a float
    if command == "energy":
        argv = ["energy", "--Z", str(z), "--gamma", "0.5"]
    else:
        table = tmp_path / "table.csv"
        table.write_text(f"Z,E_total_Ha\n1,-0.5\n{z},-1.0\n")
        argv = ["compare", "--nist", str(table)]
    res = run_cli(*argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"error: E_TF(Z) overflows a float at Z = {z}\n"
