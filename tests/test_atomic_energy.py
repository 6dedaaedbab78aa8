import math
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relscott import (
    SCHWINGER_COEFFICIENT,
    NistRecord,
    PhysicalConstants,
    comparison_table,
    emit_energy_table,
    ingest_energy_table,
    ingest_reference_table,
    predict_energy,
    shift,
    tf_energy,
)

from _support import EDGE_FLOATS

ALPHA = PhysicalConstants().alpha


def test_constants_default_and_validation():
    assert ALPHA == pytest.approx(7.2973525693e-3, rel=1e-12)
    with pytest.raises(ValueError):
        PhysicalConstants(0.02)
    with pytest.raises(ValueError):
        PhysicalConstants(0.0)


def test_record_validation():
    assert NistRecord(1, -0.5).Z == 1
    with pytest.raises(ValueError):
        NistRecord(0, -1.0)
    with pytest.raises(ValueError):
        NistRecord(2, 1.0)


@pytest.mark.parametrize("z, e_total, message", [
    (1, -math.inf, "^e_total must be finite and negative, got -inf$"),
    (1, math.nan, "^e_total must be finite and negative, got nan$"),
    (1, -10**400, f"^e_total must be finite and negative, got {-10**400}$"),
    (True, -0.5, "^Z must be an integer >= 1, got True$"),
    (False, -0.5, "^Z must be an integer >= 1, got False$"),
])
def test_record_rejects_infinite_energy_and_bool_z(z, e_total, message):
    # a record with e_total = -inf used to pass into comparison_table and come
    # out as empirical_q = -inf
    with pytest.raises(ValueError, match=message):
        NistRecord(z, e_total)


@pytest.mark.parametrize("row, cause", [
    ("1,-inf", "e_total must be finite and negative, got -inf"),
    ("1,inf", "e_total must be finite and negative, got inf"),
    ("1,nan", "e_total must be finite and negative, got nan"),
    ("0,-1.0", "Z must be an integer >= 1, got 0"),
    ("1,0.5", "e_total must be finite and negative, got 0.5"),
])
def test_ingest_rejects_what_the_record_rejects_and_names_the_line(row, cause):
    # the table reader checks a row by building its NistRecord
    message = "^" + re.escape(f"line 3: bad row '{row}': {cause}") + "$"
    with pytest.raises(ValueError, match=message):
        ingest_energy_table(f"Z,E_total_Ha\n2,-2.9\n{row}\n")


@pytest.mark.parametrize("bad", ["3", None])
def test_non_numbers_name_the_argument(tf_solution, bad):
    # compared only once their type is known: a numeric string is not read
    calls = [
        (lambda: NistRecord(1, bad), f"e_total must be finite and negative, got {bad!r}"),
        (lambda: PhysicalConstants(bad), f"alpha must lie in (0, 0.01), got {bad!r}"),
        (lambda: predict_energy(bad, 0.5, tf_solution), f"Z must be positive and finite, got {bad}"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call()


def test_anything_that_compares_is_a_number():
    # only a comparison's TypeError names a non-number: 0-d arrays and Decimals pass
    for e_total in (np.array(-1.0), Decimal("-0.5"), np.float64(-2.0), -10**300):
        assert NistRecord(1, e_total).e_total is e_total
    for alpha in (np.array(0.007), Decimal("0.007")):
        assert PhysicalConstants(alpha).alpha is alpha


def test_ingest_names_a_row_without_two_fields():
    message = "^" + re.escape("line 3: expected 2 comma-separated fields, got '1,-0.5,7'") + "$"
    with pytest.raises(ValueError, match=message):
        ingest_energy_table("Z,E_total_Ha\n2,-2.9\n1,-0.5,7\n")


def test_ingest_names_a_missing_header_line():
    for text in ("", "# a comment alone\n\n"):
        with pytest.raises(ValueError, match="^no header line 'Z,E_total_Ha' found$"):
            ingest_energy_table(text)


def test_ingest_single_row():
    assert ingest_energy_table("Z,E_total_Ha\n1,-0.5\n") == [NistRecord(1, -0.5)]


def test_ingest_malformed_row_names_line():
    with pytest.raises(ValueError, match="line 2"):
        ingest_energy_table("Z,E_total_Ha\n2,abc\n")


def test_ingest_duplicate_z():
    with pytest.raises(ValueError, match="duplicate"):
        ingest_energy_table("Z,E_total_Ha\n1,-0.5\n1,-0.6\n")


def test_ingest_positive_energy():
    with pytest.raises(ValueError, match="negative"):
        ingest_energy_table("Z,E_total_Ha\n1,0.5\n")


def test_ingest_missing_header():
    with pytest.raises(ValueError, match="header"):
        ingest_energy_table("1,-0.5\n")


def test_ingest_comments_and_sorting():
    text = "# comment\nZ,E_total_Ha\n3,-7.5\n# another\n1,-0.5\n"
    recs = ingest_energy_table(text)
    assert [r.Z for r in recs] == [1, 3]


def test_round_trip_identity():
    recs = ingest_energy_table("Z,E_total_Ha\n1,-0.4997\n6,-37.8565\n2,-2.9034\n")
    again = ingest_energy_table(emit_energy_table(recs))
    assert again == recs


def test_reference_table_header():
    assert ingest_reference_table("Z,E_ref_Ha\n2,-2.9\n") == [NistRecord(2, -2.9)]
    with pytest.raises(ValueError, match="header"):
        ingest_reference_table("Z,E_total_Ha\n2,-2.9\n")


def test_predict_energy_nonrelativistic(tf_solution):
    # gamma = 0: plain E_TF(Z) + Z^2/2
    for z in (1.0, 10.0):
        expected = tf_energy(z, tf_solution) + 0.5 * z * z
        assert predict_energy(z, 0.0, tf_solution) == pytest.approx(expected, abs=1e-14)


def test_predict_energy_plumbing_example(tf_solution):
    got = predict_energy(1.0, 0.001, tf_solution, 1e-8)
    assert got == pytest.approx(-0.268745, abs=1e-4)
    assert got < tf_energy(1.0, tf_solution) + 0.5  # s < 0 lowers the energy
    assert got == pytest.approx(tf_energy(1.0, tf_solution) + 0.5, abs=1e-6)


def test_predict_energy_heavy(tf_solution):
    z = 100.0
    gamma = ALPHA * z
    got = predict_energy(z, gamma, tf_solution, 1e-8)
    assert math.isfinite(got)
    assert got < tf_energy(z, tf_solution) + 0.5 * z * z


@pytest.mark.parametrize("z", [1e200, 10**200, 10**400])
def test_overflowing_e_tf_names_z(z, tf_solution):
    message = "^" + re.escape(f"E_TF(Z) overflows a float at Z = {z}") + "$"
    with pytest.raises(ValueError, match=message):
        tf_energy(z, tf_solution)
    with pytest.raises(ValueError, match=message):
        predict_energy(z, 0.5, tf_solution)
    if isinstance(z, int):  # before alpha Z or Z^2 can overflow
        with pytest.raises(ValueError, match=message):
            comparison_table([NistRecord(z, -1.0)], None, PhysicalConstants(), tf_solution)
    assert math.isfinite(tf_energy(1e132, tf_solution))


def test_comparison_single_hydrogen(tf_solution):
    rows = comparison_table(
        [NistRecord(1, -0.5)], None, PhysicalConstants(), tf_solution, 1e-8
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.gamma == pytest.approx(ALPHA, rel=1e-12)
    assert row.empirical_q == pytest.approx((-0.5 - tf_energy(1.0, tf_solution)), abs=1e-12)
    assert row.empirical_q == pytest.approx(0.268745, abs=1e-5)
    assert row.schwinger_q == pytest.approx(0.5 + SCHWINGER_COEFFICIENT * ALPHA**2, abs=1e-15)
    assert row.schwinger_q == pytest.approx(0.499955, abs=1e-6)
    assert not row.flagged and row.model_q is not None and row.reference_q is None


def test_comparison_flags_beyond_domain(tf_solution):
    rows = comparison_table(
        [NistRecord(138, -1.0e5), NistRecord(1, -0.5)],
        None,
        PhysicalConstants(),
        tf_solution,
        1e-8,
    )
    assert [r.Z for r in rows] == [1, 138]
    big = rows[1]
    assert big.gamma >= 1.0
    assert big.flagged and big.model_q is None
    assert big.empirical_q is not None and math.isfinite(big.schwinger_q)


@pytest.mark.parametrize("tol", [5.0, 1e-11, math.nan])
@pytest.mark.parametrize("records", [[NistRecord(140, -1e6)], []])
def test_comparison_rejects_tol_even_without_shift(records, tol, tf_solution):
    # Z = 140 is flagged (alpha Z >= 1), so no row reaches shift
    message = "^" + re.escape(f"tol must lie in [1e-10, 0.01], got {tol}") + "$"
    with pytest.raises(ValueError, match=message):
        comparison_table(records, None, PhysicalConstants(), tf_solution, tol)


def test_comparison_model_q_decreasing(tf_solution):
    records = [NistRecord(z, -0.5 * z**2.5) for z in (1, 20, 50, 90, 120)]
    rows = comparison_table(records, None, PhysicalConstants(), tf_solution, 1e-8)
    qs = [r.model_q for r in rows if r.model_q is not None]
    assert len(qs) == len(rows)
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_comparison_schwinger_matches_model_at_small_z(tf_solution):
    records = [NistRecord(z, -0.5 * z**2.5) for z in (1, 5, 10, 20, 40)]
    rows = comparison_table(records, None, PhysicalConstants(), tf_solution, 1e-8)
    for row in rows:
        if row.gamma <= 0.3:
            assert abs(row.schwinger_q - row.model_q) <= 0.35 * row.gamma**4 + 1e-8


def test_comparison_with_reference(tf_solution):
    recs = [NistRecord(1, -0.5), NistRecord(2, -2.9034)]
    ref = [NistRecord(2, -2.91)]
    rows = comparison_table(recs, ref, PhysicalConstants(), tf_solution, 1e-8)
    assert rows[0].reference_q is None
    assert rows[1].reference_q == pytest.approx(
        (-2.91 - tf_energy(2.0, tf_solution)) / 4.0, rel=1e-12
    )


def test_comparison_pure_function(tf_solution):
    recs = [NistRecord(1, -0.5), NistRecord(10, -129.0529)]
    a = comparison_table(recs, None, PhysicalConstants(), tf_solution, 1e-8)
    b = comparison_table(recs, None, PhysicalConstants(), tf_solution, 1e-8)
    assert a == b  # bit-identical dataclasses



def _record_call(tf, Z, e_total, alpha, tol):
    """comparison_table on one record, the record and constants built inside."""
    return comparison_table([NistRecord(Z, e_total)], None, PhysicalConstants(alpha), tf, tol)


# each public energy call: its drawn argument names and the call
_ENERGY_CALLS = {
    "shift": (("gamma", "tol"), lambda tf, gamma, tol: shift(gamma, tol)),
    "predict_energy": (("Z", "gamma", "tol"),
                       lambda tf, Z, gamma, tol: predict_energy(Z, gamma, tf, tol)),
    "tf_energy": (("Z",), lambda tf, Z: tf_energy(Z, tf)),
    "comparison_table": (("Z", "e_total", "alpha", "tol"), _record_call),
}
_INTEGER_Z = st.integers(-3, 200) | st.sampled_from([10**200, 10**400])


def _finite_floats(value) -> bool:
    """Every float in a result (a float, ShiftResult or comparison rows) is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite_floats(row) for row in value)
    return all(_finite_floats(v) for v in vars(value).values() if isinstance(v, float))


@pytest.mark.parametrize("name", list(_ENERGY_CALLS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_energy_calls_give_a_finite_value_or_name_the_argument(tf_solution, name, data):
    # comparison_table's Z is an int (NistRecord takes no other); None is
    # shift's default tol
    names, call = _ENERGY_CALLS[name]
    args = {arg: data.draw(_INTEGER_Z if (arg, name) == ("Z", "comparison_table")
                           else EDGE_FLOATS | st.none() if arg == "tol" else EDGE_FLOATS, arg)
            for arg in names}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(tf_solution, **args)
        except ValueError as exc:
            assert any(re.search(rf"\b{arg}\b", str(exc)) for arg in names), str(exc)
            return
    assert _finite_floats(value), (args, value)
