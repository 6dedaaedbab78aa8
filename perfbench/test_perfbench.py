"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("curve", "precise", "atom", "fields")

# the metrics the benchmark is specified to report
REQUIRED_END_TO_END = {"setup_s", "wall_s", "op_p50_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "import.total_s", "import.scipy_s",
    "zeta.hurwitz.calls", "zeta.hurwitz.busy_s",
    "hydrogenic.kernel.calls", "hydrogenic.kernel.points",
    "hydrogenic.kernel.bytes_computed", "hydrogenic.kernel.busy_s",
    "hydrogenic.tail_coeffs.calls",
    "scott_shift.shift.calls", "scott_shift.shift.busy_s", "scott_shift.shift.self_s",
    "scott_shift.l_cut_mean", "scott_shift.n_cut_mean", "scott_shift.tail_use",
    "scott_shift.err_over_tail_max",
    "thomas_fermi.solve.busy_s", "thomas_fermi.solve.self_s",
    "thomas_fermi.ivp.calls", "thomas_fermi.ivp.busy_s",
    "thomas_fermi.bvp.calls", "thomas_fermi.bvp.busy_s",
    "thomas_fermi.grid_nodes", "thomas_fermi.quad.busy_s", "thomas_fermi.interp.busy_s",
    "atomic_energy.ingest.busy_s", "atomic_energy.table.self_s",
    "atomic_energy.emit.busy_s", "cli.main.self_s",
    "trace.overhead_s",
} | {
    f"thomas_fermi.fields.{fn}.{what}"
    for fn in ("density", "mean_field", "exchange_hole_radius", "screening_potential")
    for what in ("calls", "busy_s")
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


def test_spec_lists_the_required_metrics():
    spec = _spec()
    assert {m["name"] for m in spec["end_to_end"]} == REQUIRED_END_TO_END
    assert REQUIRED_PER_LAYER <= {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    spec = _spec()
    report, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert report["fail_ratio"] == 0.0
    assert set(report["machine"]) >= {"python", "numpy", "scipy", "nproc", "cpu_model",
                                      "seed", "git_commit"}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.layers_self_s"] + m["trace.unattributed_s"] == pytest.approx(
            m["trace.op_s"], rel=1e-9)
        assert m["trace.layers_self_s"] > 0.0


def _wrong(refs: dict) -> dict:
    bad = copy.deepcopy(refs)
    for v in bad["shift"].values():
        v[0] += 1e-6
    for v in bad["fields"].values():
        v[:] = [x * (1.0 + 1e-3) for x in v]
    return bad


@pytest.mark.parametrize("workload", ("curve", "precise", "fields", "atom"))
def test_wrong_reference_fails(workload, tmp_path):
    refs = workloads.load_references()
    cls = workloads.WORKLOADS[workload]
    wl = cls(7, _wrong(refs), True, tmp_path)
    if workload == "atom":  # `tf` is checked against literature constants only
        wl.batch = [item for item in wl.batch if item[0] != "tf"]
    wl.setup()
    m = run.measure(wl, 0, None)
    assert len(m.failures) == len(m.op_times) > 0

    good = cls(7, refs, True, tmp_path)
    good.batch = wl.batch
    good.setup()
    assert run.measure(good, 0, None).failures == []


def test_import_profile_parses_importtime():
    total, scipy = run.import_profile(workloads.child_env())
    assert 0.0 <= scipy < total
