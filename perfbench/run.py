"""relscott benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): curve, precise, atom, fields.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the run
is traced and the last line carries the per-layer metrics (see README.md).
The line before it is a report with the details: sample counts, the tail
percentile, fail ratio, output digest and the machine block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
SETUP_OP = -2  # operation id of the spans recorded during set-up
FAILURES_SHOWN = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def import_profile(env: dict) -> tuple[float, float]:
    """(relscott import, scipy share) in seconds from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relscott.cli"],
                          env=env, check=True, capture_output=True, text=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        level = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        entries.append((level, name, cumulative * 1e-6))
    total = scipy = 0.0
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else None
        if level == 0 and (name == "relscott" or name.startswith("relscott.")):
            total += cumulative
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (parent == "scipy" or (parent or "").startswith("scipy.")):
            scipy += cumulative
        stack.append((level, name))
    return total, scipy


def machine_block(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "git_commit": commit,
    }


class Measurement:
    """Outcome of the timed loop."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.batch_times: list[float] = []
        self.failures: list[str] = []
        self.records: list = []
        self.err_over_tail: list[float] = []


def measure(wl, seconds: float, tracer) -> Measurement:
    """Closed loop over the batch until `seconds` have passed (at least one batch).

    Only the call into the library is timed; checks run between operations.
    """
    m = Measurement()
    n = len(wl.batch)
    batch_t = 0.0
    i = 0
    t_start = time.perf_counter()
    while True:
        item = wl.batch[i % n]
        out = None
        error = None
        op_span = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(item)
            else:
                with tracer.span("op", op_id=i) as op_span:
                    out = wl.run(item)
        except Exception as exc:  # a failed operation is counted, the loop goes on
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if wl.child_spans is not None:
            tracer.merge(wl.child_spans, op_span, i)
            wl.child_spans = None
        if error is None:
            error = wl.check(item, out)
            if hasattr(wl, "err_over_tail"):
                m.err_over_tail.append(wl.err_over_tail(item, out))
        if error is not None:
            m.failures.append(error)
        if i < n:
            m.records.append(None if out is None else wl.digest_record(item, out))
        m.op_times.append(dt)
        batch_t += dt
        i += 1
        if i % n == 0:
            m.batch_times.append(batch_t)
            batch_t = 0.0
            if time.perf_counter() - t_start >= seconds:
                break
        elif i > n and time.perf_counter() - t_start >= seconds:
            break
    return m


def layer_metrics(tracer, m: Measurement, batch_len: int, import_s: tuple[float, float],
                  overhead_s: float) -> dict:
    import numpy as np
    from tracer import Spans

    spans = Spans(tracer)
    n_batches = len(m.batch_times)
    in_batch = (spans.op >= 0) & (spans.op < n_batches * batch_len)
    in_setup = spans.op == SETUP_OP
    setup_units = SETUP_REPEATS if in_setup.any() else 1
    counted = in_batch | in_setup
    n = len(spans.dur)
    attr = spans.attr

    def per_run(values, mask):
        """Per batch, plus the workload's set-up (per repetition)."""
        return (float(np.sum(values[mask & in_batch])) / n_batches
                + float(np.sum(values[mask & in_setup])) / setup_units)

    ones = np.ones(n)

    def calls(layer):
        return per_run(ones, spans.layer_mask(layer))

    def busy(layer):
        return per_run(spans.dur, spans.layer_mask(layer) & spans.outermost)

    def self_s(layer):
        return per_run(spans.self_time, spans.layer_mask(layer))

    def mean_attr(layer, col):
        sel = spans.layer_mask(layer) & counted
        return float(np.mean(attr[sel, col])) if sel.any() else 0.0

    shift, kernel = "scott_shift.shift", "hydrogenic.kernel"
    points = per_run(attr[:, 0], spans.layer_mask(kernel))
    out = {
        "import.total_s": (import_s[0], "s"),
        "import.scipy_s": (import_s[1], "s"),
        "zeta.hurwitz.calls": (calls("zeta.hurwitz"), "count"),
        "zeta.hurwitz.busy_s": (busy("zeta.hurwitz"), "s"),
        "hydrogenic.kernel.calls": (calls(kernel), "count"),
        "hydrogenic.kernel.points": (points, "count"),
        # computed from array sizes: one float64 read and one written per point
        "hydrogenic.kernel.bytes_computed": (16.0 * points, "bytes"),
        "hydrogenic.kernel.busy_s": (busy(kernel), "s"),
        "hydrogenic.tail_coeffs.calls": (calls("hydrogenic.tail_coeffs"), "count"),
        "scott_shift.shift.calls": (calls(shift), "count"),
        "scott_shift.shift.busy_s": (busy(shift), "s"),
        "scott_shift.shift.self_s": (self_s(shift), "s"),
        "scott_shift.l_cut_mean": (mean_attr(shift, 0), "count"),
        "scott_shift.n_cut_mean": (mean_attr(shift, 1), "count"),
        "scott_shift.tail_use": (mean_attr(shift, 2), "ratio"),
        "scott_shift.err_over_tail_max": (max(m.err_over_tail, default=0.0), "ratio"),
        "thomas_fermi.solve.busy_s": (busy("thomas_fermi.solve"), "s"),
        "thomas_fermi.solve.self_s": (self_s("thomas_fermi.solve"), "s"),
        "thomas_fermi.ivp.calls": (calls("thomas_fermi.ivp"), "count"),
        "thomas_fermi.ivp.busy_s": (busy("thomas_fermi.ivp"), "s"),
        "thomas_fermi.bvp.calls": (calls("thomas_fermi.bvp"), "count"),
        "thomas_fermi.bvp.busy_s": (busy("thomas_fermi.bvp"), "s"),
        "thomas_fermi.grid_nodes": (mean_attr("thomas_fermi.solve", 0), "count"),
        "thomas_fermi.quad.busy_s": (busy("thomas_fermi.quad"), "s"),
        "thomas_fermi.interp.busy_s": (busy("thomas_fermi.interp"), "s"),
        "thomas_fermi.brentq.busy_s": (busy("thomas_fermi.brentq"), "s"),
    }
    for fn in ("density", "mean_field", "exchange_hole_radius", "screening_potential"):
        layer = f"thomas_fermi.fields.{fn}"
        out[f"{layer}.calls"] = (calls(layer), "count")
        out[f"{layer}.busy_s"] = (busy(layer), "s")
    out.update({
        "atomic_energy.ingest.busy_s": (busy("atomic_energy.ingest"), "s"),
        "atomic_energy.table.self_s": (self_s("atomic_energy.table"), "s"),
        "atomic_energy.emit.busy_s": (busy("atomic_energy.emit"), "s"),
        "cli.import.busy_s": (busy("cli.import"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    })
    # the operations' self times (time in no layer span) and the layers' self
    # times add up to the traced operation time
    op = spans.layer_mask("op")
    op_s = float(np.sum(spans.dur[op & in_batch])) / n_batches
    unattributed = float(np.sum(spans.self_time[op & in_batch])) / n_batches
    layers_self = float(np.sum(spans.self_time[~op & in_batch])) / n_batches
    if not abs(op_s - unattributed - layers_self) <= 1e-9 * max(op_s, 1e-9):
        raise RuntimeError(f"span self times {unattributed + layers_self} do not add up "
                           f"to the operation time {op_s}")
    out.update({
        "trace.op_s": (op_s, "s"),
        "trace.layers_self_s": (layers_self, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


def untraced_wall_s(args) -> float:
    """wall_s of an untraced run of the same workload and seed, in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 2)), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]["wall_s"]["value"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description="relscott benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=("curve", "precise", "atom", "fields"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink the batch (benchmark self-tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relscott" / "__init__.py").is_file():
        print(f"error: no relscott sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    sys.path.insert(0, str(SRC))
    import relscott

    if Path(relscott.__file__).resolve().parent != (SRC / "relscott").resolve():
        print(f"error: imported relscott from {relscott.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    env = workloads.child_env()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_references(),
                                                args.tiny, Path(tmp))
        setups = []
        profiles = []
        for _ in range(SETUP_REPEATS):
            if tracer is None:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import relscott.cli"], env=env,
                               check=True, capture_output=True)
                wl.setup()
                setups.append(time.perf_counter() - t0)
            else:
                profiles.append(import_profile(env))
                with tracer.span("setup", op_id=SETUP_OP):
                    wl.setup()

        wl.tracer = tracer
        seconds = args.seconds if tracer is None else max(1, args.seconds - args.seconds // 2)
        m = measure(wl, seconds, tracer)
        wall_s = statistics.median(m.batch_times)
        # operation statistics over whole batches only, so that every run
        # weighs the batch's inputs alike
        batch_ops = m.op_times[:len(m.batch_times) * len(wl.batch)]

        if tracer is None:
            who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall_s,
                "op_p50_s": statistics.median(batch_ops),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        else:
            import_s = tuple(statistics.median(col) for col in zip(*profiles))
            overhead = wall_s - untraced_wall_s(args)
            metrics = layer_metrics(tracer, m, len(wl.batch), import_s, overhead)

    ops = len(m.op_times)
    tail = None
    if len(batch_ops) * (100 - TAIL_PERCENTILE) / 100 >= 10:
        tail = {"percentile": TAIL_PERCENTILE,
                "value_s": statistics.quantiles(batch_ops, n=100)[TAIL_PERCENTILE - 1],
                "samples": len(batch_ops)}
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "batch_ops": len(wl.batch),
        "batches": len(m.batch_times),
        "ops": ops,
        "fail_ratio": len(m.failures) / ops,
        "failures": m.failures[:FAILURES_SHOWN],
        "op_tail": tail,
        "output_digest": workloads.digest(m.records),
        "machine": machine_block(args.seed),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not m.failures,
        "attempted": ops,
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
