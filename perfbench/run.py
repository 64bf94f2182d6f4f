"""Solver benchmark: closed loop, one client, one fresh process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S    # every workload, one table

Run from the root of a checkout; the package is imported from `src/`.
Each operation is `perfbench/op.py` in a new single-threaded Python
process (BLAS/OpenMP thread variables set to 1), started only after the
previous one ended.  A run starts operations while the next one is
expected to end within `--seconds`, then fills the rest of that time with
set-up-only processes (at least three).

`--trace 0` prints the end-to-end metrics (medians over the run's
operations); `--trace 1` alternates traced and untraced operations and
prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Scratch files go to
`.bench_build/perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from op import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"

# Set-up-only processes per run, besides the set-up of every operation.
MIN_PROBES = 3
MAX_PROBES = 40
HARD_LIMIT_S = 170.0  # no run may take longer than 180 s

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics and units, in report order.  Counts must repeat exactly
# across the operations of a run (same seed, same inputs).
PER_LAYER = {
    "setup.import_s": "s",
    "config.parse_s": "s",
    "presets.build_s": "s",
    "cost_ops.apply_s": "s",
    "cost_ops.apply_calls": "count",
    "hamiltonian.eval_s": "s",
    "hamiltonian.eval_calls": "count",
    "dynamics.value_step_s": "s",
    "dynamics.value_steps": "count",
    "dynamics.newton_iters": "count",
    "dynamics.newton_per_step": "iters/step",
    "dynamics.backtracks": "count",
    "dynamics.residual_s": "s",
    "dynamics.residual_calls": "count",
    "dynamics.density_step_s": "s",
    "dynamics.density_steps": "count",
    "dynamics.assembly_s": "s",
    "dynamics.assembly_calls": "count",
    "dynamics.factor_s": "s",
    "dynamics.factor_calls": "count",
    "dynamics.lu_fill_nnz": "count",
    "dynamics.trisolve_s": "s",
    "dynamics.trisolve_calls": "count",
    "dynamics.refinements": "count",
    "dynamics.linear_solve_s": "s",
    "solver.outer_sweeps": "count",
    "solver.self_s": "s",
    "solver.final_checks_s": "s",
    "solver.ergodic_newton_s": "s",
    "solver.stationary_density_s": "s",
    "archive.write_s": "s",
    "archive.bytes": "B",
    "archive.files": "count",
    "trace.overhead_s": "s",
}

# Per-layer metrics read from every set-up, or from every operation.
FROM_SETUP = {"setup.import_s": "import_s", "config.parse_s": "parse_s", "presets.build_s": "build_s"}
FROM_OP = {
    "archive.write_s": "write_s",
    "archive.bytes": "archive_bytes",
    "archive.files": "archive_files",
}

# Counts that every operation of a run reports, traced or not.
OP_COUNTS = ("outer_sweeps", "archive_bytes", "archive_files", "digest")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before an operation could start")
    cmd = [sys.executable, str(HERE / "op.py"), *args, "--workdir", str(WORKDIR)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"operation exceeded the {HARD_LIMIT_S:.0f} s run limit: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"operation process exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread_note(values) -> str:
    values = list(values)
    if not values:
        return "n=0"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One set-up-only process, then operations while the next one is
    expected to end within `seconds`, then set-up-only processes to fill
    the rest; return every child result."""
    t_start = time.monotonic()
    hard_deadline = t_start + HARD_LIMIT_S
    deadline = t_start + seconds
    common = ["--workload", workload, "--seed", str(seed)]

    def timed(args):
        t0 = time.monotonic()
        res = run_child([*common, *args], hard_deadline)
        return res, time.monotonic() - t0

    probe, probe_wall = timed(["--setup-only"])
    probes = [probe]
    reserve = (MIN_PROBES - 1) * probe_wall
    ops: list[dict] = []
    op_wall = 0.0
    while len(ops) < (2 if trace else 1) or time.monotonic() + op_wall + reserve <= deadline:
        op, wall = timed(["--trace", str(int(trace and len(ops) % 2 == 0))])
        ops.append(op)
        op_wall = max(op_wall, wall)
    while len(probes) < MIN_PROBES or (
        len(probes) < MAX_PROBES and time.monotonic() + probe_wall <= deadline
    ):
        probe, wall = timed(["--setup-only"])
        probes.append(probe)
        probe_wall = max(probe_wall, wall)
    return {"setups": probes + ops, "ops": ops, "wall_s": time.monotonic() - t_start}


def check_repeats(workload: str, seed: int, ops: list[dict]) -> list[str]:
    """Exact counts must repeat across the operations of a run and across
    runs of the same source and seed (recorded in WORKDIR)."""
    problems = []
    counts: dict = {}
    for op in ops:
        seen = {k: op[k] for k in OP_COUNTS if k in op}
        seen.update({k: v for k, v in op.get("layers", {}).items() if isinstance(v, int)})
        for key, value in seen.items():
            if counts.setdefault(key, value) != value:
                problems.append(f"{key} drifted within the run: {counts[key]} then {value}")
    record_path = WORKDIR / "counts.json"
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{src_hash()}/{workload}/{seed}"
    earlier = record.get(key, {})
    for name, value in counts.items():
        if name in earlier and earlier[name] != value:
            problems.append(f"{name} drifted from an earlier run: {earlier[name]} then {value}")
    record[key] = {**earlier, **counts}
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return problems


def summarize(workload: str, seed: int, trace: bool, res: dict) -> tuple[dict, list[str]]:
    """Reduce one run to (result JSON object, report lines)."""
    setups, ops = res["setups"], res["ops"]
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    problems = [f"gate: {g}" for op in ops for g in op["gate"]]
    problems += check_repeats(workload, seed, ops)
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}: "
             f"{len(ops)} operations ({len(traced)} traced), {len(setups)} set-ups, {res['wall_s']:.1f} s"]
    errors = sorted({op["error"] for op in ops if op.get("error")})
    lines += [f"  failed operation: {e}" for e in errors]

    metrics: dict = {}

    def put(name, unit, value, note):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:30s} {value:>14.6g} {unit:10s} ({note})")

    if not trace:
        samples = {
            "setup_s": [s["setup_s"] for s in setups],
            "solve_s": [op["solve_s"] for op in untraced],
            "total_s": [op["total_s"] for op in untraced],
            "peak_rss_mb": [op["peak_rss_mb"] for op in untraced],
        }
        for name, unit in END_TO_END.items():
            put(name, unit, median(samples[name]), "median, " + spread_note(samples[name]))
        lines.append(f"  {'failed_frac':30s} {failed / attempted:>14.6g} {'ratio':10s} "
                     f"({failed} of {attempted} operations)")
    else:
        layer_ops = [op["layers"] for op in traced]
        missing = traced[0].get("missing_metrics", [])
        overhead = median(op["solve_s"] for op in traced) - median(op["solve_s"] for op in untraced)
        for name, unit in PER_LAYER.items():
            if name in FROM_SETUP:
                vals = [s[FROM_SETUP[name]] for s in setups]
            elif name in FROM_OP:
                vals = [op.get(FROM_OP[name], 0) for op in ops]
            elif name == "trace.overhead_s":
                vals = [overhead]
            else:
                vals = [lm[name] for lm in layer_ops]
            exact = all(isinstance(v, int) for v in vals)
            note = "exact count" if exact else f"median, {spread_note(vals)}"
            if name in missing:
                note = "MISSING SPAN"
            put(name, unit, vals[0] if exact else median(vals), note)
        gone = traced[0].get("missing_targets", [])
        if gone:
            lines.append(f"  missing spans (wrapped attribute not found): {', '.join(gone)}")
        lines.append(f"  newton_per_step base: {layer_ops[0]['dynamics.value_steps']} value steps; "
                     f"lu_fill_nnz is computed as nnz(L+U) summed over factorizations; "
                     f"failed_frac: {failed} of {attempted} operations")
        lines.append(f"  traced fingerprint equals untraced: {len({op.get('digest') for op in ops}) == 1}")

    ctx = ops[0].get("context", {})
    lines.append(
        f"  context: nproc={os.cpu_count()}, cpu={cpu_model()}, python={platform.python_version()}, "
        f"numpy={ctx.get('numpy')}, scipy={ctx.get('scipy')}, blas={ctx.get('blas')}, "
        f"threads={ctx.get('threads')}"
    )
    lines += [f"  PROBLEM: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mfgfd solver benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mfgfd" / "__init__.py").is_file():
        print(f"error: no mfgfd package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, samples = {}, {}
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name], lines = summarize(name, args.seed, bool(args.trace), res)
            samples[name] = (len(res["setups"]), sum(not op["traced"] for op in res["ops"]))
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print_table(results, samples)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def print_table(results: dict, samples: dict) -> None:
    """One row per workload: each metric's median and unit, then the sample
    counts (set-ups; untraced operations) and failed_frac with its base."""
    names = list(next(iter(results.values()))["metrics"])
    print("\n" + f"{'workload':16s}" + "".join(f"{n:>22s}" for n in names)
          + f"{'setups;ops':>12s}{'failed_frac':>22s}")
    for w, r in results.items():
        cells = "".join(f"{r['metrics'][n]['value']:>14.4g} {r['metrics'][n]['unit']:<7s}" for n in names)
        n_setups, n_ops = samples[w]
        base = f"{r['failed']}/{r['attempted']}"
        print(f"{w:16s}{cells}{n_setups:>6d};{n_ops:<5d}{r['failed'] / r['attempted']:>10.3g} ratio ({base})"
              f"  correct={r['correct']}")


if __name__ == "__main__":
    sys.exit(main())
