"""One benchmark operation, run in a fresh single-threaded process.

    python3 perfbench/op.py --workload NAME --seed N --trace 0|1 --workdir DIR [--setup-only]

Does what one `mfgfd solve` does, through the package's public functions:
import, config parse and problem build (the set-up), the solve, then the
archive write.  Afterwards, outside every timed region, it checks the
outputs against the solver's own contracts and the pinned reference in
`perfbench/reference/`.  Prints one JSON object on its last stdout line.

Only the standard library is imported before the timed `import mfgfd`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

_EVOLUTIVE = """\
[problem]
kind = evolutive
nu = 0.6
beta = 2
T = 1.0
N_h = {n}
N_T = {nt}
hamiltonian = sines
u0 = cosine
u0.amplitude = 0.25
mT = bump

[cost]
{cost}

[solver]
damping = {damping}
"""

_POWER_COST = "kind = local\nlocal.preset = power\nlocal.alpha = 2"

CONFIGS = {
    "evo_power_n16": _EVOLUTIVE.format(n=16, nt=32, cost=_POWER_COST, damping=0.5),
    "evo_bilap_n32": _EVOLUTIVE.format(n=32, nt=64, cost="kind = bilaplacian", damping=1.0),
    "erg_power_n128": (
        "[problem]\nkind = ergodic\nnu = 1.0\nbeta = 2\nN_h = 128\nhamiltonian = sines\n\n"
        f"[cost]\n{_POWER_COST}\n"
    ),
}
WORKLOADS = tuple(CONFIGS)

# Solver contracts checked on every solve (see the solver docstrings).
RESIDUAL_TOL = {"evolutive": 1e-9, "ergodic": 1e-8}
MASS_TOL = 1e-9
CLAMP_TOL = 1e-12
FINGERPRINT_TOL = 1e-8

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# ---------------------------------------------------------------------------
# inputs and fingerprints
# ---------------------------------------------------------------------------

def initial_trajectory(problem, seed: int):
    """Seeded start trajectory for the evolutive solve: every slice is the
    terminal density times a positive random factor in [0.5, 1.5],
    renormalized to unit mass."""
    import numpy as np
    from mfgfd import DiscreteDensity, GridField, SpaceTimeField

    rng = np.random.Generator(np.random.Philox(seed))
    mt = problem.mT.field.values
    slices = []
    for _ in range(problem.mesh.n_steps + 1):
        factor = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=mt.shape)
        slices.append(DiscreteDensity.normalized(GridField(problem.grid, mt * factor)).field)
    return SpaceTimeField(problem.mesh, slices)


def solution_arrays(sol) -> dict:
    """u and m as arrays: (N_T+1, N, N) for evolutive, (N, N) for ergodic."""
    import numpy as np

    if hasattr(sol, "lam"):
        return {"u": sol.u.values, "m": sol.m.field.values, "lam": np.array([sol.lam])}
    return {"u": sol.u.stack(), "m": sol.m.stack()}


def fingerprint(arrays: dict) -> dict:
    """Compact fingerprint: values on an 8 x 8 node lattice of every slice,
    plus each slice's max and min over all nodes."""
    import numpy as np

    out = {}
    for key in ("u", "m"):
        a = arrays[key]
        stride = max(1, a.shape[-1] // 8)
        out[key] = np.concatenate(
            [
                a[..., ::stride, ::stride].ravel(),
                np.atleast_1d(a.max(axis=(-2, -1))).ravel(),
                np.atleast_1d(a.min(axis=(-2, -1))).ravel(),
            ]
        )
    if "lam" in arrays:
        out["lam"] = arrays["lam"]
    return out


def digest(arrays: dict) -> str:
    """Hash of the full solution bytes, for the exact-repeat checks."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(key.encode())
        h.update(arrays[key].tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def solve_gate(workload: str, sol, arrays: dict) -> list[str]:
    """Violated contracts of one solve; empty when the output is correct."""
    import numpy as np

    kind = "ergodic" if hasattr(sol, "lam") else "evolutive"
    bad = []
    d = sol.diagnostics
    for key in ("hjb_residual", "fp_residual"):
        if not d[key] <= RESIDUAL_TOL[kind]:
            bad.append(f"{key} {d[key]:.3e} > {RESIDUAL_TOL[kind]:.0e}")
    m = arrays["m"]
    h2 = 1.0 / m.shape[-1] ** 2
    mass_defect = float(np.max(np.abs(h2 * m.sum(axis=(-2, -1)) - 1.0)))
    if not mass_defect <= MASS_TOL:
        bad.append(f"mass defect {mass_defect:.3e} > {MASS_TOL:.0e}")
    if not float(m.min()) >= 0.0:
        bad.append(f"min m {float(m.min()):.3e} < 0")
    if kind == "evolutive" and not d["max_clamp"] <= CLAMP_TOL:
        bad.append(f"max_clamp {d['max_clamp']:.3e} > {CLAMP_TOL:.0e}")
    ref = np.load(REFERENCE_DIR / f"{workload}.npz")
    got = fingerprint(arrays)
    for key in ref.files:
        dist = float(np.max(np.abs(got[key] - ref[key]))) if got[key].shape == ref[key].shape else np.inf
        if not dist <= FINGERPRINT_TOL:
            bad.append(f"{key} differs from the reference by {dist:.3e} > {FINGERPRINT_TOL:.0e}")
    return bad


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------

def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _config_echo(cfg) -> dict:
    echo = dataclasses.asdict(cfg)
    echo.pop("text", None)
    return echo


def run(workload: str, seed: int, traced: bool, workdir: Path, setup_only: bool) -> dict:
    res: dict = {"workload": workload, "seed": seed, "traced": traced, "setup_only": setup_only}
    tag = f"{workload}_{os.getpid()}"
    config_path = workdir / f"{tag}.ini"
    config_path.write_text(CONFIGS[workload])

    # -- set-up: import, parse, build ---------------------------------------
    t0 = time.perf_counter()
    import mfgfd
    import mfgfd.archive
    import mfgfd.presets
    t1 = time.perf_counter()
    src = (ROOT / "src").resolve()
    if not Path(mfgfd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"mfgfd was imported from {mfgfd.__file__}, not from {src}")
    cfg = mfgfd.load_config(config_path)
    t2 = time.perf_counter()
    if cfg.kind == "ergodic":
        problem = mfgfd.presets.build_ergodic_problem(cfg)
    else:
        problem = mfgfd.presets.build_evolutive_problem(cfg)
    fixed, hjb, contract = mfgfd.presets.solver_settings(cfg)
    t3 = time.perf_counter()
    config_path.unlink()
    res.update(import_s=t1 - t0, parse_s=t2 - t1, build_s=t3 - t2, setup_s=t3 - t0)
    if setup_only:
        return res

    import numpy as np

    res["context"] = {
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": _blas_version(np),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outdir = workdir / f"{tag}_out"
    res["error"] = None
    res["gate"] = []
    initial_m = initial_trajectory(problem, seed) if cfg.kind == "evolutive" else None
    t4 = time.perf_counter()
    try:
        if cfg.kind == "ergodic":
            sol = mfgfd.solve_ergodic(problem, cfg=fixed, contract=contract)
        else:
            sol = mfgfd.solve_evolutive(
                problem, cfg=fixed, initial_m=initial_m, hjb_cfg=hjb, contract=contract
            )
    except Exception as exc:  # a solver failure is a failed operation, not a crash
        sol = None
        res["error"] = f"{type(exc).__name__}: {exc}"
    t5 = time.perf_counter()
    if sol is not None:
        if cfg.kind == "ergodic":
            mfgfd.archive.write_ergodic_archive(outdir, sol, _config_echo(cfg), cfg.text)
        else:
            mfgfd.archive.write_evolutive_archive(outdir, sol, _config_echo(cfg), cfg.text)
    t6 = time.perf_counter()
    res["attempted"] = 1
    res["failed"] = 0 if sol is not None else 1
    if sol is not None:
        res["outer_sweeps"] = sol.outer_iters

    res.update(solve_s=t5 - t4, write_s=t6 - t5, total_s=res["setup_s"] + (t5 - t4) + (t6 - t5))
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if outdir.exists():
        res["archive_bytes"], res["archive_files"] = _dir_size(outdir)
        shutil.rmtree(outdir)

    # -- checks, outside every timed region ---------------------------------
    if sol is not None:
        arrays = solution_arrays(sol)
        res["gate"] = solve_gate(workload, sol, arrays)
        res["digest"] = digest(arrays)
    if res["gate"]:  # a wrong output fails its operation
        res["failed"] = 1
    if tracer is not None:
        res["layers"] = tracer.layer_metrics()
        res["missing_targets"] = tracer.missing
        res["missing_metrics"] = tracer.missing_metrics()
        tracer.dump(workdir / f"spans_{workload}_seed{seed}.jsonl")
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    res = run(args.workload, args.seed, bool(args.trace), args.workdir, args.setup_only)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
