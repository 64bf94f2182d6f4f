"""Mesh-refinement self-convergence harness.

Solves one problem family on a nested hierarchy of grids (each side count
divides the next, the step count scaled along), reads the finest solution
at the nodes and times of each coarser level (injection in space and
time), and reports per-level errors plus observed orders
log2(err_coarse / err_fine) between consecutive levels.  There is no exact
solution here; the finest level is the reference, which is what the
convergence theory licenses for smooth presets.  A stationary solution is
measured as the one-step trajectory that stays at (u, m).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import HjbStepConfig, LinearSolveContract
from .solver import ErgodicSolution, FixedPointConfig, solve_ergodic, solve_evolutive
from .torus_grid import gradient_power_sum, time_sum

__all__ = ["convergence_study", "write_study", "check_levels_nested"]


def check_levels_nested(levels: Sequence[tuple[int, int]]) -> None:
    if len(levels) < 2:
        raise ValueError("a study needs at least two levels")
    for (na, ta), (nb, tb) in zip(levels, levels[1:]):
        if nb % na != 0 or nb <= na:
            raise ValueError(f"levels not nested: {na} does not divide into {nb}")
        if tb % ta != 0 or tb <= ta:
            raise ValueError(f"time levels not nested: {ta} does not divide into {tb}")


def _trajectory(sol) -> tuple[np.ndarray, np.ndarray, float]:
    """(u, m, dt) of a solution as (K + 1, N, N) arrays; a stationary pair
    is the one-step trajectory (u, u), (m, m) with unit weight dt = 1."""
    if isinstance(sol, ErgodicSolution):
        u, m = sol.u.values, sol.m.field.values
        return np.stack([u, u]), np.stack([m, m]), 1.0
    return sol.u.values, sol.m.values, sol.u.mesh.dt


def _level_errors(level: tuple, ref: tuple, beta: float, m_exponent: float) -> dict:
    """Errors of a ``_trajectory`` against the reference one read at its
    nodes and times: sup norm of du over all slices, (h^2 dt)-weighted
    discrete W^{1,beta} seminorm of du over t_1..t_K and L^m_exponent norm
    of dm over t_0..t_{K-1}; slice totals add in time order."""
    (u, m, dt), (ref_u, ref_m, _) = level, ref
    t = (len(ref_u) - 1) // (len(u) - 1)
    r = ref_u.shape[-1] // u.shape[-1]
    h = 1.0 / u.shape[-1]
    h2 = h ** 2
    du = u - ref_u[::t, ::r, ::r]
    dm = m[:-1] - ref_m[::t, ::r, ::r][:-1]
    return {
        "err_u_sup": float(np.max(np.abs(du))),
        "err_u_w1beta": (h2 * dt * gradient_power_sum(du[1:], h, beta)) ** (1.0 / beta),
        "err_m": (h2 * dt * time_sum(np.abs(dm) ** m_exponent)) ** (1.0 / m_exponent),
    }


def convergence_study(
    make_problem: Callable,
    levels: Sequence[tuple[int, int]],
    cfg: Optional[FixedPointConfig] = None,
    m_exponent: float = 2.0,
    kind: str = "evolutive",
    hjb_cfg: Optional[HjbStepConfig] = None,
    contract: Optional[LinearSolveContract] = None,
) -> dict:
    """Solve every level, in order, and measure errors against the finest one.

    ``make_problem(n_side, n_steps)`` must build the problem at one level
    (the step count is ignored for the stationary family).  ``cfg``,
    ``hjb_cfg`` and ``contract`` go to every solve.
    """
    levels = [tuple(lv) for lv in levels]
    check_levels_nested(levels)

    ergodic = kind == "ergodic"
    solve = solve_ergodic if ergodic else solve_evolutive
    solutions = [
        solve(make_problem(*lv), cfg=cfg, hjb_cfg=hjb_cfg, contract=contract) for lv in levels
    ]

    beta = make_problem(*levels[0]).hamiltonian.beta
    ref = _trajectory(solutions[-1])
    rows: list[dict] = []
    for (n_side, n_steps), sol in zip(levels, solutions):
        row = {"n_side": n_side, "n_steps": n_steps, "h": 1.0 / n_side}
        if ergodic:
            row.update({"dt": 0.0, "lambda": sol.lam})
        else:
            row.update({"dt": sol.u.mesh.dt, "outer_iters": sol.outer_iters})
        if sol is not solutions[-1]:
            row.update(_level_errors(_trajectory(sol), ref, beta, m_exponent))
        if not ergodic and sol.monitors is not None:
            row["monitors"] = {k: v for k, v in sol.monitors.items() if k != "u_mean_path"}
        rows.append(row)
    report = {
        "kind": "ergodic" if ergodic else "evolutive",
        "m_exponent": m_exponent,
        "beta": beta,
        "levels": rows,
    }
    if ergodic:
        lam_values = [r["lambda"] for r in rows]
        report["lambda_increments"] = [abs(b - a) for a, b in zip(lam_values, lam_values[1:])]

    # observed orders between consecutive error-bearing levels
    orders: dict[str, list[float]] = {}
    err_rows = [r for r in rows if "err_m" in r]
    for key in ("err_u_sup", "err_u_w1beta", "err_m"):
        vals = [r[key] for r in err_rows]
        ratios = [
            float(np.log2(a / b)) if a > 0 and b > 0 else float("nan")
            for a, b in zip(vals, vals[1:])
        ]
        if ratios:
            orders[key] = ratios
    report["orders"] = orders
    return report


def _decreasing(vals: Sequence[float], floor: float) -> bool:
    return all(b < a or (a <= floor and b <= floor) for a, b in zip(vals, vals[1:]))


def errors_decreasing(report: dict, floor: float = 1e-8) -> bool:
    """True when every error sequence strictly decreases (roundoff-level
    errors below ``floor`` are exempt, so exact-solution presets pass)."""
    rows = [r for r in report["levels"] if "err_m" in r]
    seqs = [[r[key] for r in rows] for key in ("err_u_sup", "err_u_w1beta", "err_m")]
    if report.get("kind") == "ergodic":
        seqs.append(report.get("lambda_increments", []))
    return all(_decreasing(vals, floor) for vals in seqs)


def write_study(report: dict, outdir: str | Path) -> None:
    """Write study.json plus a plot-ready study.csv."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "study.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    rows = report["levels"]
    # error row k >= 1 carries the order between error rows k - 1 and k
    orders = [""] + report.get("orders", {}).get("err_u_sup", [])

    with (outdir / "study.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "h", "dt", "err_u_sup", "err_u_w1beta", "err_m", "order"])
        err_idx = 0
        for lvl, row in enumerate(rows):
            if "err_u_sup" in row:
                order = orders[err_idx] if err_idx < len(orders) else ""
                writer.writerow(
                    [
                        lvl,
                        f"{row['h']:.17g}",
                        f"{row['dt']:.17g}",
                        f"{row['err_u_sup']:.17g}",
                        f"{row['err_u_w1beta']:.17g}",
                        f"{row['err_m']:.17g}",
                        f"{order:.17g}" if order != "" else "",
                    ]
                )
                err_idx += 1
            else:
                writer.writerow([lvl, f"{row['h']:.17g}", f"{row['dt']:.17g}", "", "", "", ""])
