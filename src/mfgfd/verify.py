"""Verification suites: inequality checks, identity checks, adjoint checks.

Everything here is seeded through a counter-based generator, so a given
(seed, samples) pair produces identical reports on every run.  The identity
suite exercises the full perturbed-pair balance against two base pairs per
exponent: a closed-form spatially uniform solution (exact for every
exponent) and a solver-produced pair on a smooth preset; tilde pairs are
random trajectories with their defects computed explicitly.  Besides the
roundoff-level gap, the suite asserts the sign structure: both weighted
Bregman terms and the cost pairing stay nonnegative, which is exactly what
breaks under a sign defect in the Hamiltonian gradient.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .cost_ops import DiscreteDensity, LocalCost
from .dynamics import adjoint_check
from .hamiltonian import PowerHamiltonian, inequality_suite
from .solver import (
    EvolutiveProblem,
    FixedPointConfig,
    identity_terms,
    solve_evolutive,
    system_residuals,
)
from .torus_grid import GridField, SpaceTimeField, TimeMesh, TorusGrid

__all__ = [
    "run_lemma_suites",
    "run_identity_suite",
    "run_adjoint_suite",
    "write_report",
]

IDENTITY_GAP_TOL = 1e-10
ADJOINT_TOL = 1e-12


def run_lemma_suites(
    betas: Sequence[float] = (1.5, 2.0, 3.0), samples: int = 1000, seed: int = 0
) -> dict:
    grid = TorusGrid(8)
    reports = []
    for beta in betas:
        ham = PowerHamiltonian(beta, GridField.zeros(grid))
        reports.append(inequality_suite(ham, samples, seed=seed))
    return {"suite": "lemmas", "reports": reports, "pass": all(r["pass"] for r in reports)}


def _uniform_base(mesh: TimeMesh, grid: TorusGrid) -> tuple[SpaceTimeField, SpaceTimeField]:
    """Spatially uniform exact pair for the linear cost: u^n = n dt, m = 1."""
    u = SpaceTimeField(
        mesh, [GridField.constant(grid, n * mesh.dt) for n in range(mesh.n_steps + 1)]
    )
    m = SpaceTimeField.constant(mesh, grid, 1.0)
    return u, m


def run_identity_suite(
    seed: int = 0,
    pairs: int = 100,
    betas: Sequence[float] = (1.5, 2.0, 3.0),
    ham_factory: Optional[Callable[[float, GridField], PowerHamiltonian]] = None,
) -> dict:
    """Perturbed-pair balance on seeded random trajectories.

    Per exponent, checks gap <= 1e-10 * scale for every pair and the
    nonnegativity (to the same tolerance) of the two Bregman terms and the
    cost pairing.  Solver failures on the smooth base count as suite
    failures.  Raises ValueError for ``pairs`` below 1.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    ham_factory = ham_factory or PowerHamiltonian
    grid = TorusGrid(8)
    mesh = TimeMesh(0.5, 5)
    cost = LocalCost.linear()
    rng = np.random.Generator(np.random.Philox(seed))
    reports = []
    for beta in betas:
        ham_zero = ham_factory(beta, GridField.zeros(grid))
        bases = [("uniform", _uniform_base(mesh, grid), ham_zero)]
        error: Optional[str] = None
        try:
            potential = GridField.from_function(
                grid,
                lambda x1, x2: 0.5 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2),
            )
            ham_smooth = ham_factory(beta, potential)
            problem = EvolutiveProblem(
                nu=1.0,
                hamiltonian=ham_smooth,
                cost=cost,
                u0=GridField.zeros(grid),
                mT=DiscreteDensity.uniform(grid),
                mesh=mesh,
                grid=grid,
            )
            sol = solve_evolutive(problem, FixedPointConfig())
            bases.append(("solver", (sol.u, sol.m), ham_smooth))
        except Exception as exc:  # a broken build must fail the suite, not crash it
            error = f"base solve failed: {exc}"

        max_gap_ratio = 0.0
        min_term_ratio = np.inf
        worst_pair = -1
        n = grid.n_side
        for k in range(pairs):
            name, (u, m), ham = bases[k % len(bases)]
            ut_arr = u.stack() + rng.normal(0.0, 0.5, size=(mesh.n_steps + 1, n, n))
            mt_arr = np.abs(m.stack() + rng.normal(0.0, 0.5, size=(mesh.n_steps + 1, n, n)))
            ut = SpaceTimeField.from_array(mesh, grid, ut_arr)
            mt = SpaceTimeField.from_array(mesh, grid, mt_arr)
            pert = system_residuals(ham, 1.0, cost, ut, mt)
            out = identity_terms(ham, 1.0, (u, m), (ut, mt), pert, cost)
            gap_ratio = out["gap"] / out["scale"]
            term_ratio = (
                min(
                    out["terms"]["bregman_base"],
                    out["terms"]["bregman_tilde"],
                    out["terms"]["cost_pairing"],
                )
                / out["scale"]
            )
            if gap_ratio > max_gap_ratio or term_ratio < min_term_ratio:
                worst_pair = k
            max_gap_ratio = max(max_gap_ratio, gap_ratio)
            min_term_ratio = min(min_term_ratio, term_ratio)

        passed = (
            error is None
            and max_gap_ratio <= IDENTITY_GAP_TOL
            and min_term_ratio >= -IDENTITY_GAP_TOL
        )
        reports.append(
            {
                "beta": beta,
                "pairs": pairs,
                "max_gap_ratio": max_gap_ratio,
                "min_term_ratio": None if np.isinf(min_term_ratio) else min_term_ratio,
                "worst_pair": worst_pair,
                "error": error,
                "pass": bool(passed),
            }
        )
    return {
        "suite": "identity",
        "seed": seed,
        "reports": reports,
        "pass": all(r["pass"] for r in reports),
    }


def run_adjoint_suite(seed: int = 0, probes: int = 100) -> dict:
    """Duality of the beta = 2 linearized value and density operators at
    nu = 1, ``probes`` random pairs per side count 4, 8 and 16."""
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    rng = np.random.Generator(np.random.Philox(seed))
    reports = []
    for n in (4, 8, 16):
        grid = TorusGrid(n)
        ham = PowerHamiltonian(2.0, GridField.zeros(grid))
        u = rng.normal(0.0, 1.0, size=(n, n))
        worst = adjoint_check(ham, 1.0, u, probes=probes, seed=seed + n)
        reports.append({"n_side": n, "max_discrepancy": worst, "pass": bool(worst <= ADJOINT_TOL)})
    return {
        "suite": "adjoint",
        "seed": seed,
        "reports": reports,
        "pass": all(r["pass"] for r in reports),
    }


def write_report(report: dict, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def failure_summary(report: dict) -> str:
    """One line naming the first failing check and its worst sample."""
    if report.get("suite") == "lemmas" or "reports" in report:
        for sub in report.get("reports", []):
            for chk in sub.get("checks", []):
                if not chk["pass"]:
                    return (
                        f"{chk['lemma_id']} (beta={sub['beta']}) failed: "
                        f"worst margin {chk['worst_margin']:.3e} at sample {chk['worst_sample']}"
                    )
            if not sub.get("pass", True) and "max_gap_ratio" in sub:
                return (
                    f"identity (beta={sub['beta']}) failed: gap ratio "
                    f"{sub['max_gap_ratio']:.3e}, term ratio {sub['min_term_ratio']}, "
                    f"worst pair {sub['worst_pair']}"
                    + (f", {sub['error']}" if sub.get("error") else "")
                )
            if not sub.get("pass", True) and "max_discrepancy" in sub:
                return (
                    f"adjoint (n_side={sub['n_side']}) failed: discrepancy "
                    f"{sub['max_discrepancy']:.3e}"
                )
    return "failure"
