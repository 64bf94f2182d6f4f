"""Problem presets: potentials, initial costs, terminal densities.

All built-in presets are smooth on the torus; the terminal densities are
bounded below by a positive constant, produced by exact cell averaging of
a smooth positive density and then renormalized so the discrete mass is 1
to machine precision.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .cost_ops import BilaplacianCost, CostOperator, DiscreteDensity, LocalCost
from .dynamics import HjbStepConfig
from .hamiltonian import PowerHamiltonian
from .linear import LinearSolveContract
from .solver import ErgodicProblem, EvolutiveProblem, FixedPointConfig
from .torus_grid import GridField, TimeMesh, TorusGrid, cell_average, check_finite, load_grid_field

__all__ = [
    "hamiltonian_preset",
    "u0_preset",
    "terminal_density_preset",
    "cost_preset",
    "build_evolutive_problem",
    "build_ergodic_problem",
    "solver_settings",
]


def _load_matching(path: str | None, grid: TorusGrid, what: str) -> GridField:
    if not path:
        raise ValueError(f"{what} preset 'file' needs a path")
    try:
        f = load_grid_field(path)
    except OSError as exc:
        raise ValueError(f"{what} file {path} cannot be read: {exc}") from None
    if f.grid != grid:
        raise ValueError(
            f"{what} file {path} has n_side {f.grid.n_side}, expected {grid.n_side}"
        )
    return f


def hamiltonian_preset(
    name: str, grid: TorusGrid, amplitude: float = 1.0, path: str | None = None
) -> GridField:
    """Nodal samples of the potential: `zero`, `sines`, or `file`."""
    if name == "zero":
        return GridField.zeros(grid)
    if name == "sines":
        check_finite("amplitude", amplitude)
        return GridField.from_function(
            grid,
            lambda x1, x2: amplitude * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2),
        )
    if name == "file":
        return _load_matching(path, grid, "hamiltonian")
    raise ValueError(f"unknown hamiltonian preset {name!r}")


def u0_preset(
    name: str, grid: TorusGrid, amplitude: float = 1.0, path: str | None = None
) -> GridField:
    """Nodal samples of the initial cost: `zero`, `cosine`, or `file`."""
    if name == "zero":
        return GridField.zeros(grid)
    if name == "cosine":
        check_finite("amplitude", amplitude)
        return GridField.from_function(
            grid,
            lambda x1, x2: amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
        )
    if name == "file":
        return _load_matching(path, grid, "u0")
    raise ValueError(f"unknown u0 preset {name!r}")


def terminal_density_preset(
    name: str, grid: TorusGrid, kappa: float = 2.0, path: str | None = None
) -> DiscreteDensity:
    """Cell averages of the terminal density: `uniform`, `bump`, or `file`.

    The bump is a periodic von Mises-style density centered at (0.5, 0.5),
    exp(kappa (cos + cos)) normalized by the Bessel factor I0(kappa)^2; it
    is smooth and bounded below by a positive constant.
    """
    if name == "uniform":
        return DiscreteDensity.uniform(grid)
    if name == "bump":
        check_finite("kappa", kappa)
        norm = float(np.i0(kappa)) ** 2

        def density(x1, x2):
            return (
                np.exp(kappa * (np.cos(2 * np.pi * (x1 - 0.5)) + np.cos(2 * np.pi * (x2 - 0.5))))
                / norm
            )

        averaged = cell_average(density, grid)
        return DiscreteDensity.normalized(averaged)
    if name == "file":
        return DiscreteDensity.normalized(_load_matching(path, grid, "mT"))
    raise ValueError(f"unknown mT preset {name!r}")


def cost_preset(kind: str, grid: TorusGrid, local_preset: str = "linear", alpha: float = 1.0) -> CostOperator:
    if kind == "bilaplacian":
        return BilaplacianCost(grid)
    if kind == "local":
        if local_preset == "linear":
            return LocalCost.linear()
        if local_preset == "power":
            return LocalCost.power(alpha)
        raise ValueError(f"unknown local cost preset {local_preset!r}")
    raise ValueError(f"unknown cost kind {kind!r}")


# ---------------------------------------------------------------------------
# config -> problem marshalling
# ---------------------------------------------------------------------------

def _hamiltonian_from(cfg: RunConfig, grid: TorusGrid) -> PowerHamiltonian:
    potential = hamiltonian_preset(
        cfg.hamiltonian, grid, amplitude=cfg.hamiltonian_amplitude, path=cfg.hamiltonian_file
    )
    return PowerHamiltonian(cfg.beta, potential)


def build_evolutive_problem(cfg: RunConfig, n_side: int | None = None, n_steps: int | None = None) -> EvolutiveProblem:
    grid = TorusGrid(n_side or cfg.n_side)
    return EvolutiveProblem(
        nu=cfg.nu,
        hamiltonian=_hamiltonian_from(cfg, grid),
        cost=cost_preset(cfg.cost_kind, grid, cfg.cost_local_preset, cfg.cost_local_alpha),
        u0=u0_preset(cfg.u0, grid, amplitude=cfg.u0_amplitude, path=cfg.u0_file),
        mT=terminal_density_preset(cfg.mT, grid, kappa=cfg.mT_kappa, path=cfg.mT_file),
        mesh=TimeMesh(cfg.horizon, n_steps or cfg.n_steps),
        grid=grid,
    )


def build_ergodic_problem(cfg: RunConfig, n_side: int | None = None) -> ErgodicProblem:
    grid = TorusGrid(n_side or cfg.n_side)
    return ErgodicProblem(
        nu=cfg.nu,
        hamiltonian=_hamiltonian_from(cfg, grid),
        cost=cost_preset(cfg.cost_kind, grid, cfg.cost_local_preset, cfg.cost_local_alpha),
        grid=grid,
    )


def solver_settings(cfg: RunConfig) -> tuple[FixedPointConfig, HjbStepConfig, LinearSolveContract]:
    fixed = FixedPointConfig(damping=cfg.damping, outer_tol=cfg.outer_tol, max_outer=cfg.max_outer)
    hjb = HjbStepConfig(newton_tol=cfg.newton_tol, max_newton=cfg.max_newton)
    contract = LinearSolveContract(residual_tol=cfg.residual_tol)
    return fixed, hjb, contract
