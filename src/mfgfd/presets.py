"""Problem presets: potentials, initial costs, terminal densities, costs.

Each input's preset names, builders and parameter rule form one ``Presets``
table, and the config validates through the same tables.  All built-in
presets are smooth on the torus; the terminal densities are bounded below by
a positive constant, produced by exact cell averaging of a smooth positive
density and then renormalized so the discrete mass is 1 to machine precision.
An ``n_side`` or ``n_steps`` override of 0 is refused, not read as "no override".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from .dynamics import HjbStepConfig
from .hamiltonian import PowerHamiltonian
from .linear import LinearSolveContract
from .solver import ErgodicProblem, EvolutiveProblem, FixedPointConfig
from .torus_grid import GridField, TimeMesh, TorusGrid, cell_average, check_finite, load_grid_field

if TYPE_CHECKING:
    from .config import RunConfig

__all__ = [
    "build_evolutive_problem",
    "build_ergodic_problem",
    "solver_settings",
]


@dataclass(frozen=True)
class Presets:
    """One input's presets, name -> builder, the first the default; a field's builders
    take (grid, param, path), and ``check``, the rule of ``param``, holds for every preset."""

    what: str  # the input's name in messages and, for a field, its config key
    builders: dict[str, Callable]
    param: str = ""
    check: Callable[[float], None] = lambda value: None

    @property
    def default(self) -> str:
        return next(iter(self.builders))

    def lookup(self, name: str) -> Callable:
        if name not in self.builders:
            raise ValueError(f"unknown {self.what} preset {name!r}, expected one of {', '.join(self.builders)}")
        return self.builders[name]

    def check_path(self, name: str, path: str | None) -> None:
        if name == "file" and not path:
            raise ValueError(f"{self.what} preset 'file' needs a path")

    def read(self, cfg: RunConfig) -> tuple[str, float, str | None]:
        """The preset name, parameter and file path that ``cfg`` gives this field."""
        return getattr(cfg, self.what), getattr(cfg, f"{self.what}_{self.param}"), getattr(cfg, f"{self.what}_file")

    def build(self, grid: TorusGrid, name: str, param: float, path: str | None = None):
        builder = self.lookup(name)
        self.check_path(name, path)
        self.check(param)
        return builder(grid, param, path)


def _load_matching(what: str, grid: TorusGrid, _param: float, path: str) -> GridField:
    try:
        return load_grid_field(path, grid)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} file {path} cannot be read: {exc}") from None


# The bump's floor exp(-2|kappa|) / I0(kappa)^2 ~ 2 pi |kappa| exp(-4|kappa|) is a
# normal float up to this |kappa|, ~177.1; I0(kappa)^2 overflows from about 359.
BUMP_KAPPA_MAX = np.log(1.0 / sys.float_info.min) / 4.0


def _check_kappa(kappa: float) -> None:
    check_finite("kappa", kappa)
    if abs(kappa) > BUMP_KAPPA_MAX:
        raise ValueError(f"kappa must be at most {BUMP_KAPPA_MAX:.6g} in absolute value, got {kappa}")


def _bump(grid: TorusGrid, kappa: float, _path: None) -> DiscreteDensity:
    """A periodic von Mises-style density centered at (0.5, 0.5), exp(kappa (cos + cos))
    normalized by the Bessel factor I0(kappa)^2; smooth and bounded below by a positive constant."""
    norm = float(np.i0(kappa)) ** 2

    def density(x1, x2):
        return (
            np.exp(kappa * (np.cos(2 * np.pi * (x1 - 0.5)) + np.cos(2 * np.pi * (x2 - 0.5))))
            / norm
        )

    return DiscreteDensity.normalized(cell_average(density, grid))


_AMPLITUDE = partial(check_finite, "amplitude")
HAMILTONIAN_PRESETS = Presets("hamiltonian", {
    "zero": lambda grid, _amplitude, _path: GridField.zeros(grid),
    "sines": lambda grid, amplitude, _path: GridField.from_function(
        grid, lambda x1, x2: amplitude * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
    ),
    "file": partial(_load_matching, "hamiltonian"),
}, "amplitude", _AMPLITUDE)
U0_PRESETS = Presets("u0", {
    "zero": HAMILTONIAN_PRESETS.builders["zero"],
    "cosine": lambda grid, amplitude, _path: GridField.from_function(
        grid, lambda x1, x2: amplitude * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    ),
    "file": partial(_load_matching, "u0"),
}, "amplitude", _AMPLITUDE)
MT_PRESETS = Presets("mT", {
    "uniform": lambda grid, _kappa, _path: DiscreteDensity.uniform(grid),
    "bump": _bump,
    "file": lambda *args: DiscreteDensity.normalized(_load_matching("mT", *args)),
}, "kappa", _check_kappa)
# a local cost is built from alpha, a cost kind from (grid, local preset, alpha)
LOCAL_COSTS = Presets("local cost", {"linear": lambda alpha: LocalCost.linear(), "power": LocalCost.power})
COST_KINDS = Presets("cost", {
    "local": lambda grid, preset, alpha: LOCAL_COSTS.lookup(preset)(alpha),
    "bilaplacian": lambda grid, preset, alpha: BilaplacianCost(grid),
})


# ---------------------------------------------------------------------------
# config -> problem marshalling
# ---------------------------------------------------------------------------

def build_evolutive_problem(cfg: RunConfig, n_side: int | None = None, n_steps: int | None = None) -> EvolutiveProblem:
    grid = TorusGrid(cfg.n_side if n_side is None else n_side)
    return EvolutiveProblem(
        nu=cfg.nu,
        hamiltonian=PowerHamiltonian(cfg.beta, HAMILTONIAN_PRESETS.build(grid, *HAMILTONIAN_PRESETS.read(cfg))),
        cost=COST_KINDS.lookup(cfg.cost_kind)(grid, cfg.cost_local_preset, cfg.cost_local_alpha),
        u0=U0_PRESETS.build(grid, *U0_PRESETS.read(cfg)),
        mT=MT_PRESETS.build(grid, *MT_PRESETS.read(cfg)),
        mesh=TimeMesh(cfg.horizon, cfg.n_steps if n_steps is None else n_steps),
        grid=grid,
    )


def build_ergodic_problem(cfg: RunConfig, n_side: int | None = None) -> ErgodicProblem:
    grid = TorusGrid(cfg.n_side if n_side is None else n_side)
    return ErgodicProblem(
        nu=cfg.nu,
        hamiltonian=PowerHamiltonian(cfg.beta, HAMILTONIAN_PRESETS.build(grid, *HAMILTONIAN_PRESETS.read(cfg))),
        cost=COST_KINDS.lookup(cfg.cost_kind)(grid, cfg.cost_local_preset, cfg.cost_local_alpha),
        grid=grid,
    )


def solver_settings(cfg: RunConfig) -> tuple[FixedPointConfig, HjbStepConfig, LinearSolveContract]:
    fixed = FixedPointConfig(damping=cfg.damping, outer_tol=cfg.outer_tol, max_outer=cfg.max_outer)
    hjb = HjbStepConfig(newton_tol=cfg.newton_tol, max_newton=cfg.max_newton)
    contract = LinearSolveContract(residual_tol=cfg.residual_tol)
    return fixed, hjb, contract
