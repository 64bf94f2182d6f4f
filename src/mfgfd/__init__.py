"""Finite-difference solvers for second-order mean field games on the 2-torus."""

from .torus_grid import (
    TorusGrid,
    GridField,
    TimeMesh,
    SpaceTimeField,
    stencil_array,
    cell_average,
    mass,
)
from .hamiltonian import PowerHamiltonian, upwind_part, weighted_bregman_gap, inequality_suite
from .cost_ops import (
    DiscreteDensity,
    LocalCost,
    BilaplacianCost,
    CostSolveError,
)
from .dynamics import (
    HjbStepConfig,
    NonConvergence,
    PositivityError,
    hjb_residual,
    hjb_step_solve,
    transport_apply,
    linearized_hjb_apply,
    adjoint_apply,
    fp_step_solve,
    adjoint_check,
)
from .linear import LinearSolveContract
from .solver import (
    EvolutiveProblem,
    ErgodicProblem,
    FixedPointConfig,
    EvolutiveSolution,
    ErgodicSolution,
    OuterNonConvergence,
    solve_evolutive,
    solve_ergodic,
    system_residuals,
    identity_terms,
)
from .study import convergence_study, write_study
from .config import RunConfig, ConfigError, load_config

__version__ = "0.1.0"
