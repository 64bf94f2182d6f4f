"""Coupled solvers for the forward-backward and the stationary systems.

The evolutive system couples a forward value sweep (each step implicit in u,
with the cost field frozen from the density trajectory) to a backward
density sweep (each step implicit in m, explicit in u).  An
Anderson-mixed fixed-point iteration on the density trajectory closes the
loop: sweep values forward, sweep densities backward from the terminal
density, then mix the new trajectory with the last few iterates and
their sweep outputs.  The iteration stops once the trajectory change is
below tolerance *and* the defect of both discrete equations at the
candidate pair is at or below the inner target, so the returned solution
genuinely satisfies the scheme, not just a stagnation criterion.  Both
solvers run the same outer iteration, ``_damped_fixed_point``, and supply
only their sweep and their termination gate.

The stationary system adds the unknown effective constant: the value block
is solved by Newton on (u, lambda) with the bordered Jacobian
[[A(u), 1], [h^2 1^T, 0]], the zero-mean row closing the rank deficiency.
The invariant density is the left null vector of that same matrix: one
factorization and one transposed solve give the kernel vector of A(u)^T
(A(u) has zero row sums, so the border unknown is 0).

This module also hosts the exact algebraic checker for the perturbed
two-pair balance: endpoint pairings plus both weighted Bregman terms plus
the cost monotonicity pairing equal the perturbation pairings.  The checker
computes the residuals of *both* pairs, so the balance holds to roundoff
for arbitrary trajectories and reduces to the unperturbed statement when
the base pair solves the scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cost_ops import CostOperator, DiscreteDensity, LocalCost
from .dynamics import (
    HjbStepConfig,
    _clamp_density,
    adjoint_apply,
    fp_step_solve,
    hjb_residual,
    hjb_step_solve,
    linearized_hjb_matrix,
    newton_armijo,
    value_operator,
)
from .hamiltonian import STENCIL_FLOOR, PowerHamiltonian, weighted_bregman_gap
from .linear import LinearSolveContract, LinearSolveError, _DissectedLU, bordered_matrix
from .torus_grid import (
    GridField,
    SpaceTimeField,
    TimeMesh,
    TorusGrid,
    gradient_power_sum,
    time_sum,
)

__all__ = [
    "EvolutiveProblem",
    "ErgodicProblem",
    "FixedPointConfig",
    "EvolutiveSolution",
    "ErgodicSolution",
    "OuterNonConvergence",
    "solve_evolutive",
    "solve_ergodic",
    "system_residuals",
    "identity_terms",
    "evolutive_residuals",
]

INNER_RESIDUAL_TARGET = 1e-9
ANDERSON_DEPTH = 3


class OuterNonConvergence(RuntimeError):
    """Fixed-point iteration stalled; damping or the cost may be at fault."""

    def __init__(self, iters: int, last_change: float):
        super().__init__(
            f"outer iteration did not converge after {iters} sweeps "
            f"(last change {last_change:.3e})"
        )
        self.iters = iters
        self.last_change = last_change


@dataclass
class FixedPointConfig:
    """Outer-iteration controls shared by both solvers.

    ``damping`` is the mixing factor theta of ``_damped_fixed_point``.
    """

    damping: float = 0.5
    outer_tol: float = 1e-9
    max_outer: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not (self.outer_tol > 0 and self.max_outer >= 1):  # NaN too
            raise ValueError("outer_tol must be positive and max_outer >= 1")


@dataclass
class EvolutiveProblem:
    nu: float
    hamiltonian: PowerHamiltonian
    cost: CostOperator
    u0: GridField
    mT: DiscreteDensity
    mesh: TimeMesh
    grid: TorusGrid

    def __post_init__(self) -> None:
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        for f, name in ((self.u0, "u0"), (self.mT.field, "mT"), (self.hamiltonian.potential, "potential")):
            if not f.grid.compatible(self.grid):
                raise ValueError(f"{name} lives on a different grid")
        cost_grid = getattr(self.cost, "grid", None)
        if cost_grid is not None and not cost_grid.compatible(self.grid):
            raise ValueError("cost operator is bound to a different grid")


@dataclass
class ErgodicProblem:
    nu: float
    hamiltonian: PowerHamiltonian
    cost: LocalCost
    grid: TorusGrid

    def __post_init__(self) -> None:
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not isinstance(self.cost, LocalCost):
            raise ValueError("the stationary solver requires a local cost")


@dataclass
class EvolutiveSolution:
    u: SpaceTimeField
    m: SpaceTimeField
    outer_iters: int
    residual_history: list[float]
    monitors: Optional[dict]
    diagnostics: dict = field(default_factory=dict)


@dataclass
class ErgodicSolution:
    u: GridField
    m: DiscreteDensity
    lam: float
    outer_iters: int
    residual_history: list[float]
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the Anderson-mixed outer iteration
# ---------------------------------------------------------------------------

def _damped_fixed_point(
    grid: TorusGrid,
    cfg: FixedPointConfig,
    m: np.ndarray,
    state,
    sweep: Callable,
    gate: Callable,
):
    """Anderson-mixed fixed point on a density array, shared by both solvers.

    ``sweep(m, state)`` returns the new densities and the solver state that
    the gate and the next sweep need; ``state`` seeds the first sweep.  The
    change is the largest h^2-weighted l1 distance over slices.  Once it is
    below ``outer_tol``, ``gate(m_new, state, history, theta, halvings)``
    returns the solution, or None to go on; the gate always sees the exact
    sweep output.  Otherwise, with f = m_new - m and dX, dF the differences
    of the last ANDERSON_DEPTH iterates and residuals f, the next iterate is

        m <- m + theta f - (dX + theta dF) gamma,  gamma = argmin |dF gamma - f|,

    Anderson mixing with mixing factor theta = ``damping`` (Walker & Ni,
    SIAM J. Numer. Anal. 49 (2011)); with no stored differences it is the
    blend m + theta (m_new - m).  Differences of unit-mass slices have zero
    mass, so the mixed iterate keeps the mass of the sweep output.  As a
    safeguard, whenever the change grows from one sweep to the next, theta
    is halved (at most six times in total) and the stored differences are
    dropped; both solvers report the count as ``diagnostics["halvings"]``.
    """
    theta = cfg.damping
    halvings = 0
    prev_change = math.inf
    history: list[float] = []
    dx = np.empty((ANDERSON_DEPTH,) + m.shape)
    df = np.empty_like(dx)
    pairs = 0  # difference pairs written since the last reset
    last = None  # (m, f) of the previous sweep; None after a reset
    for _ in range(cfg.max_outer):
        m_new, state = sweep(m, state)
        f = m_new - m
        change = grid.h ** 2 * float(np.max(np.sum(np.abs(f), axis=(-2, -1))))
        history.append(change)
        if change < cfg.outer_tol:
            sol = gate(m_new, state, history, theta, halvings)
            if sol is not None:
                return sol
        if change > prev_change and halvings < 6:
            theta = theta / 2.0
            halvings += 1
            pairs, last = 0, None
        prev_change = change
        if last is not None:
            slot = pairs % ANDERSON_DEPTH
            np.subtract(m, last[0], out=dx[slot])
            np.subtract(f, last[1], out=df[slot])
            pairs += 1
        last = (m, f)
        k = min(pairs, ANDERSON_DEPTH)
        step = theta * f
        if k:
            gamma = np.linalg.lstsq(df[:k].reshape(k, -1).T, f.ravel())[0]
            step -= np.tensordot(gamma, dx[:k], axes=1)
            step -= theta * np.tensordot(gamma, df[:k], axes=1)
        m = m + step
    raise OuterNonConvergence(cfg.max_outer, history[-1] if history else math.inf)


# ---------------------------------------------------------------------------
# evolutive solver
# ---------------------------------------------------------------------------

def _cost_fields(p: EvolutiveProblem, m: np.ndarray) -> np.ndarray:
    """Costs of density slices 0..N_T-1, one cost application per slice."""
    return np.stack([p.cost.apply(m[n]) for n in range(p.mesh.n_steps)])


def _bellman_sweep(
    p: EvolutiveProblem,
    cost: np.ndarray,
    hjb_cfg: HjbStepConfig,
    contract: LinearSolveContract,
    warm: Optional[np.ndarray],
) -> np.ndarray:
    u = np.empty((p.mesh.n_steps + 1,) + p.u0.values.shape)
    u[0] = p.u0.values
    for n in range(p.mesh.n_steps):
        guess = None if warm is None else warm[n + 1]
        u[n + 1] = hjb_step_solve(
            p.hamiltonian, p.nu, p.mesh.dt, u[n], cost[n], hjb_cfg, contract, guess
        )
    return u


def _fp_sweep(
    p: EvolutiveProblem, u: np.ndarray, contract: LinearSolveContract
) -> tuple[np.ndarray, float]:
    nt = p.mesh.n_steps
    m = np.empty_like(u)
    m[nt] = p.mT.field.values
    clamp_max = 0.0
    for n in range(nt - 1, -1, -1):
        m[n], clamp = fp_step_solve(p.hamiltonian, p.nu, p.mesh.dt, u[n + 1], m[n + 1], contract)
        clamp_max = max(clamp_max, clamp)
    return m, clamp_max


def evolutive_residuals(
    p: EvolutiveProblem, u: np.ndarray, m: np.ndarray
) -> tuple[float, float]:
    """Sup norms of the two defects of ``system_residuals`` along a trajectory pair."""
    a, b = system_residuals(p.hamiltonian, p.nu, p.mesh.dt, p.cost, u, m)
    return float(np.max(np.abs(a))), float(np.max(np.abs(b)))


def solve_evolutive(
    p: EvolutiveProblem,
    cfg: Optional[FixedPointConfig] = None,
    initial_m: Optional[SpaceTimeField] = None,
    hjb_cfg: Optional[HjbStepConfig] = None,
    contract: Optional[LinearSolveContract] = None,
) -> EvolutiveSolution:
    """Anderson-mixed fixed point on the density trajectory.

    Each sweep advances the value function forward with the cost frozen at
    the current densities (the cost entering step n -> n+1 is evaluated at
    slice n), then pulls the density backward from the terminal datum;
    ``_damped_fixed_point`` mixes the next trajectory from the last sweeps.
    The returned densities are the last sweep's output, never a mixture.
    Termination requires the change below ``outer_tol`` and the defects of
    both equations at the candidate pair at or below 1e-9 in sup norm; the
    returned first u-slice is the initial datum and the returned last
    m-slice the terminal density, both exactly.  Since the gate adds
    ``newton_tol`` to the defect, a ``newton_tol`` at or above 1e-9 is a
    ValueError.
    """
    cfg = cfg or FixedPointConfig()
    hjb_cfg = hjb_cfg or HjbStepConfig()
    contract = contract or LinearSolveContract()
    if hjb_cfg.newton_tol >= INNER_RESIDUAL_TARGET:
        raise ValueError(
            f"newton_tol {hjb_cfg.newton_tol:.3e} is not below the inner residual target "
            f"{INNER_RESIDUAL_TARGET:.0e}, so the termination gate could never pass"
        )
    nt = p.mesh.n_steps

    if initial_m is not None:
        if initial_m.mesh.n_steps != nt or not initial_m.grid.compatible(p.grid):
            raise ValueError("initial_m does not match the problem discretization")
        m_start = initial_m.stack()
    else:
        m_start = np.stack([p.mT.field.values] * (nt + 1))

    def sweep(m: np.ndarray, last: Optional[tuple]) -> tuple[np.ndarray, tuple]:
        cost = _cost_fields(p, m)
        u = _bellman_sweep(p, cost, hjb_cfg, contract, None if last is None else last[0])
        m_new, clamp_max = _fp_sweep(p, u, contract)
        return m_new, (u, cost, clamp_max)

    def gate(m_new: np.ndarray, state: tuple, history: list[float], theta: float, halvings: int):
        # candidate return pair is (u, m_new): the density sweep is exact
        # for u, and the value sweep is exact for the *old* densities, so
        # the value defect is the cost mismatch between the trajectories.
        u, cost, clamp_max = state
        mismatch = float(np.max(np.abs(_cost_fields(p, m_new) - cost)))
        if not mismatch + hjb_cfg.newton_tol <= INNER_RESIDUAL_TARGET:
            return None
        hjb_res, fp_res = evolutive_residuals(p, u, m_new)
        monitors = (
            _trajectory_monitors(u, m_new, p.mesh.dt, p.cost, p.hamiltonian.beta)
            if isinstance(p.cost, LocalCost)
            else None
        )
        diagnostics = {
            "hjb_residual": hjb_res,
            "fp_residual": fp_res,
            "max_clamp": clamp_max,
            "final_change": history[-1],
            "theta_final": theta,
            "halvings": halvings,
        }
        return EvolutiveSolution(
            u=SpaceTimeField.from_array(p.mesh, p.grid, u),
            m=SpaceTimeField.from_array(p.mesh, p.grid, m_new),
            outer_iters=len(history),
            residual_history=history,
            monitors=monitors,
            diagnostics=diagnostics,
        )

    return _damped_fixed_point(p.grid, cfg, m_start, None, sweep, gate)


# ---------------------------------------------------------------------------
# ergodic solver
# ---------------------------------------------------------------------------

def _bordered_jacobian(p: ErgodicProblem, u: np.ndarray) -> sp.csr_matrix:
    """[[A(u), 1], [h^2 1^T, 0]] with A(u) = ``linearized_hjb_matrix`` at u."""
    return bordered_matrix(linearized_hjb_matrix(p.hamiltonian, p.nu, u), p.grid.h ** 2)


def _ergodic_hjb_newton(
    p: ErgodicProblem,
    cost: np.ndarray,
    u_init: np.ndarray,
    lam_init: float,
    cfg: HjbStepConfig,
    contract: LinearSolveContract,
) -> tuple[np.ndarray, float]:
    """``newton_armijo`` on (u, lambda), the zero-mean row closing the system."""
    n = p.grid.n_side
    h2 = p.grid.h ** 2

    def residual(x: np.ndarray) -> np.ndarray:
        u = x[:-1].reshape(n, n)
        top = value_operator(p.hamiltonian, p.nu, u) + x[-1] - cost
        return np.concatenate([top.ravel(), [h2 * float(np.sum(u))]])

    def jacobian(x: np.ndarray) -> sp.spmatrix:
        return _bordered_jacobian(p, x[:-1].reshape(n, n))

    start = np.concatenate([u_init.ravel(), [lam_init]])
    x = newton_armijo(residual, jacobian, start, cfg, contract)
    return x[:-1].reshape(n, n), float(x[-1])


def _stationary_density(p: ErgodicProblem, u: np.ndarray, tol: float) -> np.ndarray:
    """Kernel vector of A(u)^T with unit h^2-weighted mass.

    Solves J^T [m; c] = [0; 1] for the bordered Jacobian J of
    ``_ergodic_hjb_newton``: A(u) has zero row sums, so summing the first
    block gives c = 0 and A(u)^T m = 0.  The density is normalized, then
    clamped as the evolutive density step is.  Its residual max|A^T m| must
    be at most ``tol`` or the backward-error floor
    STENCIL_FLOOR eps |A^T|_inf max|m|, whichever is larger; a miss is a
    LinearSolveError.
    """
    n = p.grid.n_side
    a = linearized_hjb_matrix(p.hamiltonian, p.nu, u)
    rhs = np.zeros(n * n + 1)
    rhs[-1] = 1.0
    x = _DissectedLU(bordered_matrix(a, p.grid.h ** 2)).solve(rhs, trans="T")[:-1]
    x, _ = _clamp_density(x / (p.grid.h ** 2 * float(np.sum(x))))
    at = a.T
    residual = float(np.max(np.abs(at @ x)))
    floor = STENCIL_FLOOR * np.finfo(float).eps * spla.norm(at, np.inf) * float(np.max(x))
    if not residual <= max(tol, floor):
        raise LinearSolveError(
            f"stationary density residual {residual:.3e} exceeds max({tol:.3e}, {floor:.3e})"
        )
    return x.reshape(n, n)


def solve_ergodic(
    p: ErgodicProblem,
    cfg: Optional[FixedPointConfig] = None,
    contract: Optional[LinearSolveContract] = None,
    hjb_cfg: Optional[HjbStepConfig] = None,
) -> ErgodicSolution:
    """Anderson-mixed fixed point on the invariant density.

    Each sweep solves the bordered Newton system for (u, lambda), warm
    started from the last sweep, then takes the invariant density from the
    same bordered matrix at the new u; ``_damped_fixed_point`` mixes the
    next density from the last sweeps.  Returns once the density change is
    below tolerance and the three residuals (value equation, stationary
    density equation, and the two normalizations) are at or below 1e-8;
    the density residual may instead sit at the roundoff floor of
    ``_stationary_density``.  The Newton solve runs to min(``newton_tol``,
    a tenth of that target) within ``max_newton`` iterations.
    """
    cfg = cfg or FixedPointConfig()
    contract = contract or LinearSolveContract()
    hjb_cfg = hjb_cfg or HjbStepConfig()
    h2 = p.grid.h ** 2
    residual_target = min(1e-8, 10.0 * cfg.outer_tol)
    newton_cfg = HjbStepConfig(
        newton_tol=min(hjb_cfg.newton_tol, residual_target / 10.0),
        max_newton=hjb_cfg.max_newton,
    )

    shape = (p.grid.n_side, p.grid.n_side)
    m_start = np.ones(shape)
    lam_start = float(h2 * np.sum(p.cost.apply(m_start) - p.hamiltonian.potential.values))

    def sweep(m: np.ndarray, state: tuple) -> tuple[np.ndarray, tuple]:
        u, lam, _ = state
        cost = p.cost.apply(m)
        u, lam = _ergodic_hjb_newton(p, cost, u, lam, newton_cfg, contract)
        m_new = _stationary_density(p, u, tol=residual_target / 10.0)
        return m_new, (u, lam, cost)

    def gate(m_new: np.ndarray, state: tuple, history: list[float], theta: float, halvings: int):
        u, lam, cost = state
        res_hjb = float(np.max(np.abs(p.cost.apply(m_new) - cost)))
        if not res_hjb <= residual_target / 2.0:
            return None
        u_centered = u - h2 * float(np.sum(u))
        dens = DiscreteDensity.normalized(GridField(p.grid, m_new))
        return ErgodicSolution(
            u=GridField(p.grid, u_centered),
            m=dens,
            lam=lam,
            outer_iters=len(history),
            residual_history=history,
            diagnostics={
                **_ergodic_diagnostics(p, u_centered, dens.field.values, lam),
                "halvings": halvings,
            },
        )

    state = (np.zeros(shape), lam_start, None)
    return _damped_fixed_point(p.grid, cfg, m_start, state, sweep, gate)


def _ergodic_diagnostics(p: ErgodicProblem, u: np.ndarray, m: np.ndarray, lam: float) -> dict:
    h2 = p.grid.h ** 2
    res_hjb = value_operator(p.hamiltonian, p.nu, u) + lam - p.cost.apply(m)
    res_fp = adjoint_apply(p.hamiltonian, p.nu, u, m)
    return {
        "hjb_residual": float(np.max(np.abs(res_hjb))),
        "fp_residual": float(np.max(np.abs(res_fp))),
        "u_mean": h2 * float(np.sum(u)),
        "m_mass_defect": abs(h2 * float(np.sum(m)) - 1.0),
    }


# ---------------------------------------------------------------------------
# perturbed-pair identity
# ---------------------------------------------------------------------------

def system_residuals(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    cost: CostOperator,
    u: np.ndarray,
    m: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step defects (a, b) of an arbitrary trajectory pair against the scheme.

    u, m and both defects are (N_T + 1, N, N) arrays; h = 1/N and dt is
    the time step.  Slice n of ``a`` is ``hjb_residual`` of step n -> n+1,
    with the cost at density slice n, and of ``b`` (m[n+1] - m[n])/dt -
    ``adjoint_apply``(u[n+1], m[n]); slice N_T of both is zero.  A pair
    produced by the solver has both near zero; for arbitrary trajectories
    this is exactly the perturbation that makes them solve the perturbed
    system by construction.
    """
    a = np.zeros_like(u)
    b = np.zeros_like(m)
    for n in range(len(u) - 1):
        a[n] = hjb_residual(ham, nu, dt, u[n + 1], u[n], cost.apply(m[n]))
        b[n] = (m[n + 1] - m[n]) / dt - adjoint_apply(ham, nu, u[n + 1], m[n])
    return a, b


def identity_terms(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    sol: tuple[np.ndarray, np.ndarray],
    sol_tilde: tuple[np.ndarray, np.ndarray],
    pert: tuple[np.ndarray, np.ndarray],
    cost: CostOperator,
) -> dict:
    """All terms of the perturbed-pair balance, plus the gap and its scale.

    The balance reads

        endpoint_final + endpoint_initial + bregman_base + bregman_tilde
            + cost_pairing  =  pert_a + pert_b,

    where the perturbation pairings use the given defects (a, b) of the
    tilde pair, as ``system_residuals`` returns them, minus the internally
    recomputed defects of the base pair, so the equality is algebraically
    exact for arbitrary inputs.  When the base pair solves the scheme, its
    defects vanish and this is the classical statement.  ``sol`` and
    ``sol_tilde`` are (u, m) pairs of (N_T + 1, N, N) arrays on the time
    step ``dt``.  All sums are unweighted node sums.
    """
    u, m = sol
    ut, mt = sol_tilde
    nt = len(u) - 1
    pert_a, pert_b = pert
    base_a, base_b = system_residuals(ham, nu, dt, cost, u, m)
    du = u - ut
    dm = m - mt
    dcost = np.stack([cost.apply(m[n]) - cost.apply(mt[n]) for n in range(nt)])
    terms = {
        "endpoint_final": -(1.0 / dt) * float(np.sum(dm[nt] * du[nt])),
        "endpoint_initial": (1.0 / dt) * float(np.sum(dm[0] * du[0])),
        "bregman_base": weighted_bregman_gap(ham, m, u, ut),
        "bregman_tilde": weighted_bregman_gap(ham, mt, ut, u),
        "cost_pairing": time_sum(dcost * dm[:-1]),
        "pert_a": time_sum((pert_a[:-1] - base_a[:-1]) * dm[:-1]),
        "pert_b": time_sum((pert_b[:-1] - base_b[:-1]) * du[1:]),
    }
    lhs = (
        terms["endpoint_final"]
        + terms["endpoint_initial"]
        + terms["bregman_base"]
        + terms["bregman_tilde"]
        + terms["cost_pairing"]
    )
    rhs = terms["pert_a"] + terms["pert_b"]
    scale = sum(abs(v) for v in terms.values()) + 1e-300
    return {"terms": terms, "gap": abs(lhs - rhs), "scale": scale}


# ---------------------------------------------------------------------------
# a priori monitors
# ---------------------------------------------------------------------------

def _trajectory_monitors(
    u: np.ndarray, m: np.ndarray, dt: float, cost: LocalCost, beta: float
) -> dict:
    """Runtime monitors of the a priori bounded quantities for local costs.

    Reports the minimum of u over all slices, the (h^2 dt)-weighted power
    sums of the stencil magnitudes (power ``beta``, the Hamiltonian
    exponent of the run) and of |F(m)|^gamma, the largest h^2-weighted l1
    norm of u, and the path of slice means with its total variation.  Each
    is bounded by a level-independent constant on the smooth presets; the
    tests pin those constants.  ``solve_evolutive`` stores them as
    ``EvolutiveSolution.monitors``.  u and m are (N_T + 1, N, N) arrays on
    the time step ``dt``; h = 1/N.
    """
    h = 1.0 / u.shape[-1]
    h2 = h ** 2
    grad_term = gradient_power_sum(u[1:], beta) * (h2 * dt)
    fvals = cost.f(np.maximum(m[:-1], 0.0))
    cost_term = time_sum(np.abs(fvals) ** cost.gamma) * (h2 * dt)
    means = h2 * np.sum(u, axis=(-2, -1))
    return {
        "u_min": float(np.min(u)),
        "grad_power_total": grad_term,
        "cost_power_total": cost_term,
        "u_l1_max": h2 * float(np.max(np.sum(np.abs(u), axis=(-2, -1)))),
        "u_mean_path": means.tolist(),
        "u_mean_total_variation": float(np.sum(np.abs(np.diff(means)))),
    }
