"""Single time-step operators of the coupled scheme.

The value-function step is semi-implicit Euler: given the current slice and
a frozen cost field, the next slice solves

    (u_next - u_cur)/dt - nu Lap_h u_next + value(x, stencil(u_next)) = cost,

by damped Newton with the exact Jacobian (1/dt) I - nu L + B(u), where B
collects the upwind gradient against the one-sided difference stencils.
Monotonicity of the upwind Hamiltonian makes the Jacobian an M-matrix, so
the sparse direct solve is always well posed and Armijo backtracking on the
residual sup norm gives global progress (the iteration is semismooth at the
gradient kink, where the gradient is extended by zero).

Residual, Jacobian, transport and density matrix all evaluate the
Hamiltonian at ``hamiltonian_stencil(u)``: the one-sided differences of u
with those at or below the roundoff floor 16 eps max|u| / h set to 0.  A
slice that should be constant keeps the roundoff of the previous linear
solve, and for beta < 2 the gradient is not Lipschitz at 0, so without the
floor that roundoff would drive the density off an exact solution.  Since
they share the floored stencil, the Jacobian stays exact and the density
matrix stays the exact transpose.

The density step is implicit: given u_next and the later density slice it
solves

    (1/dt) m_cur - nu Lap_h m_cur - transport(u_next, m_cur) = (1/dt) m_next,

where transport(u, m) = -D^T (m g), with D the stencil of ``torus_grid`` and
g the gradient of the Hamiltonian at the floored stencil of u.
Its matrix is the transpose of the value-step Jacobian at u_next, which is
exactly the adjoint relation the scheme is built on, so the step solves
with the transpose of that Jacobian's LU; column sums of its
advection-diffusion block vanish, so the h^2-weighted mass is conserved to
the linear-solve tolerance, and the M-matrix sign pattern preserves
nonnegativity.  Nonnegative clamping of roundoff-level undershoot (never
below -1e-12) keeps densities in the simplex without hiding real defects.

Every operator takes and returns plain (N, N) float64 arrays, one time
slice each, and reads the grid step of the unit torus from the array as
h = 1/N with N its last axis.

Assembly fills the five stencil entries of every node, the node first and
its neighbours in ``torus_grid.STENCIL`` order; ``linear`` owns their
pattern, the factorization and the checked solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .hamiltonian import PowerHamiltonian, _floor_stencil, hamiltonian_stencil
from .linear import LinearSolveContract, _solve_checked, five_point_matrix
from .torus_grid import STENCIL_SIGNS, _stencil_laplace, laplace_array, stencil_adjoint, stencil_array

__all__ = [
    "HjbStepConfig",
    "NonConvergence",
    "PositivityError",
    "newton_armijo",
    "value_operator",
    "hjb_residual",
    "hjb_step_solve",
    "transport_apply",
    "linearized_hjb_apply",
    "adjoint_apply",
    "linearized_hjb_matrix",
    "hjb_jacobian",
    "fp_step_solve",
    "adjoint_check",
]

CLAMP_LIMIT = 1e-12

# Armijo sufficient-decrease constant and smallest step of ``newton_armijo``
ARMIJO_C = 1e-4
MIN_STEP = 2.0 ** -20


@dataclass
class HjbStepConfig:
    """Tolerance and iteration cap of ``newton_armijo``."""

    newton_tol: float = 1e-11
    max_newton: int = 50

    def __post_init__(self) -> None:
        if not (self.newton_tol > 0 and self.max_newton >= 1):  # NaN too
            raise ValueError("newton_tol must be positive and max_newton >= 1")


class NonConvergence(RuntimeError):
    """Newton failed; usually a too-large dt or degenerate data."""

    def __init__(self, iterations: int, final_residual: float):
        super().__init__(
            f"Newton did not converge after {iterations} iterations "
            f"(residual {final_residual:.3e})"
        )
        self.iterations = iterations
        self.final_residual = final_residual


class PositivityError(RuntimeError):
    """Density undershoot beyond the clamp limit; a real defect, not roundoff."""


# ---------------------------------------------------------------------------
# the five-point operator of both steps
# ---------------------------------------------------------------------------

def _five_point_matrix(
    ham: PowerHamiltonian, nu: float, u: np.ndarray, shift: float
) -> sp.csr_matrix:
    """shift I - nu L + B(u) as a CSR matrix on the lexicographic vector.

    Row (i, j) holds node (i, j), then its neighbours in ``STENCIL`` order.
    B(u) v = g . D v, g the gradient of H at the floored stencil, puts
    sign_k g_k / h on neighbour k and minus their sum on the diagonal: its
    off-diagonals are nonpositive and its rows sum to zero (upwind
    monotonicity).  The entries are bit for bit those of the sparse sums
    shift I - nu (shifts - 4 I) (1/h^2) + (sum of g_k times shift
    differences) (1/h).  Only the values are computed; ``five_point_matrix``
    puts them on the cached pattern of the grid, exact zeros included.
    """
    h = 1.0 / u.shape[-1]
    inv_h, inv_h2 = 1.0 / h, 1.0 / h**2
    sg = ham.grad_grid(hamiltonian_stencil(u)) * STENCIL_SIGNS
    diag = -(((sg[..., 0] + sg[..., 1]) + sg[..., 2]) + sg[..., 3])
    centre = shift + (-nu * (-4.0 * inv_h2) + diag * inv_h)
    data = np.concatenate([centre[..., None], -nu * inv_h2 + sg * inv_h], axis=-1)
    return five_point_matrix(data)


def linearized_hjb_matrix(ham: PowerHamiltonian, nu: float, u: np.ndarray) -> sp.csr_matrix:
    """Advection-diffusion block of the value step: -nu L + B(u)."""
    return _five_point_matrix(ham, nu, u, 0.0)


def hjb_jacobian(ham: PowerHamiltonian, nu: float, dt: float, u: np.ndarray) -> sp.csr_matrix:
    """Jacobian of the value step: (1/dt) I - nu L + B(u)."""
    return _five_point_matrix(ham, nu, u, 1.0 / dt)


# ---------------------------------------------------------------------------
# damped Newton and the value-function step
# ---------------------------------------------------------------------------

def newton_armijo(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], sp.spmatrix],
    x: np.ndarray,
    cfg: HjbStepConfig,
    contract: LinearSolveContract,
) -> np.ndarray:
    """Damped Newton on flat vectors with Armijo backtracking.

    Iterates x <- x + t * delta with jacobian(x) delta = -residual(x),
    halving t from 1 until the residual sup norm r drops to at most
    (1 - ARMIJO_C t) r, and returns x once r <= ``newton_tol``.  Raises
    NonConvergence when t falls below MIN_STEP or ``max_newton``
    iterations cannot reach the tolerance.
    """
    res = residual(x)
    r = float(np.max(np.abs(res)))
    for it in range(cfg.max_newton):
        if r <= cfg.newton_tol:
            return x
        delta = _solve_checked(jacobian(x), -res, contract)
        t = 1.0
        while t >= MIN_STEP:
            trial = x + t * delta
            res_try = residual(trial)
            r_try = float(np.max(np.abs(res_try)))
            if r_try <= (1.0 - ARMIJO_C * t) * r:
                x, res, r = trial, res_try, r_try
                break
            t *= 0.5
        else:
            raise NonConvergence(it + 1, r)
    if r <= cfg.newton_tol:
        return x
    raise NonConvergence(cfg.max_newton, r)


def value_operator(ham: PowerHamiltonian, nu: float, u: np.ndarray) -> np.ndarray:
    """-nu Lap_h u + value(x, hamiltonian_stencil(u)) of both models, from one stencil."""
    q = stencil_array(u)
    lap = _stencil_laplace(q)  # unfloored: the floor below overwrites q
    return -nu * lap + ham.value_grid(_floor_stencil(q, u))


def hjb_residual(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    u_next: np.ndarray,
    u_cur: np.ndarray,
    cost: np.ndarray,
) -> np.ndarray:
    """Defect of the semi-implicit value equation at (u_next, u_cur, cost)."""
    return (u_next - u_cur) / dt + value_operator(ham, nu, u_next) - cost


def hjb_step_solve(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    u_cur: np.ndarray,
    cost: np.ndarray,
    cfg: Optional[HjbStepConfig] = None,
    contract: Optional[LinearSolveContract] = None,
    initial_guess: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Advance the value function one step by ``newton_armijo``.

    Starts from ``initial_guess`` (default: the current slice) and returns
    a new array once the residual sup norm is below ``newton_tol``; raises
    NonConvergence otherwise.  The inputs are not modified.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    cfg = cfg or HjbStepConfig()
    contract = contract or LinearSolveContract()
    shape = u_cur.shape

    def residual(x: np.ndarray) -> np.ndarray:
        return hjb_residual(ham, nu, dt, x.reshape(shape), u_cur, cost).ravel()

    def jacobian(x: np.ndarray) -> sp.spmatrix:
        return hjb_jacobian(ham, nu, dt, x.reshape(shape))

    start = (u_cur if initial_guess is None else initial_guess).flatten()
    return newton_armijo(residual, jacobian, start, cfg, contract).reshape(shape)


# ---------------------------------------------------------------------------
# transport and the implicit density step
# ---------------------------------------------------------------------------

def transport_apply(ham: PowerHamiltonian, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Discrete transport of m along the upwind momentum field of u.

    Defined by duality as -D^T (m g) with g = grad(stencil(u)): the node sum
    of transport(u, m) * w equals minus the sum of m * g . stencil(w) over
    all nodes, for every w.  The sum over all nodes is therefore zero (take
    w = 1), which is the discrete mass conservation.
    """
    if u.shape != m.shape:
        raise ValueError(f"u and m must have one shape, got {u.shape} and {m.shape}")
    return -stencil_adjoint(m[..., None] * ham.grad_grid(hamiltonian_stencil(u)))


def linearized_hjb_apply(
    ham: PowerHamiltonian, nu: float, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Linearization of the stationary value operator at u, applied to v."""
    if u.shape != v.shape:
        raise ValueError(f"u and v must have one shape, got {u.shape} and {v.shape}")
    g, q = ham.grad_grid(hamiltonian_stencil(u)), stencil_array(v)
    return -nu * _stencil_laplace(q) + np.sum(g * q, axis=-1)


def adjoint_apply(ham: PowerHamiltonian, nu: float, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Adjoint of the linearized value operator: -nu Lap m - transport(u, m)."""
    return -nu * laplace_array(m) - transport_apply(ham, u, m)


def _clamp_density(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Zero roundoff-level negative entries of a density, keeping its mass.

    Returns (x, clamp magnitude); raises PositivityError when an entry lies
    below -CLAMP_LIMIT, which is a real defect, not roundoff.
    """
    lowest = float(np.min(x))
    if lowest >= 0.0:
        return x, 0.0
    if lowest < -CLAMP_LIMIT:
        raise PositivityError(
            f"density undershoot {lowest:.3e} below the {-CLAMP_LIMIT:.0e} clamp limit"
        )
    pre_mass = float(np.sum(x))
    x = np.maximum(x, 0.0)
    post_mass = float(np.sum(x))
    if post_mass > 0.0:
        x *= pre_mass / post_mass
    return x, -lowest


def fp_step_solve(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    u_next: np.ndarray,
    m_next: np.ndarray,
    contract: Optional[LinearSolveContract] = None,
) -> tuple[np.ndarray, float]:
    """Step the density backward: (m_cur, clamp magnitude) given u_next and m_next.

    m_cur is a new array; the inputs are not modified.
    """
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    contract = contract or LinearSolveContract()
    a = hjb_jacobian(ham, nu, dt, u_next)
    x, clamp = _clamp_density(_solve_checked(a, m_next.ravel() / dt, contract, trans="T"))
    return x.reshape(m_next.shape), clamp


# ---------------------------------------------------------------------------
# adjoint structure check
# ---------------------------------------------------------------------------

def adjoint_check(
    ham: PowerHamiltonian,
    nu: float,
    u: np.ndarray,
    probes: int = 20,
    seed: int = 0,
) -> float:
    """Largest normalized defect of the adjoint pairing over random probes.

    For probe fields (v, m) compares the node sums of (L_u v) m and v (A_u m),
    where L_u is the linearized value operator and A_u the
    diffusion-transport operator; the two are assembled independently (direct
    stencils vs the transport defined by duality), so agreement to roundoff
    pins the adjoint structure.  Each defect is normalized by
    |L_u v|_2 |m|_2 + |v|_2 |A_u m|_2; the contract is a result <= 1e-12.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(probes):
        v = rng.normal(0.0, 1.0, size=u.shape)
        m = rng.normal(0.0, 1.0, size=u.shape)
        lv = linearized_hjb_apply(ham, nu, u, v)
        am = adjoint_apply(ham, nu, u, m)
        lhs = float(np.sum(lv * m))
        rhs = float(np.sum(v * am))
        scale = (
            float(np.linalg.norm(lv) * np.linalg.norm(m))
            + float(np.linalg.norm(v) * np.linalg.norm(am))
            + 1e-300
        )
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
