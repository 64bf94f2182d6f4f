"""Reference computations the tests compare the package against.

They live with the tests, not in the package, so that no expected value is
taken from the code under test.
"""

import numpy as np

from mfgfd.dynamics import NonConvergence
from mfgfd.hamiltonian import STENCIL_FLOOR, PowerHamiltonian, hamiltonian_stencil
from mfgfd.torus_grid import laplace_array


def hjb_step_picard(
    ham: PowerHamiltonian,
    nu: float,
    dt: float,
    u_cur: np.ndarray,
    cost: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200000,
) -> np.ndarray:
    """Fixed-point iteration u <- u_cur + dt (nu Lap u - value + cost).

    Independent cross-check of the Newton path; contracts only when dt is
    small against nu / h^2, so it is a small-step oracle, not a solver.
    """
    h = 1.0 / u_cur.shape[-1]
    u = u_cur
    for _ in range(max_iter):
        lap = laplace_array(u)
        gval = ham.value_grid(hamiltonian_stencil(u))
        new = u_cur + dt * (nu * lap - gval + cost)
        change = float(np.max(np.abs(new - u)))
        u = new
        if change <= tol:
            return u
    raise NonConvergence(max_iter, change)


# ---------------------------------------------------------------------------
# the paper's convention: q = (D1+ u, D1- u, D2+ u, D2- u), p = (q1^-, q2^+, q3^-, q4^+)
# ---------------------------------------------------------------------------

def paper_stencil(u: np.ndarray, floor: bool = True) -> list[np.ndarray]:
    """[q1, q2, q3, q4] = (D1+ u, D1- u, D2+ u, D2- u) of (..., N, N) slices by
    ``np.roll``, h = 1/N; with ``floor``, every |q_k| at or below
    STENCIL_FLOOR eps max|u| / h of its slice is set to 0."""
    h = 1.0 / u.shape[-1]
    q = [
        (np.roll(u, -1, axis=-2) - u) / h,
        (u - np.roll(u, 1, axis=-2)) / h,
        (np.roll(u, -1, axis=-1) - u) / h,
        (u - np.roll(u, 1, axis=-1)) / h,
    ]
    if floor:
        scale = np.max(np.abs(u), axis=(-2, -1), keepdims=True)
        limit = STENCIL_FLOOR * np.finfo(np.float64).eps * scale / h
        q = [np.where(np.abs(qk) <= limit, 0.0, qk) for qk in q]
    return q


def _paper_upwind(q: list[np.ndarray]) -> list[np.ndarray]:
    return [np.maximum(x, 0.0) for x in (-q[0], q[1], -q[2], q[3])]


def paper_value(ham: PowerHamiltonian, q: list[np.ndarray]) -> np.ndarray:
    """potential + |p|^beta with p = (q1^-, q2^+, q3^-, q4^+)."""
    p = _paper_upwind(q)
    s2 = ((p[0] * p[0] + p[1] * p[1]) + p[2] * p[2]) + p[3] * p[3]
    return ham.potential.values + s2 ** (ham.beta / 2.0)


def paper_gradient(ham: PowerHamiltonian, q: list[np.ndarray]) -> np.ndarray:
    """(..., 4) gradient in q: beta |p|^(beta-2) (-p1, p2, -p3, p4), 0 at p = 0."""
    p = _paper_upwind(q)
    s2 = ((p[0] * p[0] + p[1] * p[1]) + p[2] * p[2]) + p[3] * p[3]
    coef = np.zeros_like(s2)
    coef[s2 > 0.0] = ham.beta * s2[s2 > 0.0] ** ((ham.beta - 2.0) / 2.0)
    return np.stack([-(coef * p[0]), coef * p[1], -(coef * p[2]), coef * p[3]], axis=-1)


def paper_value_operator(ham: PowerHamiltonian, nu: float, u: np.ndarray) -> np.ndarray:
    """-nu Lap_h u + value, Lap_h u = ((D1+ u - D1- u) + (D2+ u - D2- u)) / h."""
    h = 1.0 / u.shape[-1]
    q = paper_stencil(u, floor=False)
    lap = ((q[0] - q[1]) + (q[2] - q[3])) / h
    return -nu * lap + paper_value(ham, paper_stencil(u))


def paper_transport(ham: PowerHamiltonian, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Transport of m along u: minus the adjoint of q applied to a = m g, g the
    gradient at the floored q of u, so the node sum of its product with w is
    minus that of a . q(w)."""
    h = 1.0 / u.shape[-1]
    a = m[..., None] * paper_gradient(ham, paper_stencil(u))
    t = [
        np.roll(a[..., 0], 1, axis=-2) - a[..., 0],
        a[..., 1] - np.roll(a[..., 1], -1, axis=-2),
        np.roll(a[..., 2], 1, axis=-1) - a[..., 2],
        a[..., 3] - np.roll(a[..., 3], -1, axis=-1),
    ]
    return -((((t[0] + t[1]) + t[2]) + t[3]) / h)
