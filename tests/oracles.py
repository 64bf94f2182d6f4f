"""Reference computations the tests compare the package against.

They live with the tests, not in the package, so that no expected value is
taken from the code under test.
"""

import numpy as np

from mfgfd.dynamics import NonConvergence
from mfgfd.hamiltonian import STENCIL_FLOOR, PowerHamiltonian, hamiltonian_stencil
from mfgfd.torus_grid import STENCIL, laplace_array


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
    """(4, ...) gradient in q: beta |p|^(beta-2) (-p1, p2, -p3, p4), 0 at p = 0."""
    p = _paper_upwind(q)
    s2 = ((p[0] * p[0] + p[1] * p[1]) + p[2] * p[2]) + p[3] * p[3]
    coef = np.zeros_like(s2)
    coef[s2 > 0.0] = ham.beta * s2[s2 > 0.0] ** ((ham.beta - 2.0) / 2.0)
    return np.stack([-(coef * p[0]), coef * p[1], -(coef * p[2]), coef * p[3]])


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
    a = m * paper_gradient(ham, paper_stencil(u))
    t = [
        np.roll(a[0], 1, axis=-2) - a[0],
        a[1] - np.roll(a[1], -1, axis=-2),
        np.roll(a[2], 1, axis=-1) - a[2],
        a[3] - np.roll(a[3], -1, axis=-1),
    ]
    return -((((t[0] + t[1]) + t[2]) + t[3]) / h)


# ---------------------------------------------------------------------------
# the interleaved layout: stencils as (..., N, N, 4) arrays, component last
# ---------------------------------------------------------------------------

def interleaved_stencil(values: np.ndarray) -> np.ndarray:
    """(..., N, N, 4) neighbour differences in ``STENCIL`` order, each
    backward difference the negated shift of its axis' forward one."""
    h = 1.0 / values.shape[-1]
    dp1 = (np.roll(values, -1, axis=-2) - values) / h
    dp2 = (np.roll(values, -1, axis=-1) - values) / h
    return np.stack([dp1, -np.roll(dp1, 1, axis=-2), dp2, -np.roll(dp2, 1, axis=-1)], axis=-1)


def interleaved_floored(values: np.ndarray) -> np.ndarray:
    """``interleaved_stencil`` with |d| <= STENCIL_FLOOR eps max|u| / h set to 0 per slice."""
    h = 1.0 / values.shape[-1]
    d = interleaved_stencil(values)
    scale = np.max(np.abs(values), axis=(-2, -1))[..., None, None, None]
    d[np.abs(d) <= STENCIL_FLOOR * np.finfo(np.float64).eps * scale / h] = 0.0
    return d


def interleaved_laplace(values: np.ndarray) -> np.ndarray:
    """((d1 + d2) + (d3 + d4)) / h of the interleaved stencil."""
    h = 1.0 / values.shape[-1]
    d = interleaved_stencil(values)
    return ((d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3])) / h


def interleaved_value(ham: PowerHamiltonian, d: np.ndarray) -> np.ndarray:
    """potential + |max(-d, 0)|^beta, the squares summed along the last axis."""
    p = np.maximum(-d, 0.0)
    return ham.potential.values + np.sum(p * p, axis=-1) ** (ham.beta / 2.0)


def interleaved_gradient(ham: PowerHamiltonian, d: np.ndarray) -> np.ndarray:
    """-beta |p|^(beta-2) p, p = max(-d, 0), 0 at p = 0; shape (..., 4)."""
    p = np.maximum(-d, 0.0)
    s2 = np.sum(p * p, axis=-1)
    coef = np.zeros_like(s2)
    coef[s2 > 0.0] = ham.beta * s2[s2 > 0.0] ** ((ham.beta - 2.0) / 2.0)
    return -(coef[..., None] * p)


def interleaved_value_operator(ham: PowerHamiltonian, nu: float, u: np.ndarray) -> np.ndarray:
    """-nu Lap_h u + value at the floored stencil."""
    return -nu * interleaved_laplace(u) + interleaved_value(ham, interleaved_floored(u))


def interleaved_five_point_entries(
    ham: PowerHamiltonian, nu: float, u: np.ndarray, shift: float
) -> np.ndarray:
    """(N, N, 5) entries of shift I - nu L + B(u): the node, then its
    neighbours in ``STENCIL`` order."""
    h = 1.0 / u.shape[-1]
    inv_h, inv_h2 = 1.0 / h, 1.0 / h**2
    g = interleaved_gradient(ham, interleaved_floored(u))
    diag = -(((g[..., 0] + g[..., 1]) + g[..., 2]) + g[..., 3])
    centre = shift + (-nu * (-4.0 * inv_h2) + diag * inv_h)
    return np.concatenate([centre[..., None], -nu * inv_h2 + g * inv_h], axis=-1)


def interleaved_transport(ham: PowerHamiltonian, u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """-D^T (m g) with D^T a = sum_k (a_k(x - step_k e_axis_k) - a_k(x)) / h."""
    h = 1.0 / u.shape[-1]
    a = m[..., None] * interleaved_gradient(ham, interleaved_floored(u))
    t = [np.roll(a[..., k], step, axis) - a[..., k] for k, (step, axis) in enumerate(STENCIL)]
    return -((((t[0] + t[1]) + t[2]) + t[3]) / h)


def fstring_grid_csv(values: np.ndarray) -> str:
    """An ``i,j,value`` CSV of an (N, N) array, one f-string per node."""
    n = values.shape[0]
    lines = ["i,j,value"]
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{values[i, j]:.17g}")
    return "\n".join(lines) + "\n"
