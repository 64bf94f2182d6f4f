"""Reference computations the tests compare the package against.

They live with the tests, not in the package, so that no expected value is
taken from the code under test.
"""

import numpy as np

from mfgfd.dynamics import NonConvergence
from mfgfd.hamiltonian import PowerHamiltonian, hamiltonian_stencil
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
