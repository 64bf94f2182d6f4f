"""Coupling costs: pointwise local costs and the bilaplacian smoothing operator.

A local cost applies a scalar function F to the density node by node.  The
nonlocal cost maps m to the solution w of (Lap_h^2 + I) w = m on the
periodic grid; since the five-point Laplacian is diagonal in the discrete
Fourier basis, the solve is a pair of FFTs against the exact symbol, and
the result doubles as its own oracle (the residual is checked on every
application).  Either cost (``CostOperator``) serves both models, and its
``apply`` is the one place F is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .hamiltonian import roundoff_floor
from .torus_grid import GridField, TorusGrid, check_positive_finite, laplace_array, mass

__all__ = [
    "DiscreteDensity",
    "LocalCost",
    "BilaplacianCost",
    "CostSolveError",
]

MASS_TOL = 1e-12


class CostSolveError(RuntimeError):
    """Nonlocal solve failed its residual contract."""

    def __init__(self, residual: float, limit: float):
        super().__init__(f"smoothing solve residual {residual:.3e} exceeds {limit:.3e}")
        self.residual = residual
        self.limit = limit


def _check_nonnegative(field: GridField) -> None:
    lowest = float(np.min(field.values))
    if not lowest >= 0.0:  # NaN too
        raise ValueError(f"density has a negative or NaN node value {lowest:.3e}")


class DiscreteDensity:
    """Grid field in the discrete probability simplex: nonnegative, h^2-mass 1."""

    def __init__(self, field: GridField):
        _check_nonnegative(field)
        m = mass(field)
        if not abs(m - 1.0) <= MASS_TOL:
            raise ValueError(f"density mass {m!r} deviates from 1 by more than {MASS_TOL}")
        self.field = field

    @classmethod
    def uniform(cls, grid: TorusGrid) -> "DiscreteDensity":
        return cls(GridField.constant(grid, 1.0))

    @classmethod
    def normalized(cls, field: GridField) -> "DiscreteDensity":
        """Rescale a nonnegative field multiplicatively to unit mass.

        Negative, NaN and -inf nodes are refused before the mass is summed,
        so a field holding both infinities is no NaN mass; a +inf node
        gives an infinite mass, which is refused.
        """
        _check_nonnegative(field)
        m = mass(field)
        check_positive_finite("the mass of a field to normalize", m)
        return cls(GridField(field.grid, field.values / m))


@dataclass
class LocalCost:
    """Pointwise cost F(m) with the growth/coercivity constants it certifies.

    The constants mean: m F(m) >= delta |F(m)|^gamma - c1 on [0, inf), and
    F'(m) >= delta_lower * min(m^eta1, m^-eta2) with eta1 > 0, 0 < eta2 < 1.
    F is only defined for nonnegative arguments; ``apply`` clamps inputs
    below at zero (callers gate genuinely negative densities beforehand).
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Optional[Callable[[np.ndarray], np.ndarray]]
    delta: float
    gamma: float
    c1: float
    delta_lower: float
    eta1: float
    eta2: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (self.delta > 0 and self.gamma > 1 and self.c1 >= 0 and self.delta_lower > 0):  # NaN too
            raise ValueError("need delta > 0, gamma > 1, c1 >= 0 and delta_lower > 0")
        if not (self.eta1 > 0 and 0 < self.eta2 < 1):
            raise ValueError("need eta1 > 0 and eta2 in (0, 1)")

    @classmethod
    def linear(cls) -> "LocalCost":
        """F(m) = m: ``power(1.0)`` under its own name (m ** 1.0 is m bit for bit)."""
        return replace(cls.power(1.0), name="linear")

    @classmethod
    def power(cls, alpha: float) -> "LocalCost":
        """F(m) = m^alpha for alpha in (0, 2]; m F = |F|^((1+alpha)/alpha) exactly."""
        if not 0.0 < alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
        return cls(
            f=lambda m, a=alpha: m ** a,
            f_prime=lambda m, a=alpha: a * m ** (a - 1.0),
            delta=1.0,
            gamma=(1.0 + alpha) / alpha,
            c1=0.0,
            delta_lower=alpha,
            eta1=max(alpha - 1.0, 0.5),
            eta2=max(1.0 - alpha, 0.5),
            name=f"power({alpha:g})",
        )

    def apply(self, m: np.ndarray) -> np.ndarray:
        """F at every node of a density slice."""
        return np.asarray(self.f(np.maximum(m, 0.0)), dtype=np.float64)


class BilaplacianCost:
    """Smoothing cost: m -> w with (Lap_h^2 + I) w = m on the periodic grid.

    The symbol of -Lap_h at mode (k, l) is
    mu = (4 - 2 cos(2 pi k / N) - 2 cos(2 pi l / N)) / h^2 >= 0, so the
    solve divides the Fourier coefficients by 1 + mu^2.  Every application
    verifies the defining equation in the sup norm to RESIDUAL_LIMIT
    max(1, max|m|) plus the floor ``roundoff_floor((4/h^2)^2) max|w|``.
    """

    RESIDUAL_LIMIT = 1e-10

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        n = grid.n_side
        k = np.arange(n)
        mu1 = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / grid.h ** 2
        mu = mu1[:, None] + mu1[None, :]
        self._symbol = 1.0 + mu * mu

    def apply(self, m: np.ndarray) -> np.ndarray:
        """w of one (N, N) density slice; a slice of another shape is a ValueError."""
        if m.shape != self._symbol.shape:
            raise ValueError(f"density shape {m.shape} does not match the cost grid")
        h = self.grid.h
        w = np.ascontiguousarray(np.real(np.fft.ifft2(np.fft.fft2(m) / self._symbol)))
        residual = float(np.max(np.abs(laplace_array(laplace_array(w)) + w - m)))
        # recomputing the fourth-order stencil amplifies representation error
        # by ~ (4/h^2)^2 eps, so the gate carries that backward-error floor on
        # top of the data-relative contract
        floor = roundoff_floor((4.0 / h ** 2) ** 2) * float(np.max(np.abs(w)))
        limit = self.RESIDUAL_LIMIT * max(1.0, float(np.max(np.abs(m)))) + floor
        if not residual <= limit:  # NaN too
            raise CostSolveError(residual, limit)
        return w


CostOperator = LocalCost | BilaplacianCost
