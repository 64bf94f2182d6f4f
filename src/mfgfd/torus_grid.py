"""Periodic 2-D grid, field types, finite-difference stencils and sums.

Everything lives on the unit torus [0,1)^2 discretized by a uniform N x N
grid with step h = 1/N.  Node (i, j) sits at (i/N, j/N); differences wrap
periodically.  Fields are stored as (N, N) float64 arrays in C order, which
is the lexicographic (i, j) layout, so ``ravel()`` gives the vector the
sparse solvers use.  The operators take and return these plain arrays and
read h = 1/N from their trailing axes; the field types carry the grid and the
time mesh at the problem and solution boundary.

The module owns the five-point stencil: ``STENCIL`` lists the step and axis
of its four neighbour differences d_k = (u(x + step_k e_axis_k) - u(x)) / h,
``stencil_array`` applies it (D) and ``stencil_adjoint`` its transpose
(D^T).  The Laplacian, the transport and the matrices of the package all
read it from here.  In the paper's notation q = (D1+ u, D1- u, D2+ u, D2- u)
the stencil is d = (q1, -q2, q3, -q4): negation is exact in float64, so the
two conventions hold the same numbers up to sign.

Sums and norms use numpy reductions, so the reduction order is fixed by the
array layout and results are reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "GridField",
    "TimeMesh",
    "SpaceTimeField",
    "check_finite",
    "check_positive_finite",
    "check_positive_int",
    "STENCIL",
    "stencil_array",
    "stencil_adjoint",
    "laplace_array",
    "cell_average",
    "mass",
    "time_sum",
    "gradient_power_sum",
    "save_grid_field",
    "load_grid_field",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N x N grid on the unit torus.

    Coordinates are always produced as i / n_side (exact for the
    power-of-two sizes used in practice), never accumulated, so the
    identity h * n_side = 1 holds in the representation used for
    coordinates.
    """

    n_side: int

    def __post_init__(self) -> None:
        check_positive_int("n_side", self.n_side)

    @property
    def h(self) -> float:
        return 1.0 / self.n_side

    def coords1d(self) -> np.ndarray:
        return np.arange(self.n_side) / self.n_side

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) of node coordinates, indexed [i, j]."""
        c = self.coords1d()
        return np.meshgrid(c, c, indexing="ij")


@dataclass
class GridField:
    """Real-valued function on the periodic grid.

    ``values`` has shape (n_side, n_side); ``values.ravel()`` is the
    lexicographic (i, j) vector used by the sparse solvers.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        n = self.grid.n_side
        if v.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {v.shape}")
        self.values = np.ascontiguousarray(v)

    @classmethod
    def zeros(cls, grid: TorusGrid) -> "GridField":
        return cls(grid, np.zeros((grid.n_side, grid.n_side)))

    @classmethod
    def constant(cls, grid: TorusGrid, c: float) -> "GridField":
        return cls(grid, np.full((grid.n_side, grid.n_side), float(c)))

    @classmethod
    def from_function(cls, grid: TorusGrid, f: Callable) -> "GridField":
        """Nodal samples of a vectorized callable f(x1, x2)."""
        x1, x2 = grid.node_coords()
        return cls(grid, np.asarray(f(x1, x2), dtype=np.float64))


def check_finite(name: str, value: float) -> None:
    """ValueError naming ``name`` unless value is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value}")


def check_positive_finite(name: str, value: float) -> None:
    """ValueError naming ``name`` unless 0 < value < inf; NaN fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_positive_int(name: str, value: int) -> None:
    """ValueError naming ``name`` unless value is an integer >= 1; 2.5 and NaN fail too."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


@dataclass(frozen=True)
class TimeMesh:
    """Uniform time mesh on [0, T] with N_T steps; t_n = n * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        check_positive_finite("horizon", self.horizon)
        check_positive_int("n_steps", self.n_steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


class SpaceTimeField:
    """N_T + 1 grid fields held in one (N_T + 1, N, N) array ``values``.

    Slice n holds the values at t_n.
    """

    def __init__(self, mesh: TimeMesh, slices: Sequence[GridField]):
        """Copy a sequence of N_T + 1 grid fields into one array."""
        if len(slices) != mesh.n_steps + 1:
            raise ValueError(
                f"expected {mesh.n_steps + 1} slices, got {len(slices)}"
            )
        grid = slices[0].grid
        for s in slices[1:]:
            if s.grid != grid:
                raise ValueError(f"grid mismatch: n_side {grid.n_side} vs {s.grid.n_side}")
        self._wrap(mesh, grid, np.stack([s.values for s in slices]))

    def _wrap(self, mesh: TimeMesh, grid: TorusGrid, values: np.ndarray) -> None:
        n = grid.n_side
        if values.shape != (mesh.n_steps + 1, n, n):
            raise ValueError(
                f"expected shape {(mesh.n_steps + 1, n, n)}, got {values.shape}"
            )
        self.mesh = mesh
        self.grid = grid
        self.values = values

    @classmethod
    def from_array(cls, mesh: TimeMesh, grid: TorusGrid, arr: np.ndarray) -> "SpaceTimeField":
        """Wrap a (N_T + 1, N, N) array; a C-contiguous float64 one is not copied."""
        f = cls.__new__(cls)
        f._wrap(mesh, grid, np.ascontiguousarray(arr, dtype=np.float64))
        return f

    def stack(self) -> np.ndarray:
        """Copy of the (N_T + 1, N, N) array of all slices."""
        return self.values.copy()


# ---------------------------------------------------------------------------
# elementary difference operators
# ---------------------------------------------------------------------------

def _shift(values: np.ndarray, step: int, axis: int) -> np.ndarray:
    """``values`` with entry i along ``axis`` taken from i + step (mod N), step = +-1."""
    lead = (slice(None),) * (axis % values.ndim)
    head, tail = values[lead + (slice(step, None),)], values[lead + (slice(None, step),)]
    return np.concatenate([head, tail], axis=axis)


# The five-point stencil D as (step, axis) of each neighbour difference:
# component k at node x is (u(x + step_k e_axis_k) - u(x)) / h, where axis -2
# is the index i, -1 the index j, and x + step_k e_axis_k is neighbour k.
STENCIL = ((1, -2), (-1, -2), (1, -1), (-1, -1))


def stencil_array(values: np.ndarray) -> np.ndarray:
    """D values: the (..., N, N, 4) neighbour differences of (..., N, N) arrays
    in ``STENCIL`` order, h = 1/N."""
    h = 1.0 / values.shape[-1]
    dp1 = (_shift(values, 1, -2) - values) / h
    dp2 = (_shift(values, 1, -1) - values) / h
    return np.stack([dp1, -_shift(dp1, -1, -2), dp2, -_shift(dp2, -1, -1)], axis=-1)


def stencil_adjoint(a: np.ndarray) -> np.ndarray:
    """D^T a of (..., N, N, 4) arrays, shape (..., N, N): the node sum of
    stencil_adjoint(a) * w equals that of a . stencil_array(w) for every w."""
    h = 1.0 / a.shape[-2]
    t = [_shift(a[..., k], -step, ax) - a[..., k] for k, (step, ax) in enumerate(STENCIL)]
    return (((t[0] + t[1]) + t[2]) + t[3]) / h


def _stencil_laplace(d: np.ndarray) -> np.ndarray:
    """Five-point Laplacian ((d1 + d2) + (d3 + d4)) / h of a ``stencil_array`` d."""
    h = 1.0 / d.shape[-2]
    return ((d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3])) / h


def laplace_array(values: np.ndarray) -> np.ndarray:
    """Five-point Laplacian on the trailing two axes of (..., N, N) arrays, h = 1/N."""
    return _stencil_laplace(stencil_array(values))


# ---------------------------------------------------------------------------
# cell averages
# ---------------------------------------------------------------------------

_GAUSS3_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def cell_average(sampler: Callable, grid: TorusGrid) -> GridField:
    """Cell means of a continuous density over the h x h cells.

    Uses a fixed 3x3 tensor Gauss rule per cell (degree 5 in each
    direction), which is exact for the smooth presets at the tolerances
    used in the tests.  ``sampler`` must accept vectorized (x1, x2).
    """
    h = grid.h
    x1, x2 = grid.node_coords()
    w2d = np.outer(_GAUSS3_WEIGHTS, _GAUSS3_WEIGHTS) / 4.0
    w2d = w2d / w2d.sum()  # cell means of constants are exact
    out = np.zeros_like(x1)
    for a in range(3):
        for b in range(3):
            pts1 = x1 + 0.5 * h * _GAUSS3_NODES[a]
            pts2 = x2 + 0.5 * h * _GAUSS3_NODES[b]
            out += w2d[a, b] * np.asarray(sampler(pts1, pts2), dtype=np.float64)
    return GridField(grid, out)


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------

def mass(u: GridField) -> float:
    """h^2-weighted total: h^2 * sum of node values."""
    return float(u.grid.h ** 2 * np.sum(u.values))


def time_sum(values: np.ndarray) -> float:
    """Total of a (K, N, N) array: node sums per slice, added in time order.

    Slice totals are accumulated left to right, as a loop over the slices
    adds them, so whole-array callers reproduce per-slice sums bit for bit.
    """
    return float(np.cumsum(np.sum(values, axis=(-2, -1)))[-1])


def gradient_power_sum(values: np.ndarray, beta: float) -> float:
    """Sum of the stencil magnitudes |D values|^beta of a (K, N, N) array, in
    ``time_sum`` order; times h^2 dt it is the discrete W^{1,beta} power."""
    d = stencil_array(values)
    return time_sum(np.sum(d * d, axis=-1) ** (beta / 2.0))


# ---------------------------------------------------------------------------
# serialization: CSV with an `i,j,value` header
# ---------------------------------------------------------------------------

def save_grid_field(u: GridField, path: str | Path) -> None:
    n = u.grid.n_side
    lines = ["i,j,value"]
    v = u.values
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{v[i, j]:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_grid_field(path: str | Path, grid: TorusGrid) -> GridField:
    """Read a ``save_grid_field`` file onto ``grid``; ValueError naming it unless
    every node (i, j) with 0 <= i, j < N appears exactly once with a finite value."""
    path = Path(path)
    n = grid.n_side
    values = np.zeros((n, n))
    seen = np.zeros((n, n), dtype=bool)
    with path.open() as fh:
        header = fh.readline()
        if header.strip() != "i,j,value":
            raise ValueError(f"unexpected header in {path}: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            try:
                si, sj, sv = line.split(",")
                i, j, v = int(si), int(sj), float(sv)
            except ValueError:
                raise ValueError(f"malformed row {line.strip()!r} in {path}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"node ({i}, {j}) in {path} is outside the {n} x {n} grid")
            if not math.isfinite(v):
                raise ValueError(f"node ({i}, {j}) in {path} holds the non-finite value {v}")
            if seen[i, j]:
                raise ValueError(f"node ({i}, {j}) appears twice in {path}")
            values[i, j] = v
            seen[i, j] = True
    if not seen.all():
        raise ValueError(f"{path} misses {n * n - int(np.sum(seen))} of {n * n} nodes (n_side {n})")
    return GridField(grid, values)
