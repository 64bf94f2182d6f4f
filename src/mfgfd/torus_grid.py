"""Periodic 2-D grid, field types, finite-difference stencils and sums.

Everything lives on the unit torus [0,1)^2 discretized by a uniform N x N
grid with step h = 1/N.  Node (i, j) sits at (i/N, j/N); differences wrap
periodically.  Fields are stored as (N, N) float64 arrays in C order, which
is the lexicographic (i, j) layout, so ``ravel()`` gives the vector the
sparse solvers use.  The operators take and return these plain arrays; the
field types carry the grid and the time mesh at the problem and solution
boundary.

Sums and norms use numpy reductions, so the reduction order is fixed by the
array layout and results are reproducible run to run.

``dissection_order`` gives the elimination order the sparse factorizations
use: a nested dissection of the periodic grid (George 1973).
"""

from __future__ import annotations

import functools
import json
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
    "stencil_array",
    "laplace_array",
    "dissection_order",
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
        if self.n_side < 1:
            raise ValueError(f"n_side must be a positive integer, got {self.n_side}")

    @property
    def h(self) -> float:
        return 1.0 / self.n_side

    def coords1d(self) -> np.ndarray:
        return np.arange(self.n_side) / self.n_side

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) of node coordinates, indexed [i, j]."""
        c = self.coords1d()
        return np.meshgrid(c, c, indexing="ij")

    def compatible(self, other: "TorusGrid") -> bool:
        return self.n_side == other.n_side


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


@dataclass(frozen=True)
class TimeMesh:
    """Uniform time mesh on [0, T] with N_T steps; t_n = n * dt."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


class SpaceTimeField:
    """N_T + 1 grid fields held in one (N_T + 1, N, N) array ``values``.

    Slice n holds the values at t_n; ``slices[n]`` is a GridField view of
    ``values[n]``, so writes through either are seen by both.
    """

    def __init__(self, mesh: TimeMesh, slices: Sequence[GridField]):
        """Copy a sequence of N_T + 1 grid fields into one array."""
        if len(slices) != mesh.n_steps + 1:
            raise ValueError(
                f"expected {mesh.n_steps + 1} slices, got {len(slices)}"
            )
        grid = slices[0].grid
        for s in slices[1:]:
            if not grid.compatible(s.grid):
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
        self.slices = [GridField(grid, v) for v in values]

    @classmethod
    def from_array(cls, mesh: TimeMesh, grid: TorusGrid, arr: np.ndarray) -> "SpaceTimeField":
        """Wrap a (N_T + 1, N, N) array; a C-contiguous float64 one is not copied."""
        f = cls.__new__(cls)
        f._wrap(mesh, grid, np.ascontiguousarray(arr, dtype=np.float64))
        return f

    @classmethod
    def constant(cls, mesh: TimeMesh, grid: TorusGrid, c: float) -> "SpaceTimeField":
        shape = (mesh.n_steps + 1, grid.n_side, grid.n_side)
        return cls.from_array(mesh, grid, np.full(shape, float(c)))

    def stack(self) -> np.ndarray:
        """Copy of the (N_T + 1, N, N) array of all slices."""
        return self.values.copy()


# ---------------------------------------------------------------------------
# elementary difference operators
# ---------------------------------------------------------------------------

def stencil_array(values: np.ndarray, h: float) -> np.ndarray:
    """One-sided difference stencil of (..., N, N) arrays, shape (..., N, N, 4).

    Component order at node (i, j): forward difference in i at (i, j),
    forward difference in i at (i-1, j), forward difference in j at (i, j),
    forward difference in j at (i, j-1).
    """
    dp1 = (np.roll(values, -1, axis=-2) - values) / h
    dp2 = (np.roll(values, -1, axis=-1) - values) / h
    return np.stack(
        [dp1, np.roll(dp1, 1, axis=-2), dp2, np.roll(dp2, 1, axis=-1)], axis=-1
    )


def laplace_array(values: np.ndarray, h: float) -> np.ndarray:
    """Five-point Laplacian on the trailing two axes of (..., N, N) arrays."""
    return (
        np.roll(values, -1, axis=-2)
        + np.roll(values, 1, axis=-2)
        + np.roll(values, -1, axis=-1)
        + np.roll(values, 1, axis=-1)
        - 4.0 * values
    ) / (h * h)


# ---------------------------------------------------------------------------
# nested-dissection order
# ---------------------------------------------------------------------------

# blocks of at most this many nodes are not split further
DISSECTION_LEAF = 16


@functools.cache
def dissection_order(n: int) -> np.ndarray:
    """Nested-dissection permutation of the N^2 lexicographic nodes.

    Every wrap-around edge of the periodic five-point stencil touches row 0
    or column 0, so those 2N - 1 nodes separate the torus from an open
    (N-1) x (N-1) grid and are ordered last.  The open grid is bisected
    recursively across its longer side, each separator line ordered after
    both halves; blocks of at most DISSECTION_LEAF nodes keep lexicographic
    order.  Entry k is the node eliminated k-th.  The array is built once
    per N and is read-only.
    """
    k = np.arange(n * n).reshape(n, n)
    parts: list[np.ndarray] = []

    def dissect(block: np.ndarray) -> None:
        rows, cols = block.shape
        if block.size <= DISSECTION_LEAF:
            parts.append(block.ravel())
        elif rows >= cols:
            dissect(block[: rows // 2])
            dissect(block[rows // 2 + 1 :])
            parts.append(block[rows // 2])
        else:
            dissect(block[:, : cols // 2])
            dissect(block[:, cols // 2 + 1 :])
            parts.append(block[:, cols // 2])

    dissect(k[1:, 1:])
    order = np.concatenate(parts + [k[0], k[1:, 0]])
    order.flags.writeable = False
    return order


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


def gradient_power_sum(values: np.ndarray, h: float, beta: float) -> float:
    """Sum of the stencil magnitudes |D values|^beta of a (K, N, N) array, in
    ``time_sum`` order; times h^2 dt it is the discrete W^{1,beta} power."""
    d = stencil_array(values, h)
    return time_sum(np.sum(d * d, axis=-1) ** (beta / 2.0))


# ---------------------------------------------------------------------------
# serialization: CSV with an `i,j,value` header plus a JSON sidecar
# ---------------------------------------------------------------------------

def save_grid_field(u: GridField, path: str | Path) -> None:
    path = Path(path)
    n = u.grid.n_side
    lines = ["i,j,value"]
    v = u.values
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{v[i, j]:.17g}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = {"n_side": n, "h": u.grid.h}
    path.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def load_grid_field(path: str | Path) -> GridField:
    """Read a ``save_grid_field`` file; ValueError naming it unless every
    node (i, j) with 0 <= i, j < N appears exactly once."""
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    grid = TorusGrid(int(meta["n_side"]))
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
            if seen[i, j]:
                raise ValueError(f"node ({i}, {j}) appears twice in {path}")
            values[i, j] = v
            seen[i, j] = True
    if not seen.all():
        raise ValueError(f"{path} misses {n * n - int(np.sum(seen))} of {n * n} nodes")
    return GridField(grid, values)
