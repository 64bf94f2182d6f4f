"""The sparse linear layer of both models: matrices, their LU, checked solves.

Every matrix is a five-point matrix on the lexicographic vector of one
N x N grid, bordered by one unknown in the ergodic Newton step.  Its
pattern depends on N alone, so the index arrays are built once per grid
and cached read-only (``_layout``), their factor order on the first
factorization; an assembly computes only the values, and exact zeros stay
as explicit entries.

Every sparse LU is a ``HeldFactor``, the one LU type: one solve call
holds one, the LU of the last matrix A factored in that solve.  It
factors P A P^T, formed by one gather of the data, with P the
nested-dissection order of the torus grid (``dissection_order``) and
border unknowns last.  SuperLU keeps that column order and pivots with its
default partial pivoting.  On the bordered ergodic Jacobian at N = 128
this halves the LU fill of the default column ordering.

The matrices of one solve differ from iterate to iterate, step to step
and sweep to sweep only in the upwind block, so the held LU is a good
approximate inverse of the current matrix: the value step tries a chord
step with it, and the density steps of both models (the evolutive step
and the ergodic invariant density) refine with it against the exact
transposed matrix.  Every linear solve of a step is ``_solve_checked``,
the one refine-or-factor rule: it refines the held LU against the exact
matrix to within the linear contract the held factor carries and the
caller's target, and only on a miss factors afresh and allows that LU
one refinement step against the contract alone.  A density solve starts
its refinement from the density it replaces, which is usually far closer
to the solution than LU^-1 b of a stale LU (iterative refinement from a
start; Higham, Accuracy and Stability of Numerical Algorithms, ch. 12).
The held LU is dropped before every new factorization, so at most one LU
of a solve is alive outside a factorization.  A step called without a held factor makes a
fresh one and runs the same code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .torus_grid import STENCIL, _shift, check_positive_finite

__all__ = [
    "HeldFactor",
    "LinearSolveContract",
    "LinearSolveError",
    "dissection_order",
    "five_point_matrix",
    "bordered_matrix",
]


@dataclass
class LinearSolveContract:
    """Residual guarantee for every linear solve: |Ax - b|_inf <= tol * |b|_inf."""

    residual_tol: float = 1e-12

    def __post_init__(self) -> None:
        check_positive_finite("residual_tol", self.residual_tol)

    def limit(self, b: np.ndarray) -> float:
        """The largest residual sup norm the contract allows for right-hand side b."""
        return self.residual_tol * max(float(np.max(np.abs(b))), 1e-300)


class LinearSolveError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# nested-dissection order
# ---------------------------------------------------------------------------

# blocks of at most this many nodes are not split further
DISSECTION_LEAF = 16


def dissection_order(n: int) -> np.ndarray:
    """Nested-dissection permutation of the N^2 lexicographic nodes.

    Every wrap-around edge of the periodic five-point stencil touches row 0
    or column 0, so those 2N - 1 nodes separate the torus from an open
    (N-1) x (N-1) grid and are ordered last.  The open grid is bisected
    recursively across its longer side, each separator line ordered after
    both halves; blocks of at most DISSECTION_LEAF nodes keep lexicographic
    order.  Entry k is the node eliminated k-th.
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
    return np.concatenate(parts + [k[0], k[1:, 0]])


# ---------------------------------------------------------------------------
# the cached layout of one grid and the assembly on it
# ---------------------------------------------------------------------------

def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only C-int copies: the index arrays scipy.sparse and SuperLU take."""
    out = tuple(a.astype(np.intc) for a in arrays)
    for a in out:
        a.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Layout:
    """Pattern of the matrices on one grid, and that pattern in factor order.

    ``indptr`` and ``indices`` are the lexicographic CSR pattern;
    ``slots[e]`` is the slot that stencil entry e is summed into (none when
    bordered: no two entries share a slot).
    """

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray | None

    @functools.cached_property
    def factor_order(self) -> tuple[np.ndarray, ...]:
        """(order, inv, pap_indptr, pap_indices, gather), built on first use.

        ``order[k]`` is the unknown eliminated k-th, ``dissection_order``
        with border unknowns last, and ``inv`` its inverse.  ``pap_indptr``
        and ``pap_indices`` are the CSC pattern of P A P^T; its CSC data is
        the CSR data of A gathered by ``gather``.
        """
        size = self.indptr.size - 1
        n = math.isqrt(size)
        order = np.concatenate([dissection_order(n), np.arange(n * n, size)])
        inv = np.empty(size, dtype=np.intc)
        inv[order] = np.arange(size, dtype=np.intc)
        # row and column of every CSR entry of A in P A P^T
        rows = inv[np.repeat(np.arange(size), np.diff(self.indptr))]
        cols = inv[self.indices]
        gather = np.lexsort((rows, cols))  # CSC order: by column, then row
        pap_indptr = np.searchsorted(cols[gather], np.arange(size + 1))
        return _read_only(order, inv, pap_indptr, rows[gather], gather)


@functools.cache
def _layout(n: int, bordered: bool) -> _Layout:
    """The pattern of the N x N five-point matrices, built once per N on first use.

    Unbordered, the source entries are the 5 N^2 stencil entries plane by
    plane, as ``five_point_matrix`` takes them: the node, then its
    neighbours in ``STENCIL`` order, so coinciding neighbours (N <= 2) share
    a slot.  Bordered, one unknown is appended to
    the N^2 nodes (``_with_border``).
    """
    n2 = n * n
    if bordered:
        five = _layout(n, False)
        indices = _with_border(five.indices, np.full(n2, n2), np.arange(n2))
        indptr = np.append(np.arange(n2 + 1) * (five.indices.size // n2 + 1), indices.size)
        return _Layout(*_read_only(indptr, indices), None)
    k = np.arange(n2).reshape(n, n)
    neighbours = [_shift(k, step, axis) for step, axis in STENCIL]
    rows = np.tile(k.ravel(), 5)
    cols = np.stack([k] + neighbours).ravel()
    keys, slots = np.unique(rows * n2 + cols, return_inverse=True)
    indptr, indices = np.searchsorted(keys // n2, np.arange(n2 + 1)), keys % n2
    return _Layout(*_read_only(indptr, indices, slots))


def _with_border(entries: np.ndarray, column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """CSR entries of [[A, column], [row, 0]]: all rows of A are equally long."""
    return np.concatenate([np.column_stack([entries.reshape(row.size, -1), column]).ravel(), row])


def five_point_matrix(entries: np.ndarray) -> sp.csr_matrix:
    """The N^2 x N^2 CSR matrix of the (5, N, N) stencil ``entries``.

    Plane 0 holds the coefficient of every node on itself, plane 1 + k that
    on its neighbour k of ``STENCIL``; coinciding neighbours (N <= 2) are
    summed in stencil order.
    The index arrays are the read-only cached pattern of the grid, shared
    by every matrix of one N.
    """
    n = entries.shape[-1]
    layout = _layout(n, False)
    data = np.bincount(layout.slots, weights=entries.ravel(), minlength=layout.indices.size)
    return sp.csr_matrix((data, layout.indices, layout.indptr), shape=(n * n, n * n))


def bordered_matrix(a: sp.csr_matrix, weight: float) -> sp.csr_matrix:
    """[[A, 1], [weight 1^T, 0]] for a matrix A from ``five_point_matrix``."""
    n2 = a.shape[0]
    layout = _layout(math.isqrt(n2), True)
    data = _with_border(a.data, np.ones(n2), np.full(n2, weight))
    return sp.csr_matrix((data, layout.indices, layout.indptr), shape=(n2 + 1, n2 + 1))


# ---------------------------------------------------------------------------
# factorization and the checked solve
# ---------------------------------------------------------------------------

# refinement steps of a solve with the held LU before it factors afresh
MAX_REFINEMENTS = 8


class HeldFactor:
    """The one sparse LU type: the LU of the last matrix factored in a solve call.

    It carries the solve's ``contract`` (default: ``LinearSolveContract()``),
    which every ``_solve_checked`` through it meets.  ``factor(a)`` drops
    the held LU, then factors a CSR matrix A of
    ``five_point_matrix`` or ``bordered_matrix`` (N read from its size) as
    P A P^T, formed by one gather of its data into the cached factor order,
    and holds that LU as ``lu``; after a failed factorization none is held.
    Any other matrix, a CSC one of A^T too, is a ValueError; a singular one
    is a LinearSolveError.  ``solve(b, trans)`` solves A x = b (trans="N")
    or A^T x = b (trans="T") in the original order.  The counts are
    deterministic: ``factorizations``, chord steps kept (``chord_accepted``)
    and rejected (``chord_rejected``) by ``dynamics.newton_armijo``, and
    ``refinements``, the refinement steps of every solve.
    """

    def __init__(self, contract: LinearSolveContract | None = None) -> None:
        self.contract = contract or LinearSolveContract()
        self.lu = None
        self.factorizations = 0
        self.chord_accepted = 0
        self.chord_rejected = 0
        self.refinements = 0

    def factor(self, a: sp.spmatrix) -> HeldFactor:
        self.lu = None  # at most one LU alive outside a factorization
        size = a.shape[0]
        n = math.isqrt(size)
        layout = _layout(n, size > n * n)
        if not (
            a.format == "csr"
            and np.array_equal(a.indptr, layout.indptr)
            and np.array_equal(a.indices, layout.indices)
        ):
            raise ValueError("matrix is not in CSR form on the cached pattern of its grid")
        self._p, self._inv, pap_indptr, pap_indices, gather = layout.factor_order
        pap = sp.csc_matrix((a.data[gather], pap_indices, pap_indptr), shape=a.shape)
        try:
            self.lu = spla.splu(pap, permc_spec="NATURAL")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveError(f"sparse LU failed: {exc}") from None
        self.factorizations += 1
        return self

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        return self.lu.solve(b[self._p], trans=trans)[self._inv]

    def solve_refined(
        self, a: sp.csr_matrix, b: np.ndarray, limit: float, trans: str = "N",
        steps: int = MAX_REFINEMENTS, x0: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, float]:
        """(x, r): x from the held LU, refined until r = |M x - b|_inf <= ``limit``.

        M is A (trans="N") or A^T (trans="T").  The first iterate is LU^-1 b,
        or x0 - LU^-1 (M x0 - b) from a start ``x0``.  At most ``steps``
        refinement steps x <- x - LU^-1 (M x - b) against M follow; a
        non-finite residual refines to the cap.  With no LU held it is
        (None, inf).
        """
        if self.lu is None:
            return None, math.inf
        m = a if trans == "N" else a.T
        x = self.solve(b, trans) if x0 is None else x0 - self.solve(m @ x0 - b, trans)
        resid = m @ x - b
        for _ in range(steps):
            if float(np.max(np.abs(resid))) <= limit:
                break
            x = x - self.solve(resid, trans)
            self.refinements += 1
            resid = m @ x - b
        return x, float(np.max(np.abs(resid)))

    def counts(self) -> dict:
        return {
            "factorizations": self.factorizations,
            "chord_accepted": self.chord_accepted,
            "chord_rejected": self.chord_rejected,
            "refinements": self.refinements,
        }


def _solve_checked(
    a: sp.csr_matrix, b: np.ndarray, held: HeldFactor, trans: str = "N", target: float = math.inf,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """x with M x = b, M = A (trans="N") or A^T (trans="T"): the refine-or-factor rule.

    The LU ``held`` holds, if any, is refined against the exact M, from the
    start ``x0`` if one is given, until |M x - b|_inf is within both
    ``held.contract`` and ``target``.  Only a miss factors A through
    ``held``, which then holds that LU, and allows it one refinement step
    from LU^-1 b against the contract alone.  A non-finite right-hand
    side, checked before any solve, a singular A and a miss of the fresh
    LU are each a LinearSolveError; a non-finite ``x0`` misses.
    """
    limit = held.contract.limit(b)
    if not math.isfinite(limit):
        raise LinearSolveError("non-finite right-hand side")
    x, r = held.solve_refined(a, b, min(limit, target), trans, x0=x0)
    if not r <= min(limit, target):
        x, r = held.factor(a).solve_refined(a, b, limit, trans, steps=1)
        if not r <= limit:
            raise LinearSolveError(f"linear solve residual {r:.3e} exceeds contract")
    return x
