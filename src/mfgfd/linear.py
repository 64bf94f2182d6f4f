"""The sparse linear layer of both models: matrices, their held inverses, checked solves.

Every matrix is a five-point matrix on the lexicographic vector of one
N x N grid, bordered by one unknown in the ergodic Newton step.  Its
pattern depends on N alone, so the index arrays are built once per grid
and cached read-only (``_layout``), their factor order on the first
factorization; an assembly computes only the values, and exact zeros stay
as explicit entries.

Every held inverse is a ``HeldFactor``: one solve call holds one, the
exact inverse of the last matrix A factored in that solve.  A matrix of
constant coefficients (``_constant_inverse``: N >= 3, one value on every
node's own entry and one on every neighbour entry; bordered, zero row
sums, a border column of ones and a constant border row) is held as its
DFT inverse, applied by two real 2-D FFTs with no sparse LU.  The
Jacobian at a constant u with a zero upwind part is such a matrix, so the
ergodic solve, whose Newton start is u = 0, holds the DFT inverse of the
bordered Laplacian.  Every other matrix, and every one at N <= 2, is held
as the SuperLU LU of P A P^T, formed by one gather of the data, with P the
nested-dissection order of the torus grid (``dissection_order``) and
border unknowns last.  SuperLU keeps that column order and pivots with its
default partial pivoting.  On the bordered ergodic Jacobian at N = 128
this halves the LU fill of the default column ordering.  "The held LU"
below is either inverse.

The matrices of one solve differ from iterate to iterate, step to step
and sweep to sweep only in the upwind block, so the held LU is a good
approximate inverse of the current matrix: the value step tries a chord
step with it, and the density steps of both models refine with it
against the exact transposed matrix (``_solve_checked``, the one
refine-or-factor rule), from the density they replace (iterative
refinement from a start; Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12; that start more than halves the bilaplacian preset's
refinement steps at N_h = 32), to within the contract the held factor
carries and the caller's target; a start that meets both costs no
triangular solve.  Only a miss solves by ``_fresh_solve``, as every Newton step of a value
solve does: A factored afresh and held, LU^-1 b refined against A in the
same loop to the contract alone, a miss of which is a LinearSolveError.
So every factorization is made here, and every solve refines in
``HeldFactor.solve_refined``, which stops as soon as its own residuals
show a miss: a non-finite residual, a step that does not cut the
residual, or a rate that, kept for the steps left under MAX_REFINEMENTS,
cannot reach the target (the stop test of iterative refinement, ibid.).
The held LU is dropped before every new factorization, so at most one LU
of a solve is alive outside a factorization.  A step called without a
held factor makes a fresh one and runs the same code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hamiltonian import roundoff_floor
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
        """The largest residual sup norm allowed for b; a non-finite b is a LinearSolveError."""
        limit = self.residual_tol * max(float(np.max(np.abs(b))), 1e-300)
        if not math.isfinite(limit):
            raise LinearSolveError("non-finite right-hand side")
        return limit


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

    @functools.cached_property
    def stencil_slots(self) -> tuple[np.ndarray, ...]:
        """(diagonal, neighbours, border column): data slots, built on first use.

        The slots of every node's entry on itself, on its four neighbours
        (distinct at N >= 3) and in the border column (none unbordered),
        each in ascending order.  They come from the five-point ``slots``:
        a bordered row r is five-point row r, then its border entry.
        """
        size = self.indptr.size - 1
        n2 = math.isqrt(size) ** 2
        bordered = size > n2
        diagonal = _layout(math.isqrt(n2), False).slots[:n2] + (np.arange(n2) if bordered else 0)
        border = self.indptr[1 : n2 + 1] - 1 if bordered else np.empty(0, dtype=np.intc)
        neighbour = np.ones(self.indptr[n2], dtype=bool)  # the entries of the node rows
        neighbour[diagonal] = neighbour[border] = False
        return _read_only(diagonal, np.flatnonzero(neighbour), border)


@functools.cache
def _layout(n: int, bordered: bool) -> _Layout:
    """The pattern of the N x N five-point matrices, built once per N on first use.

    Unbordered, the source entries are the 5 N^2 stencil entries plane by
    plane, as ``five_point_matrix`` takes them: the node, then its
    neighbours in ``STENCIL`` order, so coinciding neighbours (N <= 2) share
    a slot.  No sort: an entry's slot is its row's offset plus its rank, the
    number of distinct columns below its own among the row's five, counted
    over the first entry of each column.  Bordered, one unknown is appended
    to the N^2 nodes (``_with_border``).
    """
    n2 = n * n
    if bordered:
        five = _layout(n, False)
        indices = _with_border(five.indices, np.full(n2, n2), np.arange(n2))
        indptr = np.append(np.arange(n2 + 1) * (five.indices.size // n2 + 1), indices.size)
        return _Layout(*_read_only(indptr, indices), None)
    k = np.arange(n2, dtype=np.intc).reshape(n, n)
    cols = np.stack([k] + [_shift(k, step, axis) for step, axis in STENCIL]).reshape(5, n2)
    first = np.ones(cols.shape, dtype=bool)  # no earlier entry of the row has this column
    for p in range(1, 5):
        first[p] = (cols[:p] != cols[p]).all(axis=0)
    rank = np.zeros(cols.shape, dtype=np.intc)
    for p in range(5):
        rank += first[p] & (cols[p] < cols)
    indptr = np.zeros(n2 + 1, dtype=np.intc)
    np.cumsum(first.sum(axis=0), out=indptr[1:])
    slots = indptr[:-1] + rank
    indices = np.empty(indptr[-1], dtype=np.intc)
    indices[slots[first]] = cols[first]
    return _Layout(*_read_only(indptr, indices, slots.ravel()))


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


class _DftInverse:
    """The exact inverse of a constant-coefficient five-point matrix, by the real 2-D DFT.

    A = c0 I + c1 (the sum of the four neighbour shifts) is symmetric, and
    the DFT diagonalizes it with the symbol (c0 + 4 c1) - c1 (s_k + s_l) at
    mode (k, l), s_k = 4 sin^2(pi k / N) (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7 (1970)).  Bordered, [[A, 1], [w 1^T, 0]] with zero row
    sums of A: the symbol vanishes at the constant mode, which A^+ drops,
    and the border unknown is eliminated in closed form.  A symbol that
    vanishes, to the roundoff of its computation, at any other mode is a
    LinearSolveError.
    """

    def __init__(self, n: int, c0: float, c1: float, weight: float | None) -> None:
        self.n, self.weight = n, weight
        # s_k rather than the equal 2 - 2 cos(2 pi k / N), which loses digits
        # at the low modes, the ones the bordered inverse amplifies most
        s = 4.0 * np.sin(np.pi * np.arange(n) / n) ** 2
        symbol = (c0 + 4.0 * c1) - c1 * (s[:, None] + s[None, : n // 2 + 1])
        zero = np.abs(symbol) <= roundoff_floor(abs(c0) + 8.0 * abs(c1))
        if weight is not None:
            zero[0, 0] = False
            symbol[0, 0] = math.inf
        if zero.any():
            raise LinearSolveError("DFT inverse failed: the matrix is singular")
        self._inverse_symbol = 1.0 / symbol

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """x with M x = b, M the matrix (trans="N") or its transpose (trans="T").

        A is symmetric, so trans matters only bordered.  There, with beta
        the border entry of b and sums over the N^2 node entries, trans="N"
        gives the border unknown lambda = sum(b) / N^2 and
        x = A^+ (b - lambda) + beta / (w N^2); trans="T" gives the border
        unknown sum(b) / (w N^2) and x = A^+ (b - sum(b) / N^2) + beta / N^2.
        """
        n = self.n
        f = np.fft.rfft2(b[: n * n].reshape(n, n))
        x = np.fft.irfft2(f * self._inverse_symbol, s=(n, n)).ravel()
        if self.weight is None:
            return x
        mean, beta = f[0, 0].real / (n * n), b[-1]
        if trans == "N":
            border, offset = mean, beta / (self.weight * n * n)
        else:
            border, offset = mean / self.weight, beta / (n * n)
        x += offset
        return np.append(x, border)


def _constant_inverse(a: sp.csr_matrix, layout: _Layout, n: int) -> _DftInverse | None:
    """The DFT inverse of A on ``layout`` if A has constant coefficients, else None.

    Constant: N >= 3, one finite value on every node's own entry and one on
    all its neighbour entries; bordered, also a border column of ones, a
    constant nonzero border row and zero row sums of A.  The diagonal is
    tested first, so a variable matrix costs one gather and compare.
    """
    if n < 3:  # coinciding neighbours share a slot
        return None
    diagonal, neighbours, border_column = layout.stencil_slots
    node = a.data[diagonal]
    c0 = node[0]
    if not (node == c0).all():
        return None
    near = a.data[neighbours]
    c1 = near[0]
    if not ((near == c1).all() and math.isfinite(c0) and math.isfinite(c1)):
        return None
    if border_column.size == 0:
        return _DftInverse(n, c0, c1, None)
    row = a.data[layout.indptr[-2] :]
    weight = row[0]
    if not (
        (a.data[border_column] == 1.0).all()
        and (row == weight).all()
        and 0.0 < abs(weight) < math.inf
        and c0 + 4.0 * c1 == 0.0
    ):
        return None
    return _DftInverse(n, c0, c1, weight)


class HeldFactor:
    """The one held inverse type: that of the last matrix factored in a solve call.

    It carries the solve's ``contract`` (default: ``LinearSolveContract()``),
    which every solve through it meets.  ``factor(a)`` drops the held
    inverse, then takes a CSR matrix A of ``five_point_matrix`` or
    ``bordered_matrix`` (N read from its size) and holds as ``lu`` its DFT
    inverse if ``_constant_inverse`` finds constant coefficients, else the
    SuperLU LU of P A P^T, formed by one gather of its data into the cached
    factor order; after a failed factorization none is held.  Any other
    matrix, a CSC one of A^T too, is a ValueError; a singular one is a
    LinearSolveError.  ``solve(b, trans)`` solves A x = b (trans="N") or
    A^T x = b (trans="T") in the original order.  The counts are
    deterministic: ``factorizations``, the SuperLU factorizations (a DFT
    inverse is not counted), chord steps kept (``chord_accepted``) and
    rejected (``chord_rejected``) by ``dynamics.newton_armijo``, and
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
        self.lu = _constant_inverse(a, layout, n)
        if self.lu is not None:
            self._p = None
            return self
        self._p, self._inv, pap_indptr, pap_indices, gather = layout.factor_order
        pap = sp.csc_matrix((a.data[gather], pap_indices, pap_indptr), shape=a.shape)
        try:
            self.lu = spla.splu(pap, permc_spec="NATURAL")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise LinearSolveError(f"sparse LU failed: {exc}") from None
        self.factorizations += 1
        return self

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        if self._p is None:  # the DFT inverse reads the lexicographic order
            return self.lu.solve(b, trans)
        return self.lu.solve(b[self._p], trans=trans)[self._inv]

    def solve_refined(
        self, a: sp.csr_matrix, b: np.ndarray, limit: float, trans: str = "N", x0: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, float]:
        """(x, r): x from the held LU, refined until r = |M x - b|_inf <= ``limit``.

        M is A (trans="N") or A^T (trans="T").  A start ``x0`` whose residual
        meets the limit, or is NaN, is returned as it is, with no triangular
        solve.  Otherwise the first iterate is LU^-1 b, or
        x0 - LU^-1 (M x0 - b) from x0, and at most MAX_REFINEMENTS
        refinement steps x <- x - LU^-1 (M x - b) against M follow.
        Refinement stops short of the limit once the residual r is
        non-finite, once a step does not cut it (r >= r_old, the residual
        before that step), or once the step's rate r / r_old, kept for the
        ``left`` steps still allowed, cannot reach the limit:
        r (r / r_old)^left > limit.  The first iterate has no rate.  With no
        LU held it is (None, inf).
        """
        if self.lu is None:
            return None, math.inf
        m = a if trans == "N" else a.T
        if x0 is None:
            x = self.solve(b, trans)
        else:
            resid = m @ x0 - b
            r = float(np.max(np.abs(resid)))
            if not r > limit:
                return x0, r
            x = x0 - self.solve(resid, trans)
        resid = m @ x - b
        r, r_old = float(np.max(np.abs(resid))), math.inf
        for left in range(MAX_REFINEMENTS, 0, -1):
            if r <= limit or not r < r_old or r * (r / r_old) ** left > limit:
                break
            x = x - self.solve(resid, trans)
            self.refinements += 1
            resid = m @ x - b
            r_old, r = r, float(np.max(np.abs(resid)))
        return x, r

    def counts(self) -> dict:
        return {
            "factorizations": self.factorizations,
            "chord_accepted": self.chord_accepted,
            "chord_rejected": self.chord_rejected,
            "refinements": self.refinements,
        }


def _fresh_solve(a: sp.csr_matrix, b: np.ndarray, held: HeldFactor, trans: str = "N") -> np.ndarray:
    """x with M x = b, M = A (trans="N") or A^T (trans="T"), from a fresh LU of A.

    ``held`` factors A and holds that LU; LU^-1 b is refined against M by
    ``HeldFactor.solve_refined`` to ``held.contract``.  A non-finite b,
    checked first, a singular A and a miss are each a LinearSolveError.
    """
    limit = held.contract.limit(b)
    x, r = held.factor(a).solve_refined(a, b, limit, trans)
    if not r <= limit:
        raise LinearSolveError(f"linear solve residual {r:.3e} exceeds contract")
    return x


def _solve_checked(
    a: sp.csr_matrix, b: np.ndarray, held: HeldFactor, trans: str = "N", target: float = math.inf,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """x with M x = b, M = A (trans="N") or A^T (trans="T"): the refine-or-factor rule.

    The LU ``held`` holds, if any, is refined against the exact M, from the
    start ``x0`` if given, to within ``held.contract`` and ``target``
    (``HeldFactor.solve_refined``); only a miss, a non-finite ``x0``
    included, solves by ``_fresh_solve``.  A non-finite b is refused first.
    """
    limit = min(held.contract.limit(b), target)
    x, r = held.solve_refined(a, b, limit, trans, x0=x0)
    if not r <= limit:
        x = _fresh_solve(a, b, held, trans)
    return x
