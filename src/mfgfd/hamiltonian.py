"""Upwind numerical Hamiltonian of power type and its convexity toolbox.

The Hamiltonian H(x, grad u) = potential(x) + |grad u|^beta is discretized
per node through the four neighbour differences d = (d1, d2, d3, d4) of
``torus_grid.stencil_array``, d_k = (u(x + step_k e_axis_k) - u(x)) / h:

    value(x, d) = potential(x) + |p|^beta,   p = max(-d, 0) componentwise.

Only this "upwind part" p enters, which makes the scheme monotone: the value
is nonincreasing in every d_k.  The gradient in d is

    grad(d) = -beta |p|^(beta-2) p,

extended by 0 at p = 0 (the continuous extension, valid for beta > 1).  In
the paper's q of ``torus_grid``, p = (q1^-, q2^+, q3^-, q4^+), r^- = max(-r, 0),
so components 2 and 4 of this gradient are the paper's with the sign flipped.

The stencils that value and gradient see are those of ``hamiltonian_stencil``:
the plain neighbour differences of a value slice u, with every difference
of magnitude at most STENCIL_FLOOR * eps * max|u| / h set to exactly 0.
Below that backward-error floor a difference cannot be told apart from
roundoff in u (a slice that should be constant carries stencils of 2 to 5
eps max|u| / h after a sparse LU solve, measured for N_h = 8..64 and
beta in {1.5, 2, 3}), and for beta < 2 the gradient, whose slope grows like
|p|^(beta-2), would map that roundoff to a spurious drift of order
(eps / h)^(beta-1).  Every evaluation of the value, the gradient, the
transport and the Jacobians at a value slice goes through this one
function, so the duality and adjoint identities between them stay exact.

Every stencil-shaped array here is component-first, (4, ...) with plane k
at index k, as ``stencil_array`` returns it; a sum over the four components
adds the planes as ((p0 + p1) + p2) + p3 (``torus_grid._plane_sum``).

The module also provides the m-weighted Bregman-gap functional between two
trajectories and a seeded inequality suite that stress-tests the convexity
and smoothness bounds this structure satisfies, with explicit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus_grid import GridField, _plane_sum, check_positive_int, stencil_array, time_sum

__all__ = [
    "PowerHamiltonian",
    "check_beta",
    "STENCIL_FLOOR",
    "roundoff_floor",
    "hamiltonian_stencil",
    "upwind_part",
    "bregman_gap_array",
    "weighted_bregman_gap",
    "inequality_suite",
]

# c of the stencil floor c * eps * max|u| / h; the largest roundoff stencil
# measured on constant slices is 5 eps max|u| / h
STENCIL_FLOOR = 16.0
_EPS = float(np.finfo(np.float64).eps)


def roundoff_floor(scale: float | np.ndarray) -> float | np.ndarray:
    """STENCIL_FLOOR eps scale, the backward-error floor of every gate, scaled further by each."""
    return STENCIL_FLOOR * _EPS * scale


def hamiltonian_stencil(values: np.ndarray) -> np.ndarray:
    """Neighbour differences of (..., N, N) value slices with the roundoff floor.

    Returns the (4, ..., N, N) ``stencil_array`` with every difference of
    |d| <= STENCIL_FLOOR * eps * max|u| / h set to exactly 0, each (N, N)
    slice floored against its own max|u| (h = 1/N).  This is the stencil at
    which the value, the gradient, the transport and the Jacobians evaluate
    a value slice; directions, error norms and monitors use the plain
    ``stencil_array``.
    """
    return _floor_stencil(stencil_array(values), values)


def _floor_stencil(d: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``hamiltonian_stencil`` of ``values`` from its ``stencil_array`` d, in place."""
    h = 1.0 / values.shape[-1]
    scale = np.abs(values).max(axis=(-2, -1))[..., None, None]
    limit = roundoff_floor(scale) / h
    np.copyto(d, 0.0, where=(d <= limit) & (d >= -limit))  # |d| <= limit
    return d


def upwind_part(d: np.ndarray) -> np.ndarray:
    """Nonnegative upwind part max(-d, 0) of neighbour differences; works on (4, ...) arrays."""
    p = np.negative(np.asarray(d, dtype=np.float64))
    return np.maximum(p, 0.0, out=p)


def _gauge(p: np.ndarray, beta: float) -> np.ndarray:
    """|p|^beta on (4, ...) arrays of nonnegative upwind parts."""
    return _plane_sum(p * p) ** (beta / 2.0)


def _grad_coef(p: np.ndarray, beta: float) -> np.ndarray:
    """beta * |p|^(beta-2) with the continuous extension 0 at p = 0."""
    s2 = _plane_sum(p * p)
    coef = np.zeros_like(s2)
    nz = s2 > 0.0
    coef[nz] = beta * s2[nz] ** ((beta - 2.0) / 2.0)
    return coef


def _grad_from_d(d: np.ndarray, beta: float) -> np.ndarray:
    """-beta |p|^(beta-2) p, p the upwind part of d; works on (4, ...) arrays."""
    p = upwind_part(d)
    return -(_grad_coef(p, beta) * p)


def bregman_gap_array(d: np.ndarray, d_tilde: np.ndarray, beta: float) -> np.ndarray:
    """value(x, d~) - value(x, d) - grad(d) . (d~ - d) on (4, ...) arrays.

    The potential cancels, so the gap depends on the stencils only; it is
    nonnegative by convexity of the upwind composition.  The gradient is
    the module's ``_grad_from_d``, never an instance method.
    """
    return (
        _gauge(upwind_part(d_tilde), beta)
        - _gauge(upwind_part(d), beta)
        - _plane_sum(_grad_from_d(d, beta) * (d_tilde - d))
    )


def check_beta(beta: float) -> None:
    """ValueError unless 1 < beta < inf; |p|^beta is C^1 at p = 0 for beta > 1 only."""
    if not 1.0 < beta < np.inf:
        raise ValueError(f"beta must be > 1 and finite, got {beta}")


@dataclass
class PowerHamiltonian:
    """Power-type numerical Hamiltonian with nodal samples of the potential."""

    beta: float
    potential: GridField

    def __post_init__(self) -> None:
        check_beta(self.beta)

    def gauge_hessian(self, p: np.ndarray) -> np.ndarray:
        """Hessian of |p|^beta at p != 0: beta|p|^(b-2) I + beta(b-2)|p|^(b-4) p p^T.

        Takes (4, ...) upwind parts and returns one (4, 4) matrix per node,
        shape (..., 4, 4).
        """
        p = np.asarray(p, dtype=np.float64)
        s2 = _plane_sum(p * p)
        if np.any(s2 == 0.0):
            raise ValueError("gauge_hessian is undefined at p = 0")
        b = self.beta
        eye = np.broadcast_to(np.eye(4), s2.shape + (4, 4))
        q = np.moveaxis(p, 0, -1)
        outer = q[..., :, None] * q[..., None, :]
        return (
            b * s2[..., None, None] ** ((b - 2.0) / 2.0) * eye
            + b * (b - 2.0) * s2[..., None, None] ** ((b - 4.0) / 2.0) * outer
        )

    def value_grid(self, stencil: np.ndarray) -> np.ndarray:
        """Values at every node of a (4, ..., N, N) stencil array."""
        return self.potential.values + _gauge(upwind_part(stencil), self.beta)

    def grad_grid(self, stencil: np.ndarray) -> np.ndarray:
        """Gradients of a (4, ...) stencil array, component-first like the stencil."""
        return _grad_from_d(stencil, self.beta)


def weighted_bregman_gap(
    ham: PowerHamiltonian, m: np.ndarray, u: np.ndarray, u_tilde: np.ndarray
) -> float:
    """Density-weighted sum of Bregman gaps between two u-trajectories.

    The three arguments are (N_T + 1, N, N) arrays of one shape, else a
    ValueError; h = 1/N.  Sums m^{n-1} times the per-node gap between the
    Hamiltonian stencils (``hamiltonian_stencil``) of u^n and u_tilde^n for
    n = 1..N_T, with no h^2 dt weights (the solver-side identities carry
    those factors explicitly).  Nonnegative whenever m is.
    """
    if not m.shape == u.shape == u_tilde.shape:
        raise ValueError(
            f"trajectories must share one time mesh and grid, got shapes "
            f"{m.shape}, {u.shape} and {u_tilde.shape}"
        )
    gap = bregman_gap_array(
        hamiltonian_stencil(u[1:]), hamiltonian_stencil(u_tilde[1:]), ham.beta
    )
    return time_sum(m[:-1] * gap)


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------

_REL_TOL = 1e-12


@dataclass
class _Check:
    check_id: str
    samples: int
    worst_margin: float = np.inf
    worst_sample: int = -1
    calibrated_constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -_REL_TOL

    def record(self, margins: np.ndarray, offset: int = 0) -> None:
        if margins.size == 0:
            return
        k = int(np.argmin(margins))
        if margins[k] < self.worst_margin:
            self.worst_margin = float(margins[k])
            self.worst_sample = k + offset

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.check_id,
            "samples": self.samples,
            "worst_margin": None if np.isinf(self.worst_margin) else self.worst_margin,
            "worst_sample": self.worst_sample,
            "calibrated_constants": self.calibrated_constants,
            "pass": bool(self.passed),
        }


def _rel_margin(
    lhs: np.ndarray, rhs: np.ndarray, terms: np.ndarray | float = 0.0
) -> np.ndarray:
    """(lhs - rhs) / max(|lhs|, |rhs|, terms) for inequalities lhs >= rhs.

    ``terms`` is the size of the summands lhs is computed from: a backward-
    error floor, so a bound that holds with equality meets their roundoff.
    """
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), np.maximum(terms, 1e-300))
    return (lhs - rhs) / scale


def _sample_q(rng: np.random.Generator, count: int) -> np.ndarray:
    """4-vectors with a mix of smooth draws and exact zeros to hit the kinks."""
    q = rng.normal(0.0, 2.0, size=(count, 4))
    zero_mask = rng.random(size=(count, 4)) < 0.1
    q[zero_mask] = 0.0
    return q


def _power_with_inf(x: np.ndarray, expo: float) -> np.ndarray:
    """x^expo for x >= 0 with 0^negative = +inf, without warnings."""
    out = np.empty_like(x)
    pos = x > 0.0
    out[pos] = x[pos] ** expo
    out[~pos] = np.inf if expo < 0 else (1.0 if expo == 0 else 0.0)
    return out


def inequality_suite(ham: PowerHamiltonian, sample_count: int, seed: int = 0) -> dict:
    """Stress-test the convexity and smoothness bounds of the upwind Hamiltonian.

    Draws ``sample_count`` seeded tuples (q, q~, r, eta), q, q~ and r in the
    paper's (D1+, D1-, D2+, D2-) and mapped to neighbour differences, plus
    random nonnegative density fields, asserts every applicable inequality
    with its explicit constant at relative tolerance 1e-12, and reports the
    worst margin per check.  The two-sided gradient-difference bound has no
    universal constant in closed form here; the suite checks it with
    c = beta^2 (beta-1)^2 / 4 (a Young-inequality consequence of the
    integral representation), calibrates the smallest admissible c by
    sampling, floors the calibration at 1 for beta = 2, and records both.
    """
    check_positive_int("sample_count", sample_count)
    beta = ham.beta
    rng = np.random.Generator(np.random.Philox(seed))
    S = int(sample_count)

    d, dtil = _sample_q(rng, S), _sample_q(rng, S)
    r = rng.normal(0.0, 1.0, size=(S, 4))
    for x in (d, dtil, r):  # from the paper's q to d = (q1, -q2, q3, -q4)
        x[:, 1::2] = -x[:, 1::2]
    d, dtil, r = (np.ascontiguousarray(x.T) for x in (d, dtil, r))  # component-first
    eta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=S))

    p = upwind_part(d)
    pt = upwind_part(dtil)
    ap = np.sqrt(_plane_sum(p * p))
    apt = np.sqrt(_plane_sum(pt * pt))

    gap = bregman_gap_array(d, dtil, beta)
    # the summands of ``gap``: at beta = 2 the two gap lower bounds hold with
    # equality, and the gap is a small difference of these
    gap_terms = (
        _gauge(pt, beta)
        + _gauge(p, beta)
        + np.abs(_plane_sum(_grad_from_d(d, beta) * (dtil - d)))
    )
    gauge_gap = bregman_gap_array(-p, -pt, beta)

    checks: list[_Check] = []

    # Hessian lower bound: eigenvalues of D^2|p|^beta minus the explicit
    # multiple of the identity stay nonnegative (away from the kink, where
    # the formula is valid).
    keep = ap > 1e-3
    pk = p[:, keep]
    hess = ham.gauge_hessian(pk)
    bound = beta * (1.0 if beta >= 2.0 else (beta - 1.0))
    shifted = hess - bound * _plane_sum(pk * pk)[:, None, None] ** (
        (beta - 2.0) / 2.0
    ) * np.eye(4)
    eigs = np.linalg.eigvalsh(shifted)
    scale = np.maximum(np.max(np.abs(np.linalg.eigvalsh(hess)), axis=-1), 1e-300)
    c = _Check("hessian_lower_bound", int(keep.sum()))
    c.record(eigs[:, 0] / scale)
    checks.append(c)

    # Convexity transfers through the upwind map: the full Bregman gap
    # dominates the gap of the gauge between the upwind parts p and pt,
    # the kernel's gap at -p and -pt, whose upwind parts they are.
    c = _Check("upwind_gap_transfer", S)
    c.record(_rel_margin(gap, gauge_gap))
    checks.append(c)

    if beta >= 2.0:
        rhs29 = (
            np.maximum(_power_with_inf(ap, beta - 2.0), _power_with_inf(apt, beta - 2.0))
            * _plane_sum((p - pt) ** 2)
            / (beta - 1.0)
        )
        # max(0,0)^(beta-2) = 0 for beta > 2 and 1 for beta = 2; with beta = 2
        # numpy's 0^0 = 1 matches the limiting value used in the bound.
        c = _Check("gap_quadratic_lower", S)
        c.record(_rel_margin(gap, rhs29, gap_terms))
        checks.append(c)

        rhs30 = _plane_sum((p - pt) ** 2) ** (beta / 2.0) / (
            2.0 ** (beta - 2.0) * (beta - 1.0)
        )
        c = _Check("gap_power_lower", S)
        c.record(_rel_margin(gap, rhs30, gap_terms))
        checks.append(c)

        # gradient-difference bound with the Young-split constant
        lhs32 = np.abs(
            _plane_sum((_grad_from_d(dtil, beta) - _grad_from_d(d, beta)) * r)
        )
        mx = np.maximum(
            _power_with_inf(ap, beta - 2.0), _power_with_inf(apt, beta - 2.0)
        )
        mx = np.where(np.isinf(mx), 0.0, mx)  # both parts vanish => lhs is 0
        dp2 = _plane_sum((p - pt) ** 2)
        r2 = _plane_sum(r * r)
        c_analytic = beta ** 2 * (beta - 1.0) ** 2 / 4.0
        rhs32 = mx * (c_analytic / eta * dp2 + eta * r2)
        c = _Check("grad_diff_split_bound", S)
        c.record(_rel_margin(rhs32, lhs32))
        valid = (dp2 > 1e-20) & (mx > 0.0)
        c_req = eta[valid] * (lhs32[valid] / mx[valid] - eta[valid] * r2[valid]) / dp2[valid]
        c_raw = float(np.max(c_req)) if c_req.size else 0.0
        c_cal = max(c_raw, 1.0) if beta == 2.0 else c_raw
        c.calibrated_constants = {
            "c_analytic": c_analytic,
            "c_calibrated": c_cal,
            "largest_observed_ratio": c_raw,
        }
        checks.append(c)
    else:
        # kink-weighted quadratic lower bound, valid when p + p~ != 0
        keep = ~((ap == 0.0) & (apt == 0.0))
        pk, ptk = p[:, keep], pt[:, keep]
        minmax = np.minimum(
            _power_with_inf(np.max(np.abs(pk), axis=0), beta - 2.0),
            _power_with_inf(np.max(np.abs(ptk), axis=0), beta - 2.0),
        )
        rhs31 = (
            2.0 ** (beta - 3.0)
            * beta
            * (beta - 1.0)
            * minmax
            * _plane_sum((pk - ptk) ** 2)
        )
        c = _Check("gap_kink_lower", int(keep.sum()))
        c.record(_rel_margin(gap[keep], rhs31))
        checks.append(c)

    # trajectory-level bounds on small random space-time batches
    n_side, n_t = 4, 2
    if beta >= 2.0:
        field_checks = {
            "weighted_gap_quadratic_lower": _Check("weighted_gap_quadratic_lower", S),
            "weighted_gap_power_lower": _Check("weighted_gap_power_lower", S),
            "weighted_gap_stencil_lower": _Check("weighted_gap_stencil_lower", S),
        }
    else:
        field_checks = {"small_beta_chain_lower": _Check("small_beta_chain_lower", S)}

    done = 0
    while done < S:  # chunked so 10^4 triples stay memory-bounded
        chunk = min(2000, S - done)
        u_arr = rng.normal(0.0, 1.0, size=(chunk, n_t, n_side, n_side))
        ut_arr = rng.normal(0.0, 1.0, size=(chunk, n_t, n_side, n_side))
        m_arr = 0.05 + np.abs(rng.normal(0.0, 1.0, size=(chunk, n_t, n_side, n_side)))

        df = stencil_array(u_arr)
        dtilf = stencil_array(ut_arr)
        pf = upwind_part(df)
        ptf = upwind_part(dtilf)

        if beta >= 2.0:
            gapf = bregman_gap_array(df, dtilf, beta)
            big_g = np.sum(m_arr * gapf, axis=(1, 2, 3))
            apf = np.sqrt(_plane_sum(pf * pf))
            aptf = np.sqrt(_plane_sum(ptf * ptf))
            dp2f = _plane_sum((pf - ptf) ** 2)

            w_quad = np.sum(
                m_arr * np.maximum(apf ** (beta - 2.0), aptf ** (beta - 2.0)) * dp2f,
                axis=(1, 2, 3),
            ) / (beta - 1.0)
            field_checks["weighted_gap_quadratic_lower"].record(
                _rel_margin(big_g, w_quad), done
            )

            w_pow = np.sum(m_arr * dp2f ** (beta / 2.0), axis=(1, 2, 3)) / (
                2.0 ** (beta - 2.0) * (beta - 1.0)
            )
            field_checks["weighted_gap_power_lower"].record(_rel_margin(big_g, w_pow), done)

            m_low = np.min(m_arr, axis=(1, 2, 3))
            dd = dtilf - df
            w_sten = (
                m_low
                * np.sum(_plane_sum(dd * dd) ** (beta / 2.0), axis=(1, 2, 3))
                / (2.0 ** (2.0 * beta - 3.0) * (beta - 1.0))
            )
            field_checks["weighted_gap_stencil_lower"].record(
                _rel_margin(big_g, w_sten), done
            )
        else:
            # chain of bounds for the gap against the zero trajectory
            gap0 = _gauge(ptf, beta)  # gap from d = 0 is the gauge itself
            big_g0 = np.sum(m_arr * gap0, axis=(1, 2, 3))
            m_low = np.min(m_arr, axis=(1, 2, 3))
            w_chain = (
                2.0 ** (2.0 * beta - 6.0)
                * beta
                * (beta - 1.0)
                * m_low
                * np.sum(_plane_sum(dtilf * dtilf) ** (beta / 2.0), axis=(1, 2, 3))
            )
            field_checks["small_beta_chain_lower"].record(_rel_margin(big_g0, w_chain), done)
        done += chunk
    checks.extend(field_checks.values())

    report = {
        "beta": beta,
        "seed": seed,
        "samples": S,
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    return report
