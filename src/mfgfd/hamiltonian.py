"""Upwind numerical Hamiltonian of power type and its convexity toolbox.

The Hamiltonian H(x, grad u) = potential(x) + |grad u|^beta is discretized
per node through the four one-sided differences q = (q1, q2, q3, q4):

    value(x, q) = potential(x) + |p|^beta,   p = (q1^-, q2^+, q3^-, q4^+),

where r^+ = max(r, 0) and r^- = max(-r, 0).  Only the "upwind part" p
enters, which makes the scheme monotone: the value is nonincreasing in
q1, q3 and nondecreasing in q2, q4.  The gradient in q is

    grad(q) = beta |p|^(beta-2) * (-p1, p2, -p3, p4),

extended by 0 at p = 0 (the continuous extension, valid for beta > 1).

The stencils that value and gradient see are those of ``hamiltonian_stencil``:
the plain one-sided differences of a value slice u, with every difference
of magnitude at most STENCIL_FLOOR * eps * max|u| / h set to exactly 0.
Below that backward-error floor a difference cannot be told apart from
roundoff in u (a slice that should be constant carries stencils of 2 to 5
eps max|u| / h after a sparse LU solve, measured for N_h = 8..64 and
beta in {1.5, 2, 3}), and for beta < 2 the gradient, whose slope grows like
|p|^(beta-2), would map that roundoff to a spurious drift of order
(eps / h)^(beta-1).  Every evaluation of the value, the gradient, the
transport and the Jacobians at a value slice goes through this one
function, so the duality and adjoint identities between them stay exact.

The module also provides the m-weighted Bregman-gap functional between two
trajectories and a seeded inequality suite that stress-tests the convexity
and smoothness bounds this structure satisfies, with explicit constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .torus_grid import STENCIL_SIGNS, GridField, stencil_array, time_sum

__all__ = [
    "PowerHamiltonian",
    "STENCIL_FLOOR",
    "hamiltonian_stencil",
    "upwind_part",
    "bregman_gap_array",
    "weighted_bregman_gap",
    "inequality_suite",
]

# sign pattern of d(p_k)/d(q_k) on the active branches
_UPWIND_SIGNS = -STENCIL_SIGNS

# c of the stencil floor c * eps * max|u| / h; the largest roundoff stencil
# measured on constant slices is 5 eps max|u| / h
STENCIL_FLOOR = 16.0
_EPS = float(np.finfo(np.float64).eps)


def hamiltonian_stencil(values: np.ndarray) -> np.ndarray:
    """One-sided differences of (..., N, N) value slices with the roundoff floor.

    Returns the (..., N, N, 4) ``stencil_array`` with every difference of
    |q| <= STENCIL_FLOOR * eps * max|u| / h set to exactly 0, each (N, N)
    slice floored against its own max|u| (h = 1/N).  This is the stencil at
    which the value, the gradient, the transport and the Jacobians evaluate
    a value slice; directions, error norms and monitors use the plain
    ``stencil_array``.
    """
    return _floor_stencil(stencil_array(values), values)


def _floor_stencil(q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``hamiltonian_stencil`` of ``values`` from its ``stencil_array`` q, in place."""
    h = 1.0 / values.shape[-1]
    scale = np.max(np.abs(values), axis=(-2, -1))[..., None, None, None]
    q[np.abs(q) <= STENCIL_FLOOR * _EPS * scale / h] = 0.0
    return q


def upwind_part(q: np.ndarray) -> np.ndarray:
    """Nonnegative 4-vector (q1^-, q2^+, q3^-, q4^+); works on (..., 4) arrays."""
    return np.maximum(np.asarray(q, dtype=np.float64) * _UPWIND_SIGNS, 0.0)


def _gauge(p: np.ndarray, beta: float) -> np.ndarray:
    """|p|^beta on (..., 4) arrays of nonnegative upwind parts."""
    s2 = np.sum(p * p, axis=-1)
    return s2 ** (beta / 2.0)


def _grad_coef(p: np.ndarray, beta: float) -> np.ndarray:
    """beta * |p|^(beta-2) with the continuous extension 0 at p = 0."""
    s2 = np.sum(p * p, axis=-1)
    coef = np.zeros_like(s2)
    nz = s2 > 0.0
    coef[nz] = beta * s2[nz] ** ((beta - 2.0) / 2.0)
    return coef


def _grad_from_q(q: np.ndarray, beta: float) -> np.ndarray:
    p = upwind_part(q)
    coef = _grad_coef(p, beta)
    return coef[..., None] * p * _UPWIND_SIGNS


def bregman_gap_array(q: np.ndarray, q_tilde: np.ndarray, beta: float) -> np.ndarray:
    """value(x, q~) - value(x, q) - grad(q) . (q~ - q) on (..., 4) arrays.

    The potential cancels, so the gap depends on the stencils only; it is
    nonnegative by convexity of the upwind composition.  The gradient is
    the module's ``_grad_from_q``, never an instance method.
    """
    return (
        _gauge(upwind_part(q_tilde), beta)
        - _gauge(upwind_part(q), beta)
        - np.sum(_grad_from_q(q, beta) * (q_tilde - q), axis=-1)
    )


@dataclass
class PowerHamiltonian:
    """Power-type numerical Hamiltonian with nodal samples of the potential.

    beta must exceed 1 so the gauge |p|^beta is C^1 through the kink at
    p = 0.
    """

    beta: float
    potential: GridField

    def __post_init__(self) -> None:
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")

    def gauge_hessian(self, p: np.ndarray) -> np.ndarray:
        """Hessian of |p|^beta at p != 0: beta|p|^(b-2) I + beta(b-2)|p|^(b-4) p p^T."""
        p = np.asarray(p, dtype=np.float64)
        s2 = np.sum(p * p, axis=-1)
        if np.any(s2 == 0.0):
            raise ValueError("gauge_hessian is undefined at p = 0")
        b = self.beta
        eye = np.broadcast_to(np.eye(4), p.shape + (4,))
        outer = p[..., :, None] * p[..., None, :]
        return (
            b * s2[..., None, None] ** ((b - 2.0) / 2.0) * eye
            + b * (b - 2.0) * s2[..., None, None] ** ((b - 4.0) / 2.0) * outer
        )

    def value_grid(self, stencil: np.ndarray) -> np.ndarray:
        """Values at every node of a (..., N, N, 4) stencil array."""
        return self.potential.values + _gauge(upwind_part(stencil), self.beta)

    def grad_grid(self, stencil: np.ndarray) -> np.ndarray:
        """Gradients of a (..., 4) stencil array, one 4-vector per stencil."""
        return _grad_from_q(stencil, self.beta)


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

    Draws ``sample_count`` seeded tuples (q, q~, r, eta) plus random
    nonnegative density fields, asserts every applicable inequality with its
    explicit constant at relative tolerance 1e-12, and reports the worst
    margin per check.  The two-sided gradient-difference bound has no
    universal constant in closed form here; the suite checks it with
    c = beta^2 (beta-1)^2 / 4 (a Young-inequality consequence of the
    integral representation), calibrates the smallest admissible c by
    sampling, floors the calibration at 1 for beta = 2, and records both.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    beta = ham.beta
    rng = np.random.Generator(np.random.Philox(seed))
    S = int(sample_count)

    q = _sample_q(rng, S)
    qt = _sample_q(rng, S)
    r = rng.normal(0.0, 1.0, size=(S, 4))
    eta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=S))

    p = upwind_part(q)
    pt = upwind_part(qt)
    ap = np.sqrt(np.sum(p * p, axis=-1))
    apt = np.sqrt(np.sum(pt * pt, axis=-1))

    gap = bregman_gap_array(q, qt, beta)
    # the summands of ``gap``: at beta = 2 the two gap lower bounds hold with
    # equality, and the gap is a small difference of these
    gap_terms = (
        _gauge(pt, beta)
        + _gauge(p, beta)
        + np.abs(np.sum(_grad_from_q(q, beta) * (qt - q), axis=-1))
    )
    gauge_gap = _gauge(pt, beta) - _gauge(p, beta) - np.sum(
        _grad_coef(p, beta)[..., None] * p * (pt - p), axis=-1
    )

    checks: list[_Check] = []

    # Hessian lower bound: eigenvalues of D^2|p|^beta minus the explicit
    # multiple of the identity stay nonnegative (away from the kink, where
    # the formula is valid).
    keep = ap > 1e-3
    pk = p[keep]
    hess = ham.gauge_hessian(pk)
    bound = beta * (1.0 if beta >= 2.0 else (beta - 1.0))
    shifted = hess - bound * np.sum(pk * pk, axis=-1)[:, None, None] ** (
        (beta - 2.0) / 2.0
    ) * np.eye(4)
    eigs = np.linalg.eigvalsh(shifted)
    scale = np.maximum(np.max(np.abs(np.linalg.eigvalsh(hess)), axis=-1), 1e-300)
    c = _Check("hessian_lower_bound", int(keep.sum()))
    c.record(eigs[:, 0] / scale)
    checks.append(c)

    # Convexity transfers through the upwind map: the full Bregman gap
    # dominates the gap of the gauge between the upwind parts.
    c = _Check("upwind_gap_transfer", S)
    c.record(_rel_margin(gap, gauge_gap))
    checks.append(c)

    if beta >= 2.0:
        rhs29 = (
            np.maximum(_power_with_inf(ap, beta - 2.0), _power_with_inf(apt, beta - 2.0))
            * np.sum((p - pt) ** 2, axis=-1)
            / (beta - 1.0)
        )
        # max(0,0)^(beta-2) = 0 for beta > 2 and 1 for beta = 2; with beta = 2
        # numpy's 0^0 = 1 matches the limiting value used in the bound.
        c = _Check("gap_quadratic_lower", S)
        c.record(_rel_margin(gap, rhs29, gap_terms))
        checks.append(c)

        rhs30 = np.sum((p - pt) ** 2, axis=-1) ** (beta / 2.0) / (
            2.0 ** (beta - 2.0) * (beta - 1.0)
        )
        c = _Check("gap_power_lower", S)
        c.record(_rel_margin(gap, rhs30, gap_terms))
        checks.append(c)

        # gradient-difference bound with the Young-split constant
        lhs32 = np.abs(
            np.sum((_grad_from_q(qt, beta) - _grad_from_q(q, beta)) * r, axis=-1)
        )
        mx = np.maximum(
            _power_with_inf(ap, beta - 2.0), _power_with_inf(apt, beta - 2.0)
        )
        mx = np.where(np.isinf(mx), 0.0, mx)  # both parts vanish => lhs is 0
        dp2 = np.sum((p - pt) ** 2, axis=-1)
        r2 = np.sum(r * r, axis=-1)
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
        pk, ptk = p[keep], pt[keep]
        minmax = np.minimum(
            _power_with_inf(np.max(np.abs(pk), axis=-1), beta - 2.0),
            _power_with_inf(np.max(np.abs(ptk), axis=-1), beta - 2.0),
        )
        rhs31 = (
            2.0 ** (beta - 3.0)
            * beta
            * (beta - 1.0)
            * minmax
            * np.sum((pk - ptk) ** 2, axis=-1)
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

        qf = stencil_array(u_arr)
        qtf = stencil_array(ut_arr)
        pf = upwind_part(qf)
        ptf = upwind_part(qtf)

        if beta >= 2.0:
            gapf = bregman_gap_array(qf, qtf, beta)
            big_g = np.sum(m_arr * gapf, axis=(1, 2, 3))
            apf = np.sqrt(np.sum(pf * pf, axis=-1))
            aptf = np.sqrt(np.sum(ptf * ptf, axis=-1))
            dp2f = np.sum((pf - ptf) ** 2, axis=-1)

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
            dq = qtf - qf
            w_sten = (
                m_low
                * np.sum(np.sum(dq * dq, axis=-1) ** (beta / 2.0), axis=(1, 2, 3))
                / (2.0 ** (2.0 * beta - 3.0) * (beta - 1.0))
            )
            field_checks["weighted_gap_stencil_lower"].record(
                _rel_margin(big_g, w_sten), done
            )
        else:
            # chain of bounds for the gap against the zero trajectory
            gap0 = _gauge(ptf, beta)  # gap from q = 0 is the gauge itself
            big_g0 = np.sum(m_arr * gap0, axis=(1, 2, 3))
            m_low = np.min(m_arr, axis=(1, 2, 3))
            w_chain = (
                2.0 ** (2.0 * beta - 6.0)
                * beta
                * (beta - 1.0)
                * m_low
                * np.sum(np.sum(qtf * qtf, axis=-1) ** (beta / 2.0), axis=(1, 2, 3))
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
