"""Step operators: residuals, Newton step, transport duality, density step, adjoint."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mfgfd.cost_ops import LocalCost
from mfgfd.dynamics import (
    CLAMP_LIMIT,
    HjbStepConfig,
    NonConvergence,
    PositivityError,
    _clamp_density,
    adjoint_apply,
    adjoint_check,
    fp_step_solve,
    hjb_jacobian,
    hjb_residual,
    hjb_step_solve,
    linearized_hjb_apply,
    linearized_hjb_matrix,
    transport_apply,
    value_operator,
)
from mfgfd.hamiltonian import PowerHamiltonian, hamiltonian_stencil
from mfgfd.linear import (
    LinearSolveContract,
    LinearSolveError,
    _DissectedLU,
    _solve_checked,
    five_point_matrix,
)
from mfgfd.presets import hamiltonian_preset
from mfgfd.solver import ErgodicProblem, _bordered_jacobian, _ergodic_diagnostics
from mfgfd.torus_grid import GridField, TorusGrid, laplace_array, stencil_array
from oracles import hjb_step_picard

NU = 1.0


def zero_ham(beta=2.0, n=8):
    return PowerHamiltonian(beta, GridField.zeros(TorusGrid(n)))


def inner(a, b):
    return float(np.sum(a * b))


def cosine(n=8, amplitude=1.0):
    return GridField.from_function(
        TorusGrid(n), lambda x1, x2: amplitude * np.cos(2 * np.pi * x1)
    ).values


def naive_value_operator(ham, nu, u):
    # independent per-node loop over the defining formula: -nu times the
    # five-point Laplacian plus the value potential + |p|^beta at the upwind
    # part p = (q1^-, q2^+, q3^-, q4^+) of the one-sided differences
    n = u.shape[-1]
    h = 1.0 / n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            c = u[i, j]
            east, west = u[(i + 1) % n, j], u[i - 1, j]
            north, south = u[i, (j + 1) % n], u[i, j - 1]
            q1, q2, q3, q4 = (east - c) / h, (c - west) / h, (north - c) / h, (c - south) / h
            p2 = max(-q1, 0.0) ** 2 + max(q2, 0.0) ** 2 + max(-q3, 0.0) ** 2 + max(q4, 0.0) ** 2
            lap = (east + west + north + south - 4.0 * c) / h**2
            out[i, j] = -nu * lap + ham.potential.values[i, j] + p2 ** (ham.beta / 2)
    return out


def naive_hjb_residual(ham, nu, dt, u_next, u_cur, phi):
    return (u_next - u_cur) / dt + naive_value_operator(ham, nu, u_next) - phi


def dense_fp_from_transport(ham, nu, dt, u):
    """Density-step operator assembled densely from its defining formula.

    Column k is (1/dt) e_k - nu Lap e_k - transport(u, e_k).
    """
    n = u.shape[-1]
    cols = []
    for e in np.eye(n * n):
        ek = e.reshape(n, n)
        cols.append(
            e / dt - nu * laplace_array(ek).ravel() - transport_apply(ham, u, ek).ravel()
        )
    return np.stack(cols, axis=1)


def coo_five_point(ham, nu, u, shift):
    """shift I - nu L + B(u) by the COO assembly that the cached pattern
    replaced: the same entry formulas, coinciding neighbours summed by the
    COO-to-CSR conversion and exact zeros dropped."""
    n = u.shape[-1]
    h = 1.0 / n
    inv_h, inv_h2 = 1.0 / h, 1.0 / h**2
    g = ham.grad_grid(hamiltonian_stencil(u))
    g1, g2, g3, g4 = (g[..., k] for k in range(4))
    off = -nu * inv_h2
    data = np.stack(
        [
            shift + (-nu * (-4.0 * inv_h2) + (((-g1 + g2) - g3) + g4) * inv_h),
            off + g1 * inv_h,
            off + (-g2) * inv_h,
            off + g3 * inv_h,
            off + (-g4) * inv_h,
        ],
        axis=-1,
    )
    k = np.arange(n * n).reshape(n, n)
    neighbours = [np.roll(k, step, axis=ax) for ax in (0, 1) for step in (-1, 1)]
    cols = np.stack([k] + neighbours, axis=-1)
    rows = np.repeat(k.ravel(), 5)
    a = sp.csr_matrix((data.ravel(), (rows, cols.ravel())), shape=(n * n, n * n))
    a.eliminate_zeros()
    return a


def dense_linearized(ham, nu, u):
    """-nu L + B(u) assembled densely: column k is linearized_hjb_apply(e_k)."""
    n = u.shape[-1]
    cols = [linearized_hjb_apply(ham, nu, u, e.reshape(n, n)).ravel() for e in np.eye(n * n)]
    return np.stack(cols, axis=1)


class TestHjbResidual:
    def test_constant_balance(self):
        ham = zero_ham()
        u = np.full((8, 8), 2.0)
        res = hjb_residual(ham, NU, 0.1, u, u, np.zeros((8, 8)))
        assert np.max(np.abs(res)) == 0.0

    def test_constant_potential_balance(self):
        g = TorusGrid(8)
        c = 0.7
        ham = PowerHamiltonian(2.0, GridField.constant(g, c))
        dt = 0.05
        u_cur = np.zeros((8, 8))
        u_next = np.full((8, 8), -dt * c)
        res = hjb_residual(ham, NU, dt, u_next, u_cur, np.zeros((8, 8)))
        assert np.max(np.abs(res)) < 1e-14

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.5, GridField(g, rng.normal(size=(8, 8))))
        u_next = rng.normal(size=(8, 8))
        u_cur = rng.normal(size=(8, 8))
        phi = rng.normal(size=(8, 8))
        got = hjb_residual(ham, NU, 0.02, u_next, u_cur, phi)
        assert np.allclose(got, naive_hjb_residual(ham, NU, 0.02, u_next, u_cur, phi), atol=1e-11)

        # the stationary defect value_operator + lambda - cost, as the ergodic
        # Newton step and its final diagnostics evaluate it
        p = ErgodicProblem(nu=NU, hamiltonian=ham, cost=LocalCost.power(2.0), grid=g)
        m = rng.uniform(0.5, 1.5, size=(8, 8))
        lam, cost = 0.3, p.cost.apply(m)
        expect = naive_value_operator(ham, NU, u_next) + lam - cost
        assert np.allclose(value_operator(ham, NU, u_next) + lam - cost, expect, atol=1e-11)
        diag = _ergodic_diagnostics(p, u_next, m, lam)["hjb_residual"]
        assert abs(diag - float(np.max(np.abs(expect)))) <= 1e-11

        # a (K, N, N) batch of slices of different sizes gives, bit for bit,
        # the K single-slice defects
        u_next = np.array([1.0, 1e-3, 50.0])[:, None, None] * rng.normal(size=(3, 8, 8))
        u_cur = rng.normal(size=(3, 8, 8))
        phi = rng.normal(size=(3, 8, 8))
        got = hjb_residual(ham, NU, 0.02, u_next, u_cur, phi)
        for k in range(3):
            expect = naive_hjb_residual(ham, NU, 0.02, u_next[k], u_cur[k], phi[k])
            assert np.allclose(got[k], expect, rtol=1e-13, atol=1e-11)
            assert np.array_equal(got[k], hjb_residual(ham, NU, 0.02, u_next[k], u_cur[k], phi[k]))


class TestHjbStep:
    def test_zero_fixed_point(self):
        ham = zero_ham()
        out = hjb_step_solve(ham, NU, 0.1, np.zeros((8, 8)), np.zeros((8, 8)))
        assert np.max(np.abs(out)) < 1e-13

    def test_constant_cost_shift(self):
        ham = zero_ham()
        out = hjb_step_solve(ham, NU, 0.1, np.zeros((8, 8)), np.ones((8, 8)))
        assert np.max(np.abs(out - 0.1)) < 1e-13

    def test_residual_contract_on_smooth_data(self):
        ham = zero_ham()
        u_cur = cosine()
        out = hjb_step_solve(ham, NU, 0.01, u_cur, np.zeros((8, 8)))
        res = hjb_residual(ham, NU, 0.01, out, u_cur, np.zeros((8, 8)))
        assert np.max(np.abs(res)) <= 1e-11

    def test_agrees_with_picard_oracle_at_small_dt(self):
        ham = zero_ham()
        dt = 1e-3
        u_cur = cosine()
        newton = hjb_step_solve(ham, NU, dt, u_cur, np.zeros((8, 8)))
        picard = hjb_step_picard(ham, NU, dt, u_cur, np.zeros((8, 8)), tol=1e-13)
        assert np.max(np.abs(newton - picard)) <= 1e-9

    def test_comparison_lower_bound(self):
        # nonnegative cost keeps the next slice above min(u) - dt * max(potential)+
        rng = np.random.default_rng(1)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField(g, rng.normal(0.5, 1.0, (8, 8))))
        u_cur = rng.normal(size=(8, 8))
        phi = np.abs(rng.normal(size=(8, 8)))
        dt = 0.05
        out = hjb_step_solve(ham, NU, dt, u_cur, phi)
        bound = np.min(u_cur) - dt * max(0.0, np.max(ham.potential.values))
        assert np.min(out) >= bound - 1e-12

    def test_nonconvergence_raises_with_details(self):
        ham = zero_ham()
        cfg = HjbStepConfig(max_newton=1, newton_tol=1e-15)
        with pytest.raises(NonConvergence) as err:
            hjb_step_solve(ham, NU, 0.5, cosine(amplitude=5.0), np.zeros((8, 8)), cfg=cfg)
        assert err.value.iterations >= 1
        assert err.value.final_residual > 0

    def test_jacobian_is_m_matrix(self):
        rng = np.random.default_rng(2)
        ham = zero_ham(1.5)
        u = rng.normal(size=(8, 8))
        jac = hjb_jacobian(ham, NU, 0.1, u).toarray()
        off = jac - np.diag(np.diag(jac))
        assert np.all(np.diag(jac) > 0)
        assert np.all(off <= 1e-14)

    @pytest.mark.parametrize("warm", [False, True])
    def test_returns_fresh_array_and_keeps_inputs(self, warm):
        # the sweeps pass views of their trajectory arrays: u[n], cost[n] and
        # warm[n + 1] must come back unchanged, and the result must not alias them
        rng = np.random.default_rng(3)
        traj = rng.normal(size=(3, 8, 8))
        cost = np.abs(rng.normal(size=(2, 8, 8)))
        before = (traj.copy(), cost.copy())
        guess = traj[2] if warm else None
        out = hjb_step_solve(zero_ham(), NU, 0.05, traj[0], cost[0], initial_guess=guess)
        assert out.shape == (8, 8) and out.dtype == np.float64
        assert not np.shares_memory(out, traj) and not np.shares_memory(out, cost)
        assert np.array_equal(traj, before[0]) and np.array_equal(cost, before[1])


class TestTransport:
    def test_constant_u_gives_zero(self):
        rng = np.random.default_rng(3)
        ham = zero_ham()
        m = rng.normal(size=(8, 8))
        out = transport_apply(ham, np.ones((8, 8)), m)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_duality_identity(self, beta):
        rng = np.random.default_rng(4)
        ham = zero_ham(beta)
        for _ in range(10):
            u = rng.normal(size=(8, 8))
            m = rng.normal(size=(8, 8))
            w = rng.normal(size=(8, 8))
            lhs = inner(transport_apply(ham, u, m), w)
            grads = ham.grad_grid(stencil_array(u))
            dw = stencil_array(w)
            rhs = -float(np.sum(m[..., None] * grads * dw))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)

    def test_conservation(self):
        rng = np.random.default_rng(5)
        ham = zero_ham()
        u = rng.normal(size=(8, 8))
        m = rng.normal(size=(8, 8))
        assert abs(np.sum(transport_apply(ham, u, m))) < 1e-11

    def test_linear_in_density(self):
        rng = np.random.default_rng(6)
        ham = zero_ham()
        u = rng.normal(size=(8, 8))
        m1 = rng.normal(size=(8, 8))
        m2 = rng.normal(size=(8, 8))
        combo = transport_apply(ham, u, 2.0 * m1 - 3.0 * m2)
        split = 2.0 * transport_apply(ham, u, m1) - 3.0 * transport_apply(ham, u, m2)
        assert np.allclose(combo, split, atol=1e-11)

    def test_stack_matches_slice_by_slice(self):
        # the differences act on the last two axes, so a (K, N, N) pair is
        # transported slice by slice, never across slices
        rng = np.random.default_rng(17)
        u = rng.normal(size=(3, 8, 8))
        m = rng.normal(size=(3, 8, 8))
        got = transport_apply(zero_ham(), u, m)
        for k in range(3):
            assert np.array_equal(got[k], transport_apply(zero_ham(), u[k], m[k]))

    def test_matches_transposed_advection_matrix(self):
        # the roll-based formula equals minus the transpose of the value-step
        # advection block applied to m
        rng = np.random.default_rng(7)
        ham = zero_ham()
        u = rng.normal(size=(8, 8))
        m = rng.normal(size=(8, 8))
        via_matrix = -(linearized_hjb_matrix(ham, 0.0, u).T @ m.ravel())
        direct = transport_apply(ham, u, m).ravel()
        assert np.allclose(via_matrix, direct, atol=1e-12)


class TestShapeChecks:
    """The operators read the grid from the array shape, so two slices of
    different shapes are a ValueError, not a broadcast."""

    def test_transport_rejects_mismatched_density(self):
        with pytest.raises(ValueError, match="shape"):
            transport_apply(zero_ham(), np.zeros((8, 8)), np.ones((8, 1)))

    def test_linearized_rejects_mismatched_direction(self):
        with pytest.raises(ValueError, match="shape"):
            linearized_hjb_apply(zero_ham(), NU, np.zeros((8, 8)), np.ones((8, 1)))


def noisy_constant(n=8, level=3.0, seed=0):
    """A constant slice carrying the eps-level roundoff a sparse LU solve leaves."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    return level * (1.0 + eps * rng.integers(-2, 3, size=(n, n)))


class TestStencilFloor:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_advection_matrix_zero_on_noisy_constant(self, beta):
        u = noisy_constant()
        assert np.all(linearized_hjb_matrix(zero_ham(beta), 0.0, u).toarray() == 0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_transport_and_residual_see_a_constant(self, beta):
        u = noisy_constant(seed=1)
        m = np.random.default_rng(4).normal(size=(8, 8))
        ham = zero_ham(beta)
        assert np.all(transport_apply(ham, u, m) == 0.0)
        lap = laplace_array(u)
        res = hjb_residual(ham, NU, 0.1, u, u, np.zeros((8, 8)))
        assert np.array_equal(res, -NU * lap)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fp_matrix_matches_transport_at_small_beta(self, seed):
        ham = zero_ham(1.5)
        rough = np.random.default_rng(seed).normal(size=(8, 8))
        for u in (noisy_constant(seed=seed), rough):
            a = hjb_jacobian(ham, NU, 0.05, u).T.toarray()
            dense = dense_fp_from_transport(ham, NU, 0.05, u)
            assert np.max(np.abs(a - dense)) <= 1e-12 * np.max(np.abs(a))


class TestAssembly:
    """The five-point matrices against dense ones assembled column by column
    through the roll-based operators.  At N = 2 the i+1 and i-1 neighbours
    (and the j+1 and j-1 ones) coincide, so their entries must be summed."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_matrices_match_dense_oracles(self, n, beta):
        rng = np.random.default_rng(20 + n)
        g = TorusGrid(n)
        ham = PowerHamiltonian(beta, GridField(g, rng.normal(size=(n, n))))
        u = rng.normal(size=(n, n))
        nu, dt = 0.7, 0.05
        lin = dense_linearized(ham, nu, u)
        for got, expect in (
            (linearized_hjb_matrix(ham, nu, u), lin),
            (hjb_jacobian(ham, nu, dt, u), np.eye(n * n) / dt + lin),
            (hjb_jacobian(ham, nu, dt, u).T, dense_fp_from_transport(ham, nu, dt, u)),
        ):
            err = np.max(np.abs(got.toarray() - expect))
            assert err <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_bit_identical_to_coo_reference(self, n, beta):
        # at N = 1 all five stencil entries share one slot, at N = 2 pairs do
        rng = np.random.default_rng(30 + n)
        g = TorusGrid(n)
        ham = PowerHamiltonian(beta, GridField(g, rng.normal(size=(n, n))))
        p = ErgodicProblem(nu=0.7, hamiltonian=ham, cost=LocalCost.power(2.0), grid=g)
        u = rng.normal(size=(n, n))
        dt = 0.05
        lin = coo_five_point(ham, p.nu, u, 0.0)
        jac = coo_five_point(ham, p.nu, u, 1.0 / dt)
        border = sp.bmat(
            [
                [lin, sp.csr_matrix(np.ones((n * n, 1)))],
                [sp.csr_matrix(g.h**2 * np.ones((1, n * n))), None],
            ]
        )
        built = [
            (linearized_hjb_matrix(ham, p.nu, u), lin),
            (hjb_jacobian(ham, p.nu, dt, u), jac),
            (hjb_jacobian(ham, p.nu, dt, u).T, jac.T),
            (_bordered_jacobian(p, u), border),
        ]
        for got, expect in built:
            assert np.array_equal(got.toarray(), expect.toarray())
        # a second call computes only the values, on the same read-only indices
        again = [
            linearized_hjb_matrix(ham, p.nu, 2.0 * u),
            hjb_jacobian(ham, p.nu, dt, 2.0 * u),
            hjb_jacobian(ham, p.nu, dt, 2.0 * u).T,
            _bordered_jacobian(p, 2.0 * u),
        ]
        for (first, _), second in zip(built, again):
            for name in ("indices", "indptr"):
                a, b = getattr(first, name), getattr(second, name)
                assert np.shares_memory(a, b) and not a.flags.writeable


class TestFpStep:
    def test_heat_step_on_constant(self):
        ham = zero_ham()
        out, clamp = fp_step_solve(ham, NU, 0.1, np.full((8, 8), 3.0), np.ones((8, 8)))
        assert np.max(np.abs(out - 1.0)) < 1e-12
        assert clamp == 0.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(8)
        ham = zero_ham()
        u_next = rng.normal(size=(8, 8))
        m_next = np.abs(rng.normal(1.0, 0.3, (8, 8)))
        contract = LinearSolveContract()
        out, _ = fp_step_solve(ham, NU, 0.05, u_next, m_next, contract)
        h2 = TorusGrid(8).h ** 2
        assert abs(h2 * np.sum(out) - h2 * np.sum(m_next)) <= 10 * contract.residual_tol

    def test_matches_dense_direct_solve(self):
        # oracle: assemble the step operator densely through the defining
        # formula (1/dt) m - nu Lap m - transport(u, m) applied to unit vectors
        rng = np.random.default_rng(9)
        ham = zero_ham(n=4)
        dt = 0.05
        u_next = rng.normal(size=(4, 4))
        m_next = np.abs(rng.normal(1.0, 0.3, (4, 4)))
        dense = dense_fp_from_transport(ham, NU, dt, u_next)
        expect = np.linalg.solve(dense, m_next.ravel() / dt)
        got, _ = fp_step_solve(ham, NU, dt, u_next, m_next)
        assert np.max(np.abs(got.ravel() - expect)) < 1e-10

    def test_positivity_preserved(self):
        rng = np.random.default_rng(10)
        ham = zero_ham()
        for _ in range(5):
            u_next = rng.normal(size=(8, 8))
            m_next = np.abs(rng.normal(1.0, 0.5, (8, 8)))
            out, _ = fp_step_solve(ham, NU, 0.1, u_next, m_next)
            assert np.min(out) >= 0.0

    def test_returns_fresh_array_and_keeps_inputs(self):
        # the density sweep passes the views u[n + 1] and m[n + 1]
        rng = np.random.default_rng(16)
        u = rng.normal(size=(3, 8, 8))
        m = np.abs(rng.normal(1.0, 0.3, (3, 8, 8)))
        before = (u.copy(), m.copy())
        out, _ = fp_step_solve(zero_ham(), NU, 0.05, u[2], m[2])
        assert out.shape == (8, 8) and out.dtype == np.float64
        assert not np.shares_memory(out, u) and not np.shares_memory(out, m)
        assert np.array_equal(u, before[0]) and np.array_equal(m, before[1])

    def test_matrix_sign_structure(self):
        rng = np.random.default_rng(11)
        ham = zero_ham()
        u = rng.normal(size=(8, 8))
        a = hjb_jacobian(ham, NU, 0.05, u).T.toarray()
        off = a - np.diag(np.diag(a))
        assert np.all(np.diag(a) > 0)
        assert np.all(off <= 1e-14)
        # column sums reduce to 1/dt: the conservation structure
        assert np.allclose(a.sum(axis=0), 1.0 / 0.05, atol=1e-9)

    def test_clamp_limit_exposed(self):
        assert CLAMP_LIMIT == 1e-12

    def test_clamp_keeps_mass_and_rejects_real_undershoot(self):
        x, clamp = _clamp_density(np.array([2.0, -1e-13, 1.0]))
        assert clamp == 1e-13
        assert x[1] == 0.0 and np.min(x) == 0.0
        assert abs(np.sum(x) - (3.0 - 1e-13)) <= 4e-16
        x, clamp = _clamp_density(np.array([2.0, 0.0, 1.0]))
        assert clamp == 0.0 and np.array_equal(x, [2.0, 0.0, 1.0])
        with pytest.raises(PositivityError, match="clamp limit"):
            _clamp_density(np.array([1.0, -2e-12]))


def ergodic_sines(n):
    g = TorusGrid(n)
    return ErgodicProblem(
        nu=1.0,
        hamiltonian=PowerHamiltonian(2.0, hamiltonian_preset("sines", g)),
        cost=LocalCost.power(2.0),
        grid=g,
    )


class TestFactorization:
    @pytest.mark.parametrize(
        "n, bordered", [(2, False), (3, False), (8, False), (2, True), (3, True), (8, True)]
    )
    def test_solves_match_dense(self, n, bordered):
        # N = 2 has coinciding neighbours; the bordered Jacobian adds one
        # unknown past the N^2 grid nodes
        rng = np.random.default_rng(n)
        u = rng.normal(size=(n, n))
        p = ergodic_sines(n)
        if bordered:
            a = _bordered_jacobian(p, u)
        else:
            a = hjb_jacobian(p.hamiltonian, 0.6, 0.05, u)
        dense = a.toarray()
        before = dense.copy()
        b = rng.normal(size=dense.shape[0])
        lu = _DissectedLU(a)
        for trans, m in (("N", dense), ("T", dense.T)):
            expect = np.linalg.solve(m, b)
            got = lu.solve(b, trans=trans)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
        assert np.array_equal(a.toarray(), before)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_transposed_checked_solve_matches_dense(self, n):
        # the density step's solve: J^T x = b with the factor of J, checked
        # against J^T; a rough u makes J far from symmetric
        rng = np.random.default_rng(40 + n)
        u = rng.normal(size=(n, n))
        j = hjb_jacobian(ergodic_sines(n).hamiltonian, 0.6, 0.05, u)
        dense = j.toarray()
        assert np.max(np.abs(dense - dense.T)) > 0.1 * np.max(np.abs(dense))
        b = rng.normal(size=n * n)
        expect = np.linalg.solve(dense.T, b)
        got = _solve_checked(j, b, LinearSolveContract(), "T")
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_ergodic_solve_orders_only_the_bordered_layout(self):
        # the ergodic model factors only the bordered matrix, so the factor
        # order of the unbordered pattern is never built; a fresh process
        # holds no layout another test built
        script = textwrap.dedent(
            """
            from mfgfd.cost_ops import LocalCost
            from mfgfd.hamiltonian import PowerHamiltonian
            from mfgfd.linear import _layout
            from mfgfd.presets import hamiltonian_preset
            from mfgfd.solver import ErgodicProblem, solve_ergodic
            from mfgfd.torus_grid import TorusGrid

            g = TorusGrid(6)
            ham = PowerHamiltonian(2.0, hamiltonian_preset("sines", g))
            solve_ergodic(ErgodicProblem(1.0, ham, LocalCost.power(2.0), g))
            assert _layout.cache_info().currsize == 2
            assert "factor_order" in vars(_layout(6, True))
            assert "factor_order" not in vars(_layout(6, False))
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr

    def test_rejects_matrix_off_the_pattern(self):
        # the pattern is structurally symmetric, so a CSC matrix carries the
        # index arrays of the CSR pattern; factoring its data as CSR would
        # factor the transpose of the matrix meant
        j = hjb_jacobian(ergodic_sines(8).hamiltonian, 0.6, 0.05, cosine())
        for a in (sp.identity(64, format="csr"), j.T, sp.csc_matrix(j)):
            with pytest.raises(ValueError, match="pattern"):
                _DissectedLU(a)

    def test_fill_below_default_ordering(self):
        # the bordered Jacobian's dense row and column stay last
        n = 64
        x1, x2 = TorusGrid(n).node_coords()
        u = 0.3 * np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        j = _bordered_jacobian(ergodic_sines(n), u)
        assert _DissectedLU(j)._lu.nnz <= 0.75 * spla.splu(sp.csc_matrix(j)).nnz


class TestNonFiniteSolves:
    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_contract_needs_positive_tolerance(self, tol):
        # such a tolerance would only fail at the first solve, as a residual
        # that "exceeds contract"
        with pytest.raises(ValueError, match="residual_tol"):
            LinearSolveContract(residual_tol=tol)

    def test_infinite_rhs_raises(self):
        a = hjb_jacobian(zero_ham(), NU, 0.05, cosine())
        b = np.ones(64)
        b[5] = np.inf
        for trans in ("N", "T"):
            with pytest.raises(LinearSolveError):
                _solve_checked(a, b, LinearSolveContract(), trans)

    def test_nan_density_raises(self):
        m_next = np.ones((8, 8))
        m_next[3, 4] = np.nan
        with pytest.raises(LinearSolveError):
            fp_step_solve(zero_ham(), NU, 0.05, cosine(), m_next)

    def test_singular_factor_raises(self):
        # SuperLU reports "Factor is exactly singular" as a plain RuntimeError
        a = five_point_matrix(np.zeros((4, 4, 5)))
        with pytest.raises(LinearSolveError, match="singular"):
            _solve_checked(a, np.ones(16), LinearSolveContract())

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
    def test_steps_reject_nonfinite_or_nonpositive_nu(self, nu):
        # a NaN nu passes a plain nu <= 0 test and ends in a singular factor
        u, m = cosine(), np.ones((8, 8))
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            hjb_step_solve(zero_ham(), nu, 0.05, u, np.zeros((8, 8)))
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            fp_step_solve(zero_ham(), nu, 0.05, u, m)


class TestAdjointStructure:
    def test_constant_u_reduces_to_laplacian_symmetry(self):
        rng = np.random.default_rng(12)
        ham = zero_ham()
        u = np.ones((8, 8))
        v = rng.normal(size=(8, 8))
        m = rng.normal(size=(8, 8))
        lhs = inner(linearized_hjb_apply(ham, NU, u, v), m)
        rhs = inner(v, adjoint_apply(ham, NU, u, m))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_contract_at_all_sizes(self, n):
        rng = np.random.default_rng(13 + n)
        ham = zero_ham(n=n)
        u = rng.normal(size=(n, n))
        assert adjoint_check(ham, NU, u, probes=20, seed=n) <= 1e-12

    def test_bilinearity_scaling(self):
        # both pairings are linear in v, so scaling v scales each side (and
        # therefore any defect) by the same factor
        rng = np.random.default_rng(14)
        ham = zero_ham()
        u = rng.normal(size=(8, 8))
        v = rng.normal(size=(8, 8))
        m = rng.normal(size=(8, 8))
        lhs = inner(linearized_hjb_apply(ham, NU, u, v), m)
        rhs = inner(v, adjoint_apply(ham, NU, u, m))
        v10 = 10.0 * v
        lhs10 = inner(linearized_hjb_apply(ham, NU, u, v10), m)
        rhs10 = inner(v10, adjoint_apply(ham, NU, u, m))
        assert lhs10 == pytest.approx(10.0 * lhs, rel=1e-12)
        assert rhs10 == pytest.approx(10.0 * rhs, rel=1e-12)

    def test_laplacian_matrix_matches_operator(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=(8, 8))
        lap = -linearized_hjb_matrix(zero_ham(n=8), 1.0, np.ones((8, 8)))
        assert np.allclose(lap @ u.ravel(), laplace_array(u).ravel(), atol=1e-11)
