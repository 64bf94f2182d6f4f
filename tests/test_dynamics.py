"""Step operators: residuals, Newton step, transport duality, density step, adjoint."""

import numpy as np
import pytest

from mfgfd.dynamics import (
    CLAMP_LIMIT,
    HjbStepConfig,
    LinearSolveContract,
    NonConvergence,
    PositivityError,
    _clamp_density,
    adjoint_apply,
    adjoint_check,
    fp_matrix,
    fp_step_solve,
    hjb_jacobian,
    hjb_residual,
    hjb_step_picard,
    hjb_step_solve,
    linearized_hjb_apply,
    linearized_hjb_matrix,
    transport_apply,
)
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.torus_grid import GridField, TorusGrid, inner2, laplace5, mass, stencil_array

NU = 1.0


def zero_ham(beta=2.0, n=8):
    return PowerHamiltonian(beta, GridField.zeros(TorusGrid(n)))


def naive_hjb_residual(ham, nu, dt, u_next, u_cur, phi):
    # independent per-node loop over the defining formula, with the value
    # potential + |p|^beta at the upwind part p = (q1^-, q2^+, q3^-, q4^+)
    n = u_next.grid.n_side
    out = np.zeros((n, n))
    st = stencil_array(u_next.values, u_next.grid.h)
    lap = laplace5(u_next)
    for i in range(n):
        for j in range(n):
            q1, q2, q3, q4 = st[i, j]
            p2 = max(-q1, 0.0) ** 2 + max(q2, 0.0) ** 2 + max(-q3, 0.0) ** 2 + max(q4, 0.0) ** 2
            out[i, j] = (
                (u_next.at(i, j) - u_cur.at(i, j)) / dt
                - nu * lap.at(i, j)
                + ham.potential.at(i, j)
                + p2 ** (ham.beta / 2)
                - phi.at(i, j)
            )
    return out


def dense_fp_from_transport(ham, nu, dt, u):
    """Density-step operator assembled densely from its defining formula.

    Column k is (1/dt) e_k - nu Lap e_k - transport(u, e_k).
    """
    n = u.grid.n_side
    cols = []
    for k in range(n * n):
        e = np.zeros(n * n)
        e[k] = 1.0
        ek = GridField(u.grid, e.reshape(n, n))
        cols.append(
            e / dt - nu * laplace5(ek).values.ravel() - transport_apply(ham, u, ek).values.ravel()
        )
    return np.stack(cols, axis=1)


def dense_linearized(ham, nu, u):
    """-nu L + B(u) assembled densely: column k is linearized_hjb_apply(e_k)."""
    n = u.grid.n_side
    cols = [
        linearized_hjb_apply(ham, nu, u, GridField(u.grid, e.reshape(n, n))).values.ravel()
        for e in np.eye(n * n)
    ]
    return np.stack(cols, axis=1)


class TestHjbResidual:
    def test_constant_balance(self):
        ham = zero_ham()
        g = ham.grid
        u = GridField.constant(g, 2.0)
        res = hjb_residual(ham, NU, 0.1, u, u, GridField.zeros(g))
        assert np.max(np.abs(res.values)) == 0.0

    def test_constant_potential_balance(self):
        g = TorusGrid(8)
        c = 0.7
        ham = PowerHamiltonian(2.0, GridField.constant(g, c))
        dt = 0.05
        u_cur = GridField.zeros(g)
        u_next = GridField.constant(g, -dt * c)
        res = hjb_residual(ham, NU, dt, u_next, u_cur, GridField.zeros(g))
        assert np.max(np.abs(res.values)) < 1e-14

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.5, GridField(g, rng.normal(size=(8, 8))))
        u_next = GridField(g, rng.normal(size=(8, 8)))
        u_cur = GridField(g, rng.normal(size=(8, 8)))
        phi = GridField(g, rng.normal(size=(8, 8)))
        got = hjb_residual(ham, NU, 0.02, u_next, u_cur, phi)
        assert np.allclose(got.values, naive_hjb_residual(ham, NU, 0.02, u_next, u_cur, phi), atol=1e-11)


class TestHjbStep:
    def test_zero_fixed_point(self):
        ham = zero_ham()
        g = ham.grid
        out = hjb_step_solve(ham, NU, 0.1, GridField.zeros(g), GridField.zeros(g))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_constant_cost_shift(self):
        ham = zero_ham()
        g = ham.grid
        out = hjb_step_solve(ham, NU, 0.1, GridField.zeros(g), GridField.constant(g, 1.0))
        assert np.max(np.abs(out.values - 0.1)) < 1e-13

    def test_residual_contract_on_smooth_data(self):
        g = TorusGrid(8)
        ham = zero_ham()
        u_cur = GridField.from_function(g, lambda x1, x2: np.cos(2 * np.pi * x1))
        out = hjb_step_solve(ham, NU, 0.01, u_cur, GridField.zeros(g))
        res = hjb_residual(ham, NU, 0.01, out, u_cur, GridField.zeros(g))
        assert np.max(np.abs(res.values)) <= 1e-11

    def test_agrees_with_picard_oracle_at_small_dt(self):
        g = TorusGrid(8)
        ham = zero_ham()
        dt = 1e-3
        u_cur = GridField.from_function(g, lambda x1, x2: np.cos(2 * np.pi * x1))
        newton = hjb_step_solve(ham, NU, dt, u_cur, GridField.zeros(g))
        picard = hjb_step_picard(ham, NU, dt, u_cur, GridField.zeros(g), tol=1e-13)
        assert np.max(np.abs(newton.values - picard.values)) <= 1e-9

    def test_comparison_lower_bound(self):
        # nonnegative cost keeps the next slice above min(u) - dt * max(potential)+
        rng = np.random.default_rng(1)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField(g, rng.normal(0.5, 1.0, (8, 8))))
        u_cur = GridField(g, rng.normal(size=(8, 8)))
        phi = GridField(g, np.abs(rng.normal(size=(8, 8))))
        dt = 0.05
        out = hjb_step_solve(ham, NU, dt, u_cur, phi)
        bound = np.min(u_cur.values) - dt * max(0.0, np.max(ham.potential.values))
        assert np.min(out.values) >= bound - 1e-12

    def test_nonconvergence_raises_with_details(self):
        g = TorusGrid(8)
        ham = zero_ham()
        cfg = HjbStepConfig(max_newton=1, newton_tol=1e-15)
        u_cur = GridField.from_function(g, lambda x1, x2: 5 * np.cos(2 * np.pi * x1))
        with pytest.raises(NonConvergence) as err:
            hjb_step_solve(ham, NU, 0.5, u_cur, GridField.zeros(g), cfg=cfg)
        assert err.value.iterations >= 1
        assert err.value.final_residual > 0

    def test_jacobian_is_m_matrix(self):
        rng = np.random.default_rng(2)
        g = TorusGrid(8)
        ham = PowerHamiltonian(1.5, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(8, 8)))
        jac = hjb_jacobian(ham, NU, 0.1, u).toarray()
        off = jac - np.diag(np.diag(jac))
        assert np.all(np.diag(jac) > 0)
        assert np.all(off <= 1e-14)


class TestTransport:
    def test_constant_u_gives_zero(self):
        rng = np.random.default_rng(3)
        ham = zero_ham()
        g = ham.grid
        m = GridField(g, rng.normal(size=(8, 8)))
        out = transport_apply(ham, GridField.constant(g, 1.0), m)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_duality_identity(self, beta):
        rng = np.random.default_rng(4)
        g = TorusGrid(8)
        ham = PowerHamiltonian(beta, GridField.zeros(g))
        for _ in range(10):
            u = GridField(g, rng.normal(size=(8, 8)))
            m = GridField(g, rng.normal(size=(8, 8)))
            w = GridField(g, rng.normal(size=(8, 8)))
            lhs = inner2(transport_apply(ham, u, m), w)
            grads = ham.grad_grid(stencil_array(u.values, g.h))
            dw = stencil_array(w.values, g.h)
            rhs = -float(np.sum(m.values[..., None] * grads * dw))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)

    def test_conservation(self):
        rng = np.random.default_rng(5)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(8, 8)))
        m = GridField(g, rng.normal(size=(8, 8)))
        assert abs(np.sum(transport_apply(ham, u, m).values)) < 1e-11

    def test_linear_in_density(self):
        rng = np.random.default_rng(6)
        ham = zero_ham()
        g = ham.grid
        u = GridField(g, rng.normal(size=(8, 8)))
        m1 = GridField(g, rng.normal(size=(8, 8)))
        m2 = GridField(g, rng.normal(size=(8, 8)))
        combo = transport_apply(ham, u, GridField(g, 2.0 * m1.values - 3.0 * m2.values))
        split = 2.0 * transport_apply(ham, u, m1).values - 3.0 * transport_apply(ham, u, m2).values
        assert np.allclose(combo.values, split, atol=1e-11)

    def test_matches_transposed_advection_matrix(self):
        # the roll-based formula equals minus the transpose of the value-step
        # advection block applied to m
        rng = np.random.default_rng(7)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(8, 8)))
        m = GridField(g, rng.normal(size=(8, 8)))
        via_matrix = -(linearized_hjb_matrix(ham, 0.0, u).T @ m.flat())
        direct = transport_apply(ham, u, m).flat()
        assert np.allclose(via_matrix, direct, atol=1e-12)


def noisy_constant(n=8, level=3.0, seed=0):
    """A constant slice carrying the eps-level roundoff a sparse LU solve leaves."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    return GridField(TorusGrid(n), level * (1.0 + eps * rng.integers(-2, 3, size=(n, n))))


class TestStencilFloor:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_advection_matrix_zero_on_noisy_constant(self, beta):
        u = noisy_constant()
        assert np.all(linearized_hjb_matrix(zero_ham(beta), 0.0, u).toarray() == 0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_transport_and_residual_see_a_constant(self, beta):
        u = noisy_constant(seed=1)
        m = GridField(u.grid, np.random.default_rng(4).normal(size=(8, 8)))
        ham = zero_ham(beta)
        assert np.all(transport_apply(ham, u, m).values == 0.0)
        lap = laplace5(u).values
        res = hjb_residual(ham, NU, 0.1, u, u, GridField.zeros(u.grid)).values
        assert np.array_equal(res, -NU * lap)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fp_matrix_matches_transport_at_small_beta(self, seed):
        ham = zero_ham(1.5)
        rough = GridField(ham.grid, np.random.default_rng(seed).normal(size=(8, 8)))
        for u in (noisy_constant(seed=seed), rough):
            a = fp_matrix(ham, NU, 0.05, u).toarray()
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
        u = GridField(g, rng.normal(size=(n, n)))
        nu, dt = 0.7, 0.05
        lin = dense_linearized(ham, nu, u)
        for got, expect in (
            (linearized_hjb_matrix(ham, nu, u), lin),
            (hjb_jacobian(ham, nu, dt, u), np.eye(n * n) / dt + lin),
            (fp_matrix(ham, nu, dt, u), dense_fp_from_transport(ham, nu, dt, u)),
        ):
            err = np.max(np.abs(got.toarray() - expect))
            assert err <= 1e-12 * np.max(np.abs(expect))


class TestFpStep:
    def test_heat_step_on_constant(self):
        ham = zero_ham()
        g = ham.grid
        m_next = GridField.constant(g, 1.0)
        out, clamp = fp_step_solve(ham, NU, 0.1, GridField.constant(g, 3.0), m_next)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12
        assert clamp == 0.0

    def test_mass_conservation(self):
        rng = np.random.default_rng(8)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u_next = GridField(g, rng.normal(size=(8, 8)))
        m_next = GridField(g, np.abs(rng.normal(1.0, 0.3, (8, 8))))
        contract = LinearSolveContract()
        out, _ = fp_step_solve(ham, NU, 0.05, u_next, m_next, contract)
        assert abs(mass(out) - mass(m_next)) <= 10 * contract.residual_tol

    def test_matches_dense_direct_solve(self):
        # oracle: assemble the step operator densely through the defining
        # formula (1/dt) m - nu Lap m - transport(u, m) applied to unit vectors
        rng = np.random.default_rng(9)
        g = TorusGrid(4)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        dt = 0.05
        u_next = GridField(g, rng.normal(size=(4, 4)))
        m_next = GridField(g, np.abs(rng.normal(1.0, 0.3, (4, 4))))
        dense = dense_fp_from_transport(ham, NU, dt, u_next)
        expect = np.linalg.solve(dense, m_next.flat() / dt)
        got, _ = fp_step_solve(ham, NU, dt, u_next, m_next)
        assert np.max(np.abs(got.flat() - expect)) < 1e-10

    def test_positivity_preserved(self):
        rng = np.random.default_rng(10)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        for _ in range(5):
            u_next = GridField(g, rng.normal(size=(8, 8)))
            m_next = GridField(g, np.abs(rng.normal(1.0, 0.5, (8, 8))))
            out, _ = fp_step_solve(ham, NU, 0.1, u_next, m_next)
            assert np.min(out.values) >= 0.0

    def test_matrix_sign_structure(self):
        rng = np.random.default_rng(11)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(8, 8)))
        a = fp_matrix(ham, NU, 0.05, u).toarray()
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


class TestAdjointStructure:
    def test_constant_u_reduces_to_laplacian_symmetry(self):
        rng = np.random.default_rng(12)
        ham = zero_ham()
        g = ham.grid
        u = GridField.constant(g, 1.0)
        v = GridField(g, rng.normal(size=(8, 8)))
        m = GridField(g, rng.normal(size=(8, 8)))
        lhs = inner2(linearized_hjb_apply(ham, NU, u, v), m)
        rhs = inner2(v, adjoint_apply(ham, NU, u, m))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_contract_at_all_sizes(self, n):
        rng = np.random.default_rng(13 + n)
        g = TorusGrid(n)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(n, n)))
        assert adjoint_check(ham, NU, u, probes=20, seed=n) <= 1e-12

    def test_bilinearity_scaling(self):
        # both pairings are linear in v, so scaling v scales each side (and
        # therefore any defect) by the same factor
        rng = np.random.default_rng(14)
        g = TorusGrid(8)
        ham = PowerHamiltonian(2.0, GridField.zeros(g))
        u = GridField(g, rng.normal(size=(8, 8)))
        v = GridField(g, rng.normal(size=(8, 8)))
        m = GridField(g, rng.normal(size=(8, 8)))
        lhs = inner2(linearized_hjb_apply(ham, NU, u, v), m)
        rhs = inner2(v, adjoint_apply(ham, NU, u, m))
        v10 = GridField(g, 10.0 * v.values)
        lhs10 = inner2(linearized_hjb_apply(ham, NU, u, v10), m)
        rhs10 = inner2(v10, adjoint_apply(ham, NU, u, m))
        assert lhs10 == pytest.approx(10.0 * lhs, rel=1e-12)
        assert rhs10 == pytest.approx(10.0 * rhs, rel=1e-12)

    def test_laplacian_matrix_matches_operator(self):
        rng = np.random.default_rng(15)
        g = TorusGrid(8)
        u = GridField(g, rng.normal(size=(8, 8)))
        lap = -linearized_hjb_matrix(zero_ham(n=8), 1.0, GridField.constant(g, 1.0))
        assert np.allclose(lap @ u.flat(), laplace5(u).flat(), atol=1e-11)
