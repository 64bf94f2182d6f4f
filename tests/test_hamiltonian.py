"""Upwind Hamiltonian: values, gradients, convexity structure, inequality suite."""

import numpy as np
import pytest

from mfgfd.hamiltonian import (
    STENCIL_FLOOR,
    PowerHamiltonian,
    bregman_gap_array,
    hamiltonian_stencil,
    inequality_suite,
    upwind_part,
    weighted_bregman_gap,
)
from mfgfd.torus_grid import (
    GridField,
    TorusGrid,
    stencil_array,
)


def plain(u):
    return stencil_array(u.values)


def floored(u):
    return hamiltonian_stencil(u.values)


def zero_ham(beta, n=4):
    return PowerHamiltonian(beta, GridField.zeros(TorusGrid(n)))


def value_at(ham, q, node=(0, 0)):
    """``value_grid`` at one node of a stencil array holding q at every node."""
    shape = ham.potential.values.shape + (4,)
    return ham.value_grid(np.broadcast_to(np.asarray(q, dtype=float), shape))[node]


class TestValue:
    def test_upwind_discards_wrong_signs(self):
        ham = zero_ham(2.0)
        assert value_at(ham, [1.0, -1.0, 2.0, -2.0]) == 0.0

    def test_all_active(self):
        ham = zero_ham(2.0)
        assert value_at(ham, [-1.0, 1.0, -1.0, 1.0]) == 4.0

    def test_consistency_with_plain_power(self):
        # repeated arguments reproduce potential + |q|^beta, machine-exactly
        rng = np.random.default_rng(0)
        for beta in (1.5, 2.0, 3.0):
            ham = PowerHamiltonian(
                beta, GridField(TorusGrid(4), rng.normal(size=(4, 4)))
            )
            for _ in range(10000):
                i, j = rng.integers(0, 4, size=2)
                q1, q2 = rng.normal(size=2)
                got = value_at(ham, [q1, q1, q2, q2], (i, j))
                expect = ham.potential.values[i, j] + (q1**2 + q2**2) ** (beta / 2)
                assert abs(got - expect) <= 4 * np.finfo(float).eps * max(1.0, abs(expect))
        assert value_at(zero_ham(2.0), [3.0, 3.0, 4.0, 4.0]) == 25.0

    def test_monotonicity_directions(self):
        rng = np.random.default_rng(1)
        ham = zero_ham(2.0)
        for _ in range(200):
            q = rng.normal(scale=2.0, size=4)
            base = value_at(ham, q)
            eps = 0.3
            for k, sign in ((0, -1), (1, +1), (2, -1), (3, +1)):
                bumped = q.copy()
                bumped[k] += eps
                diff = value_at(ham, bumped) - base
                assert sign * diff >= -1e-12

    def test_beta_must_exceed_one(self):
        with pytest.raises(ValueError, match="beta"):
            zero_ham(1.0)
        with pytest.raises(ValueError, match="beta"):
            zero_ham(0.5)


class TestGradient:
    def test_zero_at_kink(self):
        for beta in (1.5, 2.0, 3.0):
            assert np.all(zero_ham(beta).grad_grid([0.0, 0.0, 0.0, 0.0]) == 0.0)
        assert np.all(zero_ham(2.0).grad_grid([1.0, -1.0, 2.0, -2.0]) == 0.0)

    def test_known_values(self):
        assert np.array_equal(zero_ham(2.0).grad_grid([-1, 1, -1, 1]), [-2.0, 2.0, -2.0, 2.0])
        assert np.array_equal(zero_ham(3.0).grad_grid([-1, 0, 0, 0]), [-3.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_matches_central_differences(self, beta):
        ham = zero_ham(beta)
        rng = np.random.default_rng(2)
        step = 1e-6
        checked = 0
        while checked < 100:
            q = rng.normal(scale=2.0, size=4)
            if np.min(np.abs(q)) < 1e-3 or np.linalg.norm(upwind_part(q)) < 1e-3:
                continue
            g = ham.grad_grid(q)
            for k in range(4):
                qp, qm = q.copy(), q.copy()
                qp[k] += step
                qm[k] -= step
                fd = (value_at(ham, qp) - value_at(ham, qm)) / (2 * step)
                assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-5)
            checked += 1

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_hessian_matches_gradient_differences(self, beta):
        ham = zero_ham(beta)
        rng = np.random.default_rng(3)
        step = 1e-6
        checked = 0
        while checked < 50:
            p = np.abs(rng.normal(scale=2.0, size=4))
            if np.linalg.norm(p) < 1e-3 or np.min(p) < 1e-2:
                continue
            hess = ham.gauge_hessian(p)
            # gradient of the gauge at interior p: restrict to q with all slots
            # active, where moving p[k] by +step moves q[k] by signs[k] * step
            q = np.array([-p[0], p[1], -p[2], p[3]])
            signs = np.array([-1.0, 1.0, -1.0, 1.0])
            for k in range(4):
                qp, qm = q.copy(), q.copy()
                qp[k] += step * signs[k]
                qm[k] -= step * signs[k]
                gp = ham.grad_grid(qp) * signs  # back to gauge-gradient components
                gm = ham.grad_grid(qm) * signs
                fd_col = (gp - gm) / (2 * step)
                assert np.allclose(fd_col, hess[:, k], rtol=1e-4, atol=1e-4)
            checked += 1


def noisy_constant(n=8, level=3.0, seed=0):
    """A constant slice carrying the eps-level roundoff a sparse LU solve leaves."""
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    return GridField(TorusGrid(n), level * (1.0 + eps * rng.integers(-2, 3, size=(n, n))))


class TestStencilFloor:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_gradient_exactly_zero_on_noisy_constant(self, beta):
        u = noisy_constant()
        ham = PowerHamiltonian(beta, GridField.zeros(u.grid))
        # the plain stencils are roundoff, not zero, and the plain gradient
        # sees them
        assert np.any(plain(u) != 0.0)
        assert np.any(ham.grad_grid(plain(u)) != 0.0)
        assert np.all(floored(u) == 0.0)
        assert np.all(ham.grad_grid(floored(u)) == 0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_value_equals_potential_on_noisy_constant(self, beta):
        # a zero potential shows any leftover |p|^beta, which an O(1) one absorbs
        u = noisy_constant(seed=1)
        rough = np.random.default_rng(2).normal(size=(8, 8))
        for pot in (GridField.zeros(u.grid), GridField(u.grid, rough)):
            ham = PowerHamiltonian(beta, pot)
            assert np.array_equal(ham.value_grid(floored(u)), pot.values)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_stencil_just_above_floor_passes_unchanged(self, beta):
        # a single step of 1.25 floors (exact in binary) against one just below
        g = TorusGrid(8)
        eps = np.finfo(float).eps
        ham = PowerHamiltonian(beta, GridField.zeros(g))
        for factor, kept in ((1.25, True), (0.75, False)):
            vals = np.ones((8, 8))
            vals[3, 5] = 1.0 + factor * STENCIL_FLOOR * eps
            u = GridField(g, vals)
            q = plain(u)
            floor = STENCIL_FLOOR * eps * float(np.max(vals)) / g.h
            assert np.max(np.abs(q)) == pytest.approx(factor * floor, rel=1e-12)
            if kept:
                assert np.array_equal(floored(u), q)
                assert np.any(ham.grad_grid(floored(u)) != 0.0)
            else:
                assert np.all(floored(u) == 0.0)

    def test_plain_differences_untouched_on_smooth_data(self):
        g = TorusGrid(8)
        u = GridField(g, np.random.default_rng(3).normal(size=(8, 8)))
        assert np.array_equal(floored(u), plain(u))


class TestBregmanGap:
    def test_zero_at_equal_arguments(self):
        ham = zero_ham(2.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.normal(size=4)
            assert bregman_gap_array(q, q, ham.beta) == 0.0

    def test_gap_from_origin(self):
        assert bregman_gap_array(np.zeros(4), np.array([-1.0, 1, -1, 1]), 2.0) == 4.0

    def test_gap_equality_case(self):
        # quadratic exponent: gap to the origin equals the squared distance bound
        gap = bregman_gap_array(np.zeros(4), np.array([-1.0, 1, -1, 1]), 2.0)
        p_dist = 4.0  # |p - p~|^2
        assert gap == pytest.approx(p_dist / (2 ** 0 * 1.0))

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_nonnegative_and_dominates_gauge_gap(self, beta):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = rng.normal(scale=2.0, size=4)
            qt = rng.normal(scale=2.0, size=4)
            gap = bregman_gap_array(q, qt, beta)
            assert gap >= -1e-12
            p, pt = upwind_part(q), upwind_part(qt)
            coef = (
                beta * np.sum(p * p) ** ((beta - 2) / 2) if np.any(p) else 0.0
            )
            gauge_gap = (
                np.sum(pt * pt) ** (beta / 2)
                - np.sum(p * p) ** (beta / 2)
                - np.sum(coef * p * (pt - p))
            )
            assert gap >= gauge_gap - 1e-12 * max(1.0, abs(gap), abs(gauge_gap))


class TestWeightedBregmanGap:
    def setup_method(self):
        self.grid = TorusGrid(4)
        self.ham = PowerHamiltonian(2.0, GridField.zeros(self.grid))

    def test_equal_trajectories(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(2, 4, 4))
        m = np.full((2, 4, 4), 1.0)
        assert weighted_bregman_gap(self.ham, m, u, u) == 0.0

    def test_zero_density(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=(2, 4, 4))
        ut = rng.normal(size=(2, 4, 4))
        m = np.full((2, 4, 4), 0.0)
        assert weighted_bregman_gap(self.ham, m, u, ut) == 0.0

    def test_brute_force_resummation(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(2, 4, 4))
        ut = rng.normal(size=(2, 4, 4))
        m = np.full((2, 4, 4), 1.0)
        got = weighted_bregman_gap(self.ham, m, u, ut)
        # independent per-node loop over the gap of one stencil pair
        st = plain(GridField(self.grid, u[1]))
        stt = plain(GridField(self.grid, ut[1]))
        expect = 0.0
        for i in range(4):
            for j in range(4):
                expect += m[0, i, j] * float(
                    bregman_gap_array(st[i, j], stt[i, j], self.ham.beta)
                )
        assert got == pytest.approx(expect, rel=1e-13)
        assert got > 0.0

    def test_mesh_mismatch_rejected(self):
        u = np.zeros((2, 4, 4))
        other = np.zeros((3, 4, 4))
        m = np.full((2, 4, 4), 1.0)
        with pytest.raises(ValueError, match="time mesh"):
            weighted_bregman_gap(self.ham, m, u, other)


class TestInequalitySuite:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_passes(self, beta):
        rep = inequality_suite(zero_ham(beta), 2000, seed=11)
        assert rep["pass"], rep
        ids = {c["lemma_id"] for c in rep["checks"]}
        assert "hessian_lower_bound" in ids
        assert "upwind_gap_transfer" in ids
        if beta >= 2.0:
            assert "gap_quadratic_lower" in ids
            assert "grad_diff_split_bound" in ids
            assert "weighted_gap_stencil_lower" in ids
        else:
            assert "gap_kink_lower" in ids
            assert "small_beta_chain_lower" in ids

    def test_calibration_floor_at_quadratic_exponent(self):
        rep = inequality_suite(zero_ham(2.0), 3000, seed=12)
        cal = next(
            c["calibrated_constants"] for c in rep["checks"] if c["lemma_id"] == "grad_diff_split_bound"
        )
        assert cal["c_analytic"] == 1.0
        assert cal["c_calibrated"] == 1.0  # floored
        assert cal["largest_observed_ratio"] <= 1.0 + 1e-12

    def test_calibration_recorded_below_analytic(self):
        rep = inequality_suite(zero_ham(3.0), 3000, seed=13)
        cal = next(
            c["calibrated_constants"] for c in rep["checks"] if c["lemma_id"] == "grad_diff_split_bound"
        )
        assert cal["c_analytic"] == 9.0
        assert 0.0 < cal["c_calibrated"] <= cal["c_analytic"] * (1 + 1e-12)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            inequality_suite(zero_ham(2.0), 0)

    def test_deterministic(self):
        a = inequality_suite(zero_ham(2.0), 500, seed=3)
        b = inequality_suite(zero_ham(2.0), 500, seed=3)
        assert a == b
