"""Coupled solvers, the perturbed-pair balance, and the a priori monitors."""

import dataclasses

import numpy as np
import pytest

from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.dynamics import HjbStepConfig, NonConvergence, fp_step_solve
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.linear import LinearSolveContract
from mfgfd.presets import hamiltonian_preset, terminal_density_preset, u0_preset
from mfgfd.solver import (
    ANDERSON_DEPTH,
    ErgodicProblem,
    EvolutiveProblem,
    FixedPointConfig,
    OuterNonConvergence,
    _damped_fixed_point,
    _ergodic_hjb_newton,
    _trajectory_monitors,
    evolutive_residuals,
    identity_terms,
    solve_ergodic,
    solve_evolutive,
    system_residuals,
)
from mfgfd.torus_grid import GridField, SpaceTimeField, TimeMesh, TorusGrid, mass


def sup(a):
    return float(np.max(np.abs(a)))


def zero_cost():
    """Trivial local cost, for decoupled heat-flow checks."""
    return LocalCost(
        f=lambda m: np.zeros_like(m),
        f_prime=None,
        delta=1.0,
        gamma=2.0,
        c1=0.0,
        delta_lower=1.0,
        eta1=0.5,
        eta2=0.5,
        name="zero",
    )


def uniform_problem(n=8, nt=8, beta=2.0, horizon=1.0):
    g = TorusGrid(n)
    return EvolutiveProblem(
        nu=1.0,
        hamiltonian=PowerHamiltonian(beta, GridField.zeros(g)),
        cost=LocalCost.linear(),
        u0=GridField.zeros(g),
        mT=DiscreteDensity.uniform(g),
        mesh=TimeMesh(horizon, nt),
        grid=g,
    )


def smooth_problem(n=8, nt=16, cost="bilaplacian", beta=2.0, nu=0.6):
    g = TorusGrid(n)
    cost_op = BilaplacianCost(g) if cost == "bilaplacian" else LocalCost.power(2.0)
    return EvolutiveProblem(
        nu=nu,
        hamiltonian=PowerHamiltonian(beta, hamiltonian_preset("sines", g, amplitude=1.0)),
        cost=cost_op,
        u0=u0_preset("cosine", g, amplitude=0.25),
        mT=terminal_density_preset("bump", g),
        mesh=TimeMesh(1.0, nt),
        grid=g,
    )


class TestEvolutiveSolver:
    def test_uniform_exact_solution(self):
        p = uniform_problem(n=8, nt=8)
        sol = solve_evolutive(p)
        dt = p.mesh.dt
        for n in range(9):
            assert sup(sol.u.values[n] - n * dt) < 1e-9
            assert sup(sol.m.values[n] - 1.0) < 1e-9

    @pytest.mark.parametrize("beta", [1.5, 3.0])
    def test_uniform_exact_any_exponent(self, beta):
        # the spatially uniform balance is exact for every exponent since the
        # Hamiltonian vanishes on constant slices
        p = uniform_problem(n=8, nt=8, beta=beta)
        sol = solve_evolutive(p)
        dt = p.mesh.dt
        for n in range(9):
            assert sup(sol.u.values[n] - n * dt) < 1e-9

    def test_uniform_exact_from_other_start(self):
        p = uniform_problem(n=8, nt=8)
        start = SpaceTimeField.from_array(p.mesh, p.grid, np.full((9, 8, 8), 0.5))
        # not a valid density trajectory, but any start must reach the target
        sol = solve_evolutive(p, initial_m=start)
        dt = p.mesh.dt
        for n in range(9):
            assert sup(sol.u.values[n] - n * dt) < 1e-9

    def test_boundary_slices_exact(self):
        p = smooth_problem(n=8, nt=8)
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        assert np.array_equal(sol.u.values[0], p.u0.values)
        assert np.array_equal(sol.m.values[-1], p.mT.field.values)

    def test_all_density_slices_in_simplex(self):
        p = smooth_problem(n=8, nt=8)
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        for s in sol.m.values:
            assert abs(mass(GridField(p.grid, s)) - 1.0) <= 1e-9
            assert float(np.min(s)) >= 0.0
        assert sol.diagnostics["max_clamp"] <= 1e-12

    def test_inner_residuals_at_return(self):
        p = smooth_problem(n=8, nt=8)
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        hjb_res, fp_res = evolutive_residuals(p, sol.u.values, sol.m.values)
        assert hjb_res <= 1e-9
        assert fp_res <= 1e-9

    def test_decoupled_heat_evolution(self):
        # zero cost and zero potential: u stays 0 and m is the plain implicit
        # heat chain pulled backward from the terminal density
        g = TorusGrid(8)
        p = EvolutiveProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
            cost=zero_cost(),
            u0=GridField.zeros(g),
            mT=terminal_density_preset("bump", g),
            mesh=TimeMesh(0.5, 8),
            grid=g,
        )
        sol = solve_evolutive(p)
        assert sup(sol.u.values) < 1e-12
        ham = p.hamiltonian
        m = p.mT.field.values
        chain = [m]
        for _ in range(8):
            m, _ = fp_step_solve(ham, 1.0, p.mesh.dt, np.zeros((8, 8)), m)
            chain.append(m)
        chain = chain[::-1]
        for ours, ref in zip(sol.m.values, chain):
            assert sup(ours - ref) < 1e-9

    def test_uniqueness_two_starts_agree(self):
        p = smooth_problem(n=8, nt=16)
        cfg = FixedPointConfig(damping=1.0)
        sol_a = solve_evolutive(
            p,
            cfg=cfg,
            initial_m=SpaceTimeField.from_array(p.mesh, p.grid, np.full((17, 8, 8), 1.0)),
        )
        start_b = SpaceTimeField(p.mesh, [p.mT.field] * (p.mesh.n_steps + 1))
        sol_b = solve_evolutive(p, cfg=cfg, initial_m=start_b)
        assert sup(sol_a.u.values - sol_b.u.values) <= 1e-8
        assert sup(sol_a.m.values - sol_b.m.values) <= 1e-8

    def test_deterministic_bitwise(self):
        p = smooth_problem(n=8, nt=8)
        sol_a = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        sol_b = solve_evolutive(smooth_problem(n=8, nt=8), cfg=FixedPointConfig(damping=1.0))
        for a, b in zip(sol_a.u.values, sol_b.u.values):
            assert np.array_equal(a, b)
        for a, b in zip(sol_a.m.values, sol_b.m.values):
            assert np.array_equal(a, b)

    def test_comparison_lower_bound_on_u(self):
        p = smooth_problem(n=8, nt=8, cost="power")
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        max_pot = float(np.max(p.hamiltonian.potential.values))
        min_cost = 0.0  # F(m) = m^2 >= 0
        bound = float(np.min(p.u0.values)) - p.mesh.horizon * max(0.0, max_pot - min_cost)
        assert min(float(np.min(s)) for s in sol.u.values) >= bound - 1e-8

    def test_outer_nonconvergence_raised(self):
        p = smooth_problem(n=8, nt=8)
        with pytest.raises(OuterNonConvergence) as err:
            solve_evolutive(p, cfg=FixedPointConfig(damping=0.5, max_outer=2))
        assert err.value.iters == 2
        assert err.value.last_change > 0

    def test_slow_exponent_converges_in_few_sweeps(self):
        # beta = 1.5 with the power cost took 301 sweeps of the plain blend
        p = smooth_problem(n=8, nt=16, cost="power", beta=1.5)
        sol = solve_evolutive(p, cfg=FixedPointConfig(max_outer=100))
        assert sol.outer_iters <= 100
        hjb_res, fp_res = evolutive_residuals(p, sol.u.values, sol.m.values)
        assert hjb_res <= 1e-9
        assert fp_res <= 1e-9

    @pytest.mark.parametrize("cost", ["power", "bilaplacian"])
    def test_large_exponent_end_to_end(self, cost):
        # beta > 2: the Hamiltonian grows faster than quadratic
        p = smooth_problem(n=8, nt=16, cost=cost, beta=3.0)
        sol = solve_evolutive(p, cfg=FixedPointConfig(max_outer=40))
        assert sol.outer_iters <= 40
        hjb_res, fp_res = evolutive_residuals(p, sol.u.values, sol.m.values)
        assert hjb_res <= 1e-9
        assert fp_res <= 1e-9
        h2 = p.grid.h ** 2
        assert np.max(np.abs(h2 * np.sum(sol.m.values, axis=(1, 2)) - 1.0)) <= 1e-12
        assert np.min(sol.m.values) >= 0.0
        assert sol.diagnostics["max_clamp"] <= 1e-12

    def test_unattainable_newton_tol_rejected(self):
        # the gate needs mismatch + newton_tol <= 1e-9, so these could never stop
        p = smooth_problem(n=8, nt=8)
        for tol in (1e-9, 2e-9):
            with pytest.raises(ValueError, match=rf"newton_tol {tol:.3e} .* 1e-09"):
                solve_evolutive(
                    p, cfg=FixedPointConfig(max_outer=5), hjb_cfg=HjbStepConfig(newton_tol=tol)
                )


@pytest.mark.parametrize("value", [float("nan"), 0, -1])
@pytest.mark.parametrize("field", ["newton_tol", "max_newton", "outer_tol", "max_outer"])
def test_settings_reject_nan_and_nonpositive(field, value):
    # a NaN tolerance would otherwise surface only later, as a NonConvergence
    cls = HjbStepConfig if field in ("newton_tol", "max_newton") else FixedPointConfig
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0])
def test_problems_reject_nonfinite_or_nonpositive_nu(nu):
    # a NaN or infinite nu would otherwise surface only in the first LU, as
    # a singular factor
    p = uniform_problem(n=4, nt=4)
    with pytest.raises(ValueError, match="nu must be positive and finite"):
        dataclasses.replace(p, nu=nu)
    with pytest.raises(ValueError, match="nu must be positive and finite"):
        ErgodicProblem(nu=nu, hamiltonian=p.hamiltonian, cost=p.cost, grid=p.grid)


def recording_sweep(rule):
    """Sweep ``m -> rule(m)`` that records every input and output it sees."""
    inputs, outputs = [], []

    def sweep(m, state):
        out = rule(m)
        inputs.append(m.copy())
        outputs.append(out)
        return out, state

    return sweep, inputs, outputs


def gate_reporting(m_new, state, history, theta, halvings):
    return {"sweeps": len(history), "theta": theta, "halvings": halvings, "m": m_new}


def slow_affine_contraction():
    """c and A of m -> c + A (m - c) on unit-mass 2x2 densities; A acts on zero-mass vectors."""
    c = np.array([[1.2, 0.9], [0.7, 1.2]])
    basis = np.linalg.qr(np.array([[1.0, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]).T)[0]
    return c, basis @ np.diag([0.95, -0.6, 0.8]) @ basis.T


class TestAndersonMixing:
    def test_affine_contraction_in_a_handful_of_sweeps(self):
        g = TorusGrid(2)
        c, a = slow_affine_contraction()
        assert np.linalg.matrix_rank(a) <= ANDERSON_DEPTH

        def rule(m):
            return c + (a @ (m - c).ravel()).reshape(m.shape)

        cfg = FixedPointConfig(damping=0.5, outer_tol=1e-12)
        sweep, _, _ = recording_sweep(rule)
        sol = _damped_fixed_point(g, cfg, np.ones((2, 2)), None, sweep, gate_reporting)
        assert sol["sweeps"] <= 8
        assert sol["halvings"] == 0
        assert sup(sol["m"] - c) <= 1e-12
        # the plain theta blend on the same map
        m, sweeps = np.ones((2, 2)), 1
        while g.h ** 2 * float(np.sum(np.abs(rule(m) - m))) >= cfg.outer_tol:
            m = (1.0 - cfg.damping) * m + cfg.damping * rule(m)
            sweeps += 1
        assert sweeps > 30

    def test_mixed_iterates_keep_unit_mass(self):
        g = TorusGrid(4)
        weights = 1.0 + 0.5 * np.sin(np.arange(48.0)).reshape(3, 4, 4)

        def rule(m):
            out = weights * np.exp(-0.8 * m)
            return out / (g.h ** 2 * np.sum(out, axis=(-2, -1), keepdims=True))

        sweep, inputs, _ = recording_sweep(rule)
        cfg = FixedPointConfig(damping=0.5, outer_tol=1e-13)
        sol = _damped_fixed_point(g, cfg, np.ones((3, 4, 4)), None, sweep, gate_reporting)
        assert sol["sweeps"] > ANDERSON_DEPTH + 1
        for m in inputs:
            assert sup(g.h ** 2 * np.sum(m, axis=(-2, -1)) - 1.0) <= 1e-14

    def test_growing_change_halves_theta_and_clears_history(self):
        g = TorusGrid(2)
        d = np.array([[1.0, -1.0], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [1.0, -1.0]])
        script = iter([0.1 * d, 0.2 * e, 0.0 * d])  # changes 0.05, 0.1, then 0
        sweep, inputs, outputs = recording_sweep(lambda m: m + next(script))
        cfg = FixedPointConfig(damping=0.5, outer_tol=1e-12, max_outer=3)
        sol = _damped_fixed_point(g, cfg, np.ones((2, 2)), None, sweep, gate_reporting)
        assert sol["sweeps"] == 3
        assert sol["theta"] == 0.25
        assert sol["halvings"] == 1
        # first step is the plain blend with the full factor
        assert np.array_equal(inputs[1], inputs[0] + 0.5 * (outputs[0] - inputs[0]))
        # after the growth the stored pair is dropped: again the plain blend,
        # now with the halved factor; the kept pair would have moved m along d
        assert np.array_equal(inputs[2], inputs[1] + 0.25 * (outputs[1] - inputs[1]))


class TestErgodicSolver:
    def test_trivial_constants(self):
        g = TorusGrid(16)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
            cost=LocalCost.linear(),
            grid=g,
        )
        sol = solve_ergodic(p)
        assert sol.lam == pytest.approx(1.0, abs=1e-8)
        assert sup(sol.u.values) < 1e-8
        assert sup(sol.m.field.values - 1.0) < 1e-8

    def test_constant_potential_shifts_lambda(self):
        g = TorusGrid(16)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.constant(g, 0.25)),
            cost=LocalCost.linear(),
            grid=g,
        )
        sol = solve_ergodic(p)
        assert sol.lam == pytest.approx(0.75, abs=1e-8)

    def test_nontrivial_residuals_and_normalizations(self):
        g = TorusGrid(16)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, hamiltonian_preset("sines", g)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        sol = solve_ergodic(p)
        assert sol.diagnostics["hjb_residual"] <= 1e-8
        assert sol.diagnostics["fp_residual"] <= 1e-8
        assert abs(sol.diagnostics["u_mean"]) <= 1e-12
        assert abs(mass(sol.m.field) - 1.0) <= 1e-12

    def test_newton_failure_is_a_newton_error(self):
        # one Newton step from u = 0 cannot reach the tolerance on the sines
        # potential; the stationary solve must report the failed Newton
        # iteration, not an outer sweep
        g = TorusGrid(8)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, hamiltonian_preset("sines", g)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        cost = p.cost.apply(np.ones((8, 8)))
        with pytest.raises(NonConvergence) as err:
            _ergodic_hjb_newton(
                p, cost, np.zeros((8, 8)), 1.0,
                HjbStepConfig(newton_tol=1e-11, max_newton=1), LinearSolveContract(),
            )
        assert not isinstance(err.value, OuterNonConvergence)
        assert str(err.value).startswith("Newton did not converge after 1 iterations")
        assert err.value.iterations == 1
        assert err.value.final_residual > 1e-11

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_density_matches_dense_kernel(self, beta):
        # oracle: the invariant density spans the null space of the dense
        # transpose advection-diffusion matrix
        from mfgfd.dynamics import adjoint_apply

        g = TorusGrid(8)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(beta, hamiltonian_preset("sines", g)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        sol = solve_ergodic(p)
        n2 = 64
        dense = np.zeros((n2, n2))
        for k in range(n2):
            e = np.zeros(n2)
            e[k] = 1.0
            dense[:, k] = adjoint_apply(p.hamiltonian, p.nu, sol.u.values, e.reshape(8, 8)).ravel()
        _, svals, vt = np.linalg.svd(dense)
        kernel = vt[-1]
        kernel /= g.h**2 * np.sum(kernel)
        assert svals[-1] < 1e-10 * svals[0]
        assert np.max(np.abs(kernel - sol.m.field.values.ravel())) < 1e-7

    def test_local_cost_required(self):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="local"):
            ErgodicProblem(
                nu=1.0,
                hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
                cost=BilaplacianCost(g),
                grid=g,
            )


class TestIdentity:
    def make_base(self, beta=2.0, n=8, nt=5):
        g = TorusGrid(n)
        p = EvolutiveProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(beta, hamiltonian_preset("sines", g, amplitude=0.5)),
            cost=LocalCost.linear(),
            u0=GridField.zeros(g),
            mT=DiscreteDensity.uniform(g),
            mesh=TimeMesh(0.5, nt),
            grid=g,
        )
        sol = solve_evolutive(p)
        return p, sol

    def test_trivial_gap_zero(self):
        p, sol = self.make_base()
        u, m, dt = sol.u.values, sol.m.values, p.mesh.dt
        pert = system_residuals(p.hamiltonian, p.nu, dt, p.cost, u, m)
        out = identity_terms(p.hamiltonian, p.nu, dt, (u, m), (u, m), pert, p.cost)
        assert out["gap"] == 0.0

    def test_defects_are_trajectory_arrays(self):
        # one (N_T + 1, N, N) array per equation, zero on the last slice,
        # where no step starts
        p, sol = self.make_base()
        a, b = system_residuals(p.hamiltonian, p.nu, p.mesh.dt, p.cost, sol.u.values, sol.m.values)
        assert a.shape == b.shape == sol.u.values.shape
        assert not np.any(a[-1]) and not np.any(b[-1])
        assert max(np.max(np.abs(a)), np.max(np.abs(b))) <= 1e-9

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_random_pairs_gap_at_roundoff(self, beta):
        p, sol = self.make_base(beta=beta)
        rng = np.random.default_rng(17)
        n = p.grid.n_side
        u, m, dt = sol.u.values, sol.m.values, p.mesh.dt
        for _ in range(10):
            ut = sol.u.values + rng.normal(0, 0.5, (p.mesh.n_steps + 1, n, n))
            mt = np.abs(sol.m.values + rng.normal(0, 0.5, (p.mesh.n_steps + 1, n, n)))
            pert = system_residuals(p.hamiltonian, p.nu, dt, p.cost, ut, mt)
            out = identity_terms(p.hamiltonian, p.nu, dt, (u, m), (ut, mt), pert, p.cost)
            assert out["gap"] <= 1e-10 * out["scale"]

    def test_middle_terms_nonnegative(self):
        p, sol = self.make_base()
        rng = np.random.default_rng(18)
        n = p.grid.n_side
        u, m, dt = sol.u.values, sol.m.values, p.mesh.dt
        for _ in range(10):
            ut = rng.normal(0, 1.0, (p.mesh.n_steps + 1, n, n))
            mt = np.abs(rng.normal(1.0, 0.5, (p.mesh.n_steps + 1, n, n)))
            pert = system_residuals(p.hamiltonian, p.nu, dt, p.cost, ut, mt)
            out = identity_terms(p.hamiltonian, p.nu, dt, (u, m), (ut, mt), pert, p.cost)
            tol = 1e-10 * out["scale"]
            assert out["terms"]["bregman_base"] >= -tol
            assert out["terms"]["bregman_tilde"] >= -tol
            assert out["terms"]["cost_pairing"] >= -tol


class TestMonitors:
    def test_uniform_exact_closed_forms(self):
        p = uniform_problem(n=8, nt=8, horizon=1.0)
        sol = solve_evolutive(p)
        mon = sol.monitors
        dt = p.mesh.dt
        assert mon["grad_power_total"] == pytest.approx(0.0, abs=1e-20)
        assert mon["cost_power_total"] == pytest.approx(1.0, abs=1e-9)  # T * |F(1)|^gamma
        assert mon["u_mean_path"] == pytest.approx([n * dt for n in range(9)], abs=1e-9)
        assert mon["u_mean_total_variation"] == pytest.approx(1.0, abs=1e-9)
        assert mon["u_min"] == pytest.approx(0.0, abs=1e-10)

    def test_zero_cost_has_zero_cost_term(self):
        g = TorusGrid(8)
        p = EvolutiveProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
            cost=zero_cost(),
            u0=GridField.zeros(g),
            mT=terminal_density_preset("bump", g),
            mesh=TimeMesh(0.5, 8),
            grid=g,
        )
        sol = solve_evolutive(p)
        assert sol.monitors["cost_power_total"] == 0.0

    def test_nonlocal_run_has_no_monitors(self):
        p = smooth_problem(n=8, nt=8)
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        assert sol.monitors is None

    def test_matches_slice_loop(self):
        # reference: the monitors summed slice by slice, as a loop adds them;
        # the whole-array version must agree bit for bit, which keeps the
        # monitors in meta.json byte-identical
        from mfgfd.torus_grid import stencil_array

        g, mesh, beta = TorusGrid(8), TimeMesh(0.5, 6), 1.5
        cost = LocalCost.power(2.0)
        rng = np.random.default_rng(21)
        u = rng.normal(size=(7, 8, 8))
        m = np.abs(rng.normal(size=(7, 8, 8)))
        h2, dt = g.h**2, mesh.dt
        grad_term = 0.0
        for n in range(1, 7):
            d = stencil_array(u[n])
            grad_term += float(np.sum(np.sum(d * d, axis=-1) ** (beta / 2.0)))
        cost_term = 0.0
        for n in range(6):
            cost_term += float(np.sum(np.abs(cost.f(m[n])) ** cost.gamma))
        means = [h2 * float(np.sum(s)) for s in u]
        expect = {
            "u_min": min(float(np.min(s)) for s in u),
            "grad_power_total": grad_term * (h2 * dt),
            "cost_power_total": cost_term * (h2 * dt),
            "u_l1_max": max(h2 * float(np.sum(np.abs(s))) for s in u),
            "u_mean_path": means,
            "u_mean_total_variation": float(np.sum(np.abs(np.diff(means)))),
        }
        assert _trajectory_monitors(u, m, dt, cost, beta) == expect

    def test_standalone_call(self):
        p = uniform_problem(n=8, nt=4)
        sol = solve_evolutive(p)
        assert set(sol.monitors) == {
            "u_min",
            "grad_power_total",
            "cost_power_total",
            "u_l1_max",
            "u_mean_path",
            "u_mean_total_variation",
        }
