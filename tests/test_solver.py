"""Coupled solvers, the perturbed-pair balance, and the a priori monitors."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mfgfd.archive import write_ergodic_archive, write_evolutive_archive
from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.dynamics import HjbStepConfig, NonConvergence, fp_step_solve
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.linear import HeldFactor, LinearSolveContract, LinearSolveError
from mfgfd.presets import HAMILTONIAN_PRESETS, MT_PRESETS, U0_PRESETS
import mfgfd.solver as solver_module
from mfgfd.solver import (
    ANDERSON_DEPTH,
    STAGNATION_SWEEPS,
    ErgodicProblem,
    EvolutiveProblem,
    FixedPointConfig,
    OuterNonConvergence,
    _bordered_jacobian,
    _damped_fixed_point,
    _ergodic_hjb_newton,
    _stationary_density,
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


def smooth_problem(n=8, nt=16, cost="bilaplacian", beta=2.0, nu=0.6, horizon=1.0):
    g = TorusGrid(n)
    cost_op = BilaplacianCost(g) if cost == "bilaplacian" else LocalCost.power(2.0)
    return EvolutiveProblem(
        nu=nu,
        hamiltonian=PowerHamiltonian(beta, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
        cost=cost_op,
        u0=U0_PRESETS.build(g, "cosine", 0.25),
        mT=MT_PRESETS.build(g, "bump", 2.0),
        mesh=TimeMesh(horizon, nt),
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

    def test_density_defect_meets_target_at_small_dt(self):
        # the density step solves J^T m = m_next / dt: at dt = 1/1024 the
        # relative linear contract alone admits density defects above 1e-9
        p = smooth_problem(n=16, nt=32, cost="power", horizon=1.0 / 32)
        sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
        hjb_res, fp_res = evolutive_residuals(p, sol.u.values, sol.m.values)
        assert hjb_res <= 1e-9
        assert fp_res <= 1e-9

    def test_density_defect_above_target_is_a_linear_error(self, monkeypatch):
        # the gate names a density defect it cannot return instead of
        # returning a pair that misses the scheme
        residuals = solver_module._defect_norms

        def inflated(p, u, m, costs):
            return residuals(p, u, m, costs)[0], 2e-9

        monkeypatch.setattr(solver_module, "_defect_norms", inflated)
        with pytest.raises(LinearSolveError, match="density defect 2.000e-09"):
            solve_evolutive(smooth_problem(n=8, nt=8), cfg=FixedPointConfig(damping=1.0))

    def test_decoupled_heat_evolution(self):
        # zero cost and zero potential: u stays 0 and m is the plain implicit
        # heat chain pulled backward from the terminal density
        g = TorusGrid(8)
        p = EvolutiveProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
            cost=zero_cost(),
            u0=GridField.zeros(g),
            mT=MT_PRESETS.build(g, "bump", 2.0),
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

    def test_small_exponent_stagnation_ends_early(self):
        # beta = 1.2 cycles: every halving is spent by sweep 24 and the last
        # new smallest change comes at sweep 90; it used to run all 500 sweeps
        p = smooth_problem(n=8, nt=16, cost="power", beta=1.2)
        with pytest.raises(OuterNonConvergence, match="stagnated") as info:
            solve_evolutive(p)
        assert info.value.iters <= 90 + STAGNATION_SWEEPS
        assert info.value.last_change > FixedPointConfig().outer_tol

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

    def test_newton_tol_rule_has_one_message(self):
        # the config check and the solver refuse through check_newton_tol
        from mfgfd.config import ConfigError, parse_config_text

        p = uniform_problem(n=4, nt=4)
        with pytest.raises(ValueError) as solver_err:
            solve_evolutive(p, hjb_cfg=HjbStepConfig(newton_tol=2e-9))
        text = "[problem]\nkind = evolutive\n\n[solver]\nnewton_tol = 2e-9\n"
        with pytest.raises(ConfigError) as config_err:
            parse_config_text(text)
        assert config_err.value.key == "solver.newton_tol"
        assert config_err.value.detail == str(solver_err.value)

    def test_array_start_equals_field_start(self):
        p = smooth_problem(n=8, nt=8)
        rng = np.random.default_rng(3)
        start = p.mT.field.values * rng.uniform(0.5, 1.5, size=(9, 8, 8))
        start /= p.grid.h ** 2 * np.sum(start, axis=(1, 2), keepdims=True)
        cfg = FixedPointConfig(damping=1.0)
        from_array = solve_evolutive(p, cfg=cfg, initial_m=start)
        from_field = solve_evolutive(
            p, cfg=cfg, initial_m=SpaceTimeField.from_array(p.mesh, p.grid, start)
        )
        assert np.array_equal(from_array.u.values, from_field.u.values)
        assert np.array_equal(from_array.m.values, from_field.m.values)

    @pytest.mark.parametrize("shape", [(8, 8, 8), (9, 4, 4), (9, 8, 8, 1), (8, 8)])
    def test_array_start_of_other_shape_refused(self, shape):
        p = uniform_problem(n=8, nt=8)
        with pytest.raises(ValueError, match="initial_m does not match"):
            solve_evolutive(p, initial_m=np.ones(shape))


def test_evolutive_fields_on_another_grid_refused():
    p = smooth_problem(n=8, nt=4)
    g4 = TorusGrid(4)
    cases = {
        "u0 lives on a different grid": dict(u0=GridField.zeros(g4)),
        "mT lives on a different grid": dict(mT=DiscreteDensity.uniform(g4)),
        "potential lives on a different grid": dict(
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g4))
        ),
        "cost operator is bound to a different grid": dict(cost=BilaplacianCost(g4)),
    }
    for message, change in cases.items():
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(p, **change)


def test_ergodic_potential_on_another_grid_refused():
    # an 8 x 8 potential on a 16 x 16 problem used to reach solve_ergodic
    # and fail there with a numpy broadcast error
    with pytest.raises(ValueError, match="potential lives on a different grid"):
        ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(TorusGrid(8))),
            cost=LocalCost.linear(),
            grid=TorusGrid(16),
        )


def test_ergodic_cost_on_another_grid_refused():
    # the stationary model takes a grid-bound cost too
    with pytest.raises(ValueError, match="cost operator is bound to a different grid"):
        ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, GridField.zeros(TorusGrid(8))),
            cost=BilaplacianCost(TorusGrid(4)),
            grid=TorusGrid(8),
        )


@pytest.mark.parametrize("value", [float("nan"), 0, -1])
@pytest.mark.parametrize("field", ["newton_tol", "max_newton", "outer_tol", "max_outer"])
def test_settings_reject_nan_and_nonpositive(field, value):
    # a NaN tolerance would otherwise surface only later, as a NonConvergence
    cls = HjbStepConfig if field in ("newton_tol", "max_newton") else FixedPointConfig
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("field", ["newton_tol", "outer_tol"])
def test_settings_reject_infinite_tolerance(field):
    # an infinite newton_tol let hjb_step_solve return its start unsolved
    cls = HjbStepConfig if field == "newton_tol" else FixedPointConfig
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        cls(**{field: float("inf")})


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


def accept_all(m_new, state):
    return True


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
        m, _, record = _damped_fixed_point(g, cfg, np.ones((2, 2)), None, sweep, accept_all, HeldFactor())
        assert record["outer_iters"] <= 8
        assert record["diagnostics"]["halvings"] == 0
        assert sup(m - c) <= 1e-12
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
        _, _, record = _damped_fixed_point(g, cfg, np.ones((3, 4, 4)), None, sweep, accept_all, HeldFactor())
        assert record["outer_iters"] > ANDERSON_DEPTH + 1
        for m in inputs:
            assert sup(g.h ** 2 * np.sum(m, axis=(-2, -1)) - 1.0) <= 1e-14

    def test_growing_change_halves_theta_and_clears_history(self):
        g = TorusGrid(2)
        d = np.array([[1.0, -1.0], [0.0, 0.0]])
        e = np.array([[0.0, 0.0], [1.0, -1.0]])
        script = iter([0.1 * d, 0.2 * e, 0.0 * d])  # changes 0.05, 0.1, then 0
        sweep, inputs, outputs = recording_sweep(lambda m: m + next(script))
        cfg = FixedPointConfig(damping=0.5, outer_tol=1e-12, max_outer=3)
        _, _, record = _damped_fixed_point(g, cfg, np.ones((2, 2)), None, sweep, accept_all, HeldFactor())
        assert record["outer_iters"] == 3
        assert record["diagnostics"]["theta_final"] == 0.25
        assert record["diagnostics"]["halvings"] == 1
        # first step is the plain blend with the full factor
        assert np.array_equal(inputs[1], inputs[0] + 0.5 * (outputs[0] - inputs[0]))
        # after the growth the stored pair is dropped: again the plain blend,
        # now with the halved factor; the kept pair would have moved m along d
        assert np.array_equal(inputs[2], inputs[1] + 0.25 * (outputs[1] - inputs[1]))


def scripted_sweep(sizes):
    """Sweep ``m -> m + s d`` with s the next of ``sizes``: the change is
    h^2 |s d|_1 = s/2 on 2x2 densities whatever the mixing does."""
    d = np.array([[1.0, -1.0], [0.0, 0.0]])
    sizes = iter(sizes)
    return lambda m, state: (m + next(sizes) * d, state)


class TestStagnationExit:
    def test_stalls_once_every_halving_is_spent(self):
        # the change is 0.5, then alternates 1, 0.75, 1, ...: six growths
        # spend every halving by sweep 13, and no sweep beats the first change
        sweep = scripted_sweep([1.0] + [2.0, 1.5] * 100)
        cfg = FixedPointConfig(outer_tol=1e-12)
        with pytest.raises(OuterNonConvergence, match="stagnated") as info:
            _damped_fixed_point(TorusGrid(2), cfg, np.ones((2, 2)), None, sweep, accept_all, HeldFactor())
        assert info.value.iters == 1 + STAGNATION_SWEEPS
        assert info.value.last_change == pytest.approx(0.75, rel=1e-12)

    def test_no_stall_while_a_halving_is_left(self):
        # one growth, then a flat change: five halvings are left, so only
        # max_outer ends the iteration
        sweep = scripted_sweep([1.0] + [2.0] * 200)
        cfg = FixedPointConfig(outer_tol=1e-12, max_outer=2 * STAGNATION_SWEEPS)
        with pytest.raises(OuterNonConvergence, match="did not converge") as info:
            _damped_fixed_point(TorusGrid(2), cfg, np.ones((2, 2)), None, sweep, accept_all, HeldFactor())
        assert info.value.iters == 2 * STAGNATION_SWEEPS


class TestErgodicSolver:
    def test_default_settings_counts(self):
        # full-step mixing and warm-started densities: 5 sweeps on one LU
        # (6 sweeps and 30 refinement steps at damping 0.5 from LU^-1 b)
        g = TorusGrid(32)
        ham = PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0))
        p = ErgodicProblem(1.0, ham, LocalCost.power(2.0), g)
        sol = solve_ergodic(p)
        held = {k: sol.diagnostics[k] for k in TestHeldFactorCounts.HELD_KEYS}
        assert sol.outer_iters == 5 and sol.diagnostics["halvings"] == 0
        assert held == {"factorizations": 1, "chord_accepted": 18, "chord_rejected": 0, "refinements": 12}

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
            hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
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
            hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        cost = p.cost.apply(np.ones((8, 8)))
        with pytest.raises(NonConvergence) as err:
            _ergodic_hjb_newton(
                p, cost, np.zeros((8, 8)), 1.0,
                HjbStepConfig(newton_tol=1e-11, max_newton=1), HeldFactor(),
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
            hamiltonian=PowerHamiltonian(beta, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
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

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("scale", [0.5, 50.0])
    def test_density_refines_the_held_lu_and_factors_on_a_miss(self, n, scale):
        # the held LU of the bordered J at 0.5 u serves the density by
        # refinement; at 50 u refinement misses and the step factors J at u
        g = TorusGrid(n)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        u = solve_ergodic(p).u.values
        fresh, _ = _stationary_density(p, u, 1e-9, HeldFactor())
        held = HeldFactor().factor(_bordered_jacobian(p, scale * u))
        m, _ = _stationary_density(p, u, 1e-9, held)
        if scale == 0.5:
            assert held.factorizations == 1 and held.refinements > 0
            assert sup(m - fresh) <= 1e-12
        else:
            assert held.factorizations == 2
            assert np.array_equal(m, fresh)
        assert sup(g.h ** 2 * np.sum(m) - 1.0) <= 1e-14

    def test_density_miss_meets_the_contract(self):
        # the fresh LU of a miss is checked against the contract too: one no
        # float64 solve can meet makes the stationary density raise
        g = TorusGrid(16)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
            cost=LocalCost.power(2.0),
            grid=g,
        )
        x1, x2 = g.node_coords()
        u = 0.3 * np.cos(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
        held = HeldFactor(LinearSolveContract(residual_tol=1e-30))
        with pytest.raises(LinearSolveError, match="exceeds contract"):
            _stationary_density(p, u, 1e-9, held)
        assert held.factorizations == 1

    @pytest.mark.parametrize("n", [16, 32])
    def test_bilaplacian_cost_meets_contract(self, n):
        # the stationary model takes the nonlocal cost, as the evolutive one does
        g = TorusGrid(n)
        p = ErgodicProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
            cost=BilaplacianCost(g),
            grid=g,
        )
        sol = solve_ergodic(p)
        assert sol.diagnostics["hjb_residual"] <= 1e-8
        assert sol.diagnostics["fp_residual"] <= 1e-8
        assert abs(sol.diagnostics["u_mean"]) <= 1e-12
        assert abs(mass(sol.m.field) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "cost, beta, density_bound, slope_bound",
    # twice the readings of this setup: at beta = 2, 6.04e-9 and 4.67e-9
    # (power, 13 sweeps), 6.23e-8 and 1.60e-11 (bilaplacian, 4 sweeps); with
    # the power cost, 3.08e-10 and 3.24e-10 at beta = 1.5 (29 sweeps) and
    # 3.88e-8 and 2.87e-8 at beta = 3 (13 sweeps); at T = 1 the power
    # readings at beta = 2 are 1.24e-4 and 9.7e-5
    [
        pytest.param("power", 2.0, 1.2e-8, 1e-8, id="power-1.2e-08-1e-08"),
        pytest.param("bilaplacian", 2.0, 1.25e-7, 3.2e-11, id="bilaplacian-1.25e-07-3.2e-11"),
        pytest.param("power", 1.5, 6.2e-10, 6.5e-10, id="power-beta1.5"),
        pytest.param("power", 3.0, 7.8e-8, 5.8e-8, id="power-beta3"),
    ],
)
def test_turnpike_middle_matches_stationary(cost, beta, density_bound, slope_bound):
    # the long-horizon limit (Cardaliaguet, Lasry, Lions, Porretta 2012): in
    # the middle of a T = 2 solve the density is the invariant one and u
    # grows at the rate lambda, (u[k+1] - u[k])/dt -> lambda
    p = smooth_problem(n=16, nt=64, cost=cost, beta=beta, horizon=2.0)
    stationary = solve_ergodic(ErgodicProblem(p.nu, p.hamiltonian, p.cost, p.grid))
    sol = solve_evolutive(p, cfg=FixedPointConfig(damping=1.0))
    k = p.mesh.n_steps // 2
    u, m = sol.u.values, sol.m.values
    assert sup(m[k] - stationary.m.field.values) <= density_bound
    assert sup((u[k + 1] - u[k]) / p.mesh.dt - stationary.lam) <= slope_bound


class TestHeldFactorCounts:
    HELD_KEYS = ("factorizations", "chord_accepted", "chord_rejected", "refinements")

    def count_factorizations(self, monkeypatch, solve):
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        sol = solve()
        return sol, len(calls)

    @pytest.mark.parametrize("kind", ["evolutive", "ergodic"])
    def test_counts_match_factorizations_and_repeat(self, kind, monkeypatch, tmp_path):
        if kind == "evolutive":
            def solve():
                return solve_evolutive(smooth_problem(n=8, nt=8, cost="power"))
            write = write_evolutive_archive
        else:
            def solve():
                g = TorusGrid(16)
                ham = PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0))
                return solve_ergodic(ErgodicProblem(1.0, ham, LocalCost.power(2.0), g))
            write = write_ergodic_archive
        first, calls = self.count_factorizations(monkeypatch, solve)
        d = first.diagnostics
        assert d["factorizations"] == calls > 0
        if kind == "ergodic":  # every sweep's density refines the one LU
            assert d["factorizations"] == 1
        assert d["chord_accepted"] > 0
        assert all(isinstance(d[k], int) for k in self.HELD_KEYS)
        second, calls_again = self.count_factorizations(monkeypatch, solve)
        assert calls_again == calls
        assert {k: second.diagnostics[k] for k in self.HELD_KEYS} == {k: d[k] for k in self.HELD_KEYS}
        for n, sol in enumerate((first, second)):
            write(tmp_path / str(n), sol, {}, "")
        assert (tmp_path / "0" / "meta.json").read_bytes() == (tmp_path / "1" / "meta.json").read_bytes()

    @pytest.mark.parametrize("kind", ["evolutive", "ergodic"])
    def test_both_models_share_the_diagnostic_keys(self, kind):
        if kind == "evolutive":
            sol = solve_evolutive(smooth_problem(n=8, nt=8, cost="power"))
        else:
            g = TorusGrid(8)
            ham = PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0))
            sol = solve_ergodic(ErgodicProblem(1.0, ham, LocalCost.power(2.0), g))
        d = sol.diagnostics
        shared = ("final_change", "theta_final", "halvings", "max_clamp", "hjb_residual", "fp_residual")
        assert set(shared + self.HELD_KEYS) <= set(d)
        assert d["final_change"] == sol.residual_history[-1] < FixedPointConfig().outer_tol
        assert d["theta_final"] == FixedPointConfig().damping
        assert d["max_clamp"] >= 0.0


class TestIdentity:
    def make_base(self, beta=2.0, n=8, nt=5):
        g = TorusGrid(n)
        p = EvolutiveProblem(
            nu=1.0,
            hamiltonian=PowerHamiltonian(beta, HAMILTONIAN_PRESETS.build(g, "sines", 0.5)),
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
            mT=MT_PRESETS.build(g, "bump", 2.0),
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
            grad_term += float(np.sum(np.sum(d * d, axis=0) ** (beta / 2.0)))
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
