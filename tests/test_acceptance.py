"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything runs at desk scale on one core.  Regression pins (observed
orders, calibrated constants, monitor bounds) were produced by the runs
recorded in the values below; drift beyond the stated bands is a
regression, not noise.
"""

import time

import numpy as np
import pytest

import mfgfd as m
from mfgfd.presets import hamiltonian_preset, terminal_density_preset, u0_preset
from mfgfd.study import convergence_study
from mfgfd.torus_grid import GridField, SpaceTimeField, TimeMesh, TorusGrid, laplace_array, mass
from mfgfd.verify import run_adjoint_suite, run_identity_suite, run_lemma_suites
from oracles import hjb_step_picard


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def uniform_problem(n=16, nt=32):
    g = TorusGrid(n)
    return m.EvolutiveProblem(
        nu=1.0,
        hamiltonian=m.PowerHamiltonian(2.0, GridField.zeros(g)),
        cost=m.LocalCost.linear(),
        u0=GridField.zeros(g),
        mT=m.DiscreteDensity.uniform(g),
        mesh=TimeMesh(1.0, nt),
        grid=g,
    )


def smooth_problem(n, nt, cost_kind):
    g = TorusGrid(n)
    cost = m.BilaplacianCost(g) if cost_kind == "bilaplacian" else m.LocalCost.power(2.0)
    return m.EvolutiveProblem(
        nu=0.6,
        hamiltonian=m.PowerHamiltonian(2.0, hamiltonian_preset("sines", g, amplitude=1.0)),
        cost=cost,
        u0=u0_preset("cosine", g, amplitude=0.25),
        mT=terminal_density_preset("bump", g),
        mesh=TimeMesh(1.0, nt),
        grid=g,
    )


def test_criterion_01_exact_solution_reproduction():
    t0 = time.monotonic()
    p = uniform_problem(16, 32)
    sol = m.solve_evolutive(p)
    elapsed = time.monotonic() - t0
    dt = p.mesh.dt
    err_u = max(
        float(np.max(np.abs(sol.u.values[n] - n * dt))) for n in range(33)
    )
    err_m = max(float(np.max(np.abs(s - 1.0))) for s in sol.m.values)
    assert err_u <= 1e-8
    assert err_m <= 1e-8
    assert elapsed < 10.0
    _report(1, "exact-solution-reproduction")


def test_criterion_02_fundamental_identity():
    rep = run_identity_suite(seed=42, pairs=100, betas=(1.5, 2.0, 3.0))
    assert rep["pass"], rep
    for sub in rep["reports"]:
        assert sub["max_gap_ratio"] <= 1e-10, sub
    _report(2, "fundamental-identity")


def test_criterion_03_adjoint_structure():
    rep = run_adjoint_suite(seed=42, probes=100)
    assert rep["pass"], rep
    for sub in rep["reports"]:
        assert sub["max_discrepancy"] <= 1e-12
    _report(3, "adjoint-structure")


def test_criterion_04_lemma_suite():
    rep = run_lemma_suites(betas=(1.5, 2.0, 3.0), samples=10000, seed=7)
    assert rep["pass"], rep
    cal = {}
    for sub in rep["reports"]:
        for chk in sub["checks"]:
            assert chk["pass"], chk
            if chk["lemma_id"] == "grad_diff_split_bound":
                cal[sub["beta"]] = chk["calibrated_constants"]
    # calibrated constants, regression-pinned (seed 7, 10^4 samples)
    assert cal[2.0]["c_calibrated"] == 1.0  # analytic floor at the quadratic exponent
    assert cal[2.0]["largest_observed_ratio"] == pytest.approx(0.9681681852646832, rel=1e-9)
    assert cal[3.0]["c_calibrated"] == pytest.approx(4.980938444822962, rel=1e-9)
    _report(4, "lemma-suite")


def test_criterion_05_conservation_and_positivity():
    for kind in ("bilaplacian", "power"):
        p = smooth_problem(16, 32, kind)
        sol = m.solve_evolutive(p, cfg=m.FixedPointConfig(damping=1.0))
        for s in sol.m.values:
            assert abs(mass(GridField(p.grid, s)) - 1.0) <= 1e-9
            assert float(np.min(s)) >= 0.0
        assert sol.diagnostics["max_clamp"] <= 1e-12
    _report(5, "conservation-and-positivity")


def test_criterion_06_uniqueness_two_starts():
    p = smooth_problem(16, 32, "bilaplacian")
    cfg = m.FixedPointConfig(damping=1.0)
    sol_a = m.solve_evolutive(
        p, cfg=cfg, initial_m=SpaceTimeField.from_array(p.mesh, p.grid, np.full((33, 16, 16), 1.0))
    )
    start_b = SpaceTimeField(p.mesh, [p.mT.field] * (p.mesh.n_steps + 1))
    sol_b = m.solve_evolutive(p, cfg=cfg, initial_m=start_b)
    dist = 0.0
    for a, b in zip([*sol_a.u.values, *sol_a.m.values], [*sol_b.u.values, *sol_b.m.values]):
        dist = max(dist, float(np.max(np.abs(a - b))))
    assert dist <= 1e-8
    _report(6, "uniqueness-two-starts")


def test_criterion_07_self_convergence_smoothing_cost():
    t0 = time.monotonic()
    report = convergence_study(
        lambda n, nt: smooth_problem(n, nt, "bilaplacian"),
        [(8, 16), (16, 32), (32, 64)],
        cfg=m.FixedPointConfig(damping=1.0),
    )
    elapsed = time.monotonic() - t0
    rows = [r for r in report["levels"] if "err_u_sup" in r]
    for key in ("err_u_sup", "err_u_w1beta", "err_m"):
        assert rows[0][key] > rows[1][key] > 0.0
    # observed orders, regression-pinned
    assert report["orders"]["err_u_sup"][0] == pytest.approx(1.021, abs=0.15)
    assert report["orders"]["err_u_w1beta"][0] == pytest.approx(1.188, abs=0.15)
    assert report["orders"]["err_m"][0] == pytest.approx(1.223, abs=0.15)
    assert elapsed < 300.0
    _report(7, "self-convergence-smoothing-cost")


def test_criterion_08_local_cost_convergence_and_monitors():
    t0 = time.monotonic()
    report = convergence_study(
        lambda n, nt: smooth_problem(n, nt, "power"),
        [(8, 16), (16, 32), (32, 64)],
        cfg=m.FixedPointConfig(damping=1.0),
    )
    elapsed = time.monotonic() - t0
    rows = [r for r in report["levels"] if "err_u_sup" in r]
    assert rows[0]["err_u_w1beta"] > rows[1]["err_u_w1beta"] > 0.0
    assert rows[0]["err_m"] > rows[1]["err_m"] > 0.0
    assert report["orders"]["err_u_w1beta"][0] == pytest.approx(1.273, abs=0.15)
    assert report["orders"]["err_m"][0] == pytest.approx(1.241, abs=0.15)
    # monitors bounded by level-independent pinned constants
    for row in report["levels"]:
        mon = row["monitors"]
        assert mon["u_min"] >= -0.3
        assert mon["grad_power_total"] <= 0.05
        assert mon["cost_power_total"] <= 1.3
        assert mon["u_l1_max"] <= 1.1
        assert mon["u_mean_total_variation"] <= 1.1
    assert elapsed < 300.0
    _report(8, "local-cost-convergence-and-monitors")


def test_criterion_09_ergodic_effective_constant():
    g = TorusGrid(16)
    trivial = m.ErgodicProblem(
        nu=1.0,
        hamiltonian=m.PowerHamiltonian(2.0, GridField.zeros(g)),
        cost=m.LocalCost.linear(),
        grid=g,
    )
    sol = m.solve_ergodic(trivial)
    assert sol.lam == pytest.approx(1.0, abs=1e-8)

    def factory(n, nt):
        gn = TorusGrid(n)
        return m.ErgodicProblem(
            nu=1.0,
            hamiltonian=m.PowerHamiltonian(2.0, hamiltonian_preset("sines", gn)),
            cost=m.LocalCost.power(2.0),
            grid=gn,
        )

    report = convergence_study(factory, [(8, 8), (16, 16), (32, 32)])
    incs = report["lambda_increments"]
    assert incs[1] < incs[0]
    _report(9, "ergodic-effective-constant")


def test_criterion_10_brute_force_equivalence():
    # implicit density step vs a dense solve assembled from the defining operator
    rng = np.random.default_rng(1234)
    g = TorusGrid(4)
    ham = m.PowerHamiltonian(2.0, GridField.zeros(g))
    dt = 0.05
    u_next = rng.normal(size=(4, 4))
    m_next = np.abs(rng.normal(1.0, 0.3, (4, 4)))
    dense = np.zeros((16, 16))
    for k in range(16):
        e = np.zeros(16)
        e[k] = 1.0
        ef = e.reshape(4, 4)
        dense[:, k] = (
            ef / dt - 1.0 * laplace_array(ef) - m.transport_apply(ham, u_next, ef)
        ).ravel()
    expect = np.linalg.solve(dense, m_next.ravel() / dt)
    got, _ = m.fp_step_solve(ham, 1.0, dt, u_next, m_next)
    assert float(np.max(np.abs(got.ravel() - expect))) <= 1e-10

    # value step vs the small-step fixed-point oracle
    g8 = TorusGrid(8)
    ham8 = m.PowerHamiltonian(2.0, GridField.zeros(g8))
    u_cur = GridField.from_function(g8, lambda x1, x2: np.cos(2 * np.pi * x1)).values
    newton = m.hjb_step_solve(ham8, 1.0, 1e-3, u_cur, np.zeros((8, 8)))
    picard = hjb_step_picard(ham8, 1.0, 1e-3, u_cur, np.zeros((8, 8)), tol=1e-13)
    assert float(np.max(np.abs(newton - picard))) <= 1e-9
    _report(10, "brute-force-equivalence")
