"""Refinement harness: nesting validation, exact-preset floor, error decrease,
and the errors of one measuring path against a per-kind restriction oracle."""

import json

import numpy as np
import pytest

import mfgfd.study as study

from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.presets import HAMILTONIAN_PRESETS, MT_PRESETS, U0_PRESETS
from mfgfd.solver import ErgodicProblem, EvolutiveProblem, FixedPointConfig
from mfgfd.study import check_levels_nested, convergence_study, errors_decreasing, write_study
from mfgfd.torus_grid import GridField, TimeMesh, TorusGrid, stencil_array, time_sum


def uniform_factory(n_side, n_steps):
    g = TorusGrid(n_side)
    return EvolutiveProblem(
        nu=1.0,
        hamiltonian=PowerHamiltonian(2.0, GridField.zeros(g)),
        cost=LocalCost.linear(),
        u0=GridField.zeros(g),
        mT=DiscreteDensity.uniform(g),
        mesh=TimeMesh(1.0, n_steps),
        grid=g,
    )


def smooth_factory(n_side, n_steps):
    g = TorusGrid(n_side)
    return EvolutiveProblem(
        nu=0.6,
        hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
        cost=BilaplacianCost(g),
        u0=U0_PRESETS.build(g, "cosine", 0.25),
        mT=MT_PRESETS.build(g, "bump", 2.0),
        mesh=TimeMesh(1.0, n_steps),
        grid=g,
    )


def ergodic_factory(n_side, n_steps):
    g = TorusGrid(n_side)
    return ErgodicProblem(
        nu=1.0,
        hamiltonian=PowerHamiltonian(2.0, HAMILTONIAN_PRESETS.build(g, "sines", 1.0)),
        cost=LocalCost.power(2.0),
        grid=g,
    )


class TestNesting:
    def test_valid_levels_accepted(self):
        check_levels_nested([(8, 16), (16, 32), (32, 64)])

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            check_levels_nested([(8, 16), (12, 24)])

    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match="two levels"):
            check_levels_nested([(8, 16)])


class TestEvolutiveStudy:
    def test_exact_preset_floor(self):
        report = convergence_study(uniform_factory, [(4, 4), (8, 8), (16, 16)])
        for row in report["levels"]:
            if "err_u_sup" in row:
                assert row["err_u_sup"] <= 1e-8
                assert row["err_m"] <= 1e-8
        assert errors_decreasing(report)

    def test_smooth_preset_decreasing(self):
        report = convergence_study(
            smooth_factory, [(4, 8), (8, 16), (16, 32)], cfg=FixedPointConfig(damping=1.0)
        )
        rows = [r for r in report["levels"] if "err_u_sup" in r]
        assert rows[0]["err_u_sup"] > rows[1]["err_u_sup"]
        assert rows[0]["err_u_w1beta"] > rows[1]["err_u_w1beta"]
        assert rows[0]["err_m"] > rows[1]["err_m"]
        assert errors_decreasing(report)
        assert "err_u_sup" in report["orders"]


class TestErgodicStudy:
    def test_lambda_increments(self):
        report = convergence_study(ergodic_factory, [(8, 8), (16, 16), (32, 32)])
        lams = [r["lambda"] for r in report["levels"]]
        assert len(lams) == 3
        incs = report["lambda_increments"]
        assert incs[1] < incs[0]  # Cauchy with decreasing increments
        assert errors_decreasing(report)

    def test_rows_carry_no_step_count(self):
        # the stationary solve reads no N_T, so its rows do not report one;
        # an evolutive row reports the step count its solve used
        report = convergence_study(ergodic_factory, [(4, 0), (8, 0)])
        assert all("n_steps" not in row for row in report["levels"])
        report = convergence_study(uniform_factory, [(4, 4), (8, 8)])
        assert [row["n_steps"] for row in report["levels"]] == [4, 8]


class TestWriteStudy:
    def test_files_written(self, tmp_path):
        report = convergence_study(uniform_factory, [(4, 4), (8, 8)])
        write_study(report, tmp_path)
        data = json.loads((tmp_path / "study.json").read_text())
        assert data["kind"] == "evolutive"
        csv_text = (tmp_path / "study.csv").read_text()
        assert csv_text.splitlines()[0] == "level,h,dt,err_u_sup,err_u_w1beta,err_m,order"
        assert len(csv_text.splitlines()) == 3

    def test_csv_rows(self, tmp_path):
        # every level but the finest is an error row, and error row k >= 1
        # carries the order between error rows k - 1 and k
        report = {
            "levels": [
                {"h": 0.25, "dt": 0.5, "err_u_sup": 4.0, "err_u_w1beta": 3.0, "err_m": 2.0},
                {"h": 0.125, "dt": 0.25, "err_u_sup": 1.0, "err_u_w1beta": 1.5, "err_m": 1.0},
                {"h": 0.0625, "dt": 0.125},
            ],
            "orders": {"err_u_sup": [2.0]},
        }
        write_study(report, tmp_path)
        assert (tmp_path / "study.csv").read_text().splitlines()[1:] == [
            "0,0.25,0.5,4,3,2,",
            "1,0.125,0.25,1,1.5,1,2",
            "2,0.0625,0.125,,,,",
        ]


# ---------------------------------------------------------------------------
# oracle: injection by copies and separate error norms per kind
# ---------------------------------------------------------------------------

def oracle_norms(du, dm, h, dt, beta, m_exponent):
    h2 = h ** 2
    d = stencil_array(du)
    grad_total = time_sum(np.sum(d * d, axis=-1) ** (beta / 2.0))
    m_total = time_sum(np.abs(dm) ** m_exponent)
    return {
        "err_u_w1beta": (h2 * dt * grad_total) ** (1.0 / beta),
        "err_m": (h2 * dt * m_total) ** (1.0 / m_exponent),
    }


def oracle_evolutive(sol, ref, beta, m_exponent):
    stride = ref.u.mesh.n_steps // sol.u.mesh.n_steps
    r = ref.u.grid.n_side // sol.u.grid.n_side
    ru = ref.u.values[::stride, ::r, ::r].copy()
    rm = ref.m.values[::stride, ::r, ::r].copy()
    du = sol.u.values - ru
    dm = sol.m.values[:-1] - rm[:-1]
    return {
        "err_u_sup": float(np.max(np.abs(du))),
        **oracle_norms(du[1:], dm, sol.u.grid.h, sol.u.mesh.dt, beta, m_exponent),
    }


def oracle_ergodic(sol, ref, beta, m_exponent):
    r = ref.u.grid.n_side // sol.u.grid.n_side
    du = sol.u.values - ref.u.values[::r, ::r].copy()
    dm = sol.m.field.values - ref.m.field.values[::r, ::r].copy()
    return {
        "err_u_sup": float(np.max(np.abs(du))),
        **oracle_norms(du[None], dm[None], sol.u.grid.h, 1.0, beta, m_exponent),
    }


def recorded_study(monkeypatch, name, *args, **kwargs):
    """Run a study and keep the solutions it measured."""
    solved = []
    solve = getattr(study, name)

    def recording(*a, **kw):
        solved.append(solve(*a, **kw))
        return solved[-1]

    monkeypatch.setattr(study, name, recording)
    return study.convergence_study(*args, **kwargs), solved


class TestErrorsMatchRestrictionOracle:
    KEYS = ("err_u_sup", "err_u_w1beta", "err_m")

    def test_evolutive(self, monkeypatch):
        report, (coarse, ref) = recorded_study(
            monkeypatch, "solve_evolutive", smooth_factory, [(4, 8), (8, 16)],
            cfg=FixedPointConfig(damping=1.0),
        )
        expected = oracle_evolutive(coarse, ref, 2.0, 2.0)  # bilaplacian cost: p = 2
        row = report["levels"][0]
        assert {k: row[k] for k in self.KEYS} == expected
        assert not any(k in report["levels"][1] for k in self.KEYS)

    def test_ergodic(self, monkeypatch):
        report, (coarse, ref) = recorded_study(
            monkeypatch, "solve_ergodic", ergodic_factory, [(8, 8), (16, 16)],
        )
        expected = oracle_ergodic(coarse, ref, 2.0, 1.5)
        row = report["levels"][0]
        assert {k: row[k] for k in self.KEYS} == expected
        assert report["lambda_increments"] == [abs(ref.lam - coarse.lam)]
