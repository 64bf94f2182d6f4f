"""Refinement harness: nesting validation, exact-preset floor, error decrease."""

import json

import pytest

from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.presets import hamiltonian_preset, terminal_density_preset, u0_preset
from mfgfd.solver import ErgodicProblem, EvolutiveProblem, FixedPointConfig
from mfgfd.study import check_levels_nested, convergence_study, errors_decreasing, write_study
from mfgfd.torus_grid import GridField, TimeMesh, TorusGrid


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
        hamiltonian=PowerHamiltonian(2.0, hamiltonian_preset("sines", g, amplitude=1.0)),
        cost=BilaplacianCost(g),
        u0=u0_preset("cosine", g, amplitude=0.25),
        mT=terminal_density_preset("bump", g),
        mesh=TimeMesh(1.0, n_steps),
        grid=g,
    )


def ergodic_factory(n_side, n_steps):
    g = TorusGrid(n_side)
    return ErgodicProblem(
        nu=1.0,
        hamiltonian=PowerHamiltonian(2.0, hamiltonian_preset("sines", g)),
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
        report = convergence_study(
            ergodic_factory, [(8, 8), (16, 16), (32, 32)], kind="ergodic", m_exponent=1.5
        )
        lams = [r["lambda"] for r in report["levels"]]
        assert len(lams) == 3
        incs = report["lambda_increments"]
        assert incs[1] < incs[0]  # Cauchy with decreasing increments
        assert errors_decreasing(report)


class TestWriteStudy:
    def test_files_written(self, tmp_path):
        report = convergence_study(uniform_factory, [(4, 4), (8, 8)])
        write_study(report, tmp_path)
        data = json.loads((tmp_path / "study.json").read_text())
        assert data["kind"] == "evolutive"
        csv_text = (tmp_path / "study.csv").read_text()
        assert csv_text.splitlines()[0] == "level,h,dt,err_u_sup,err_u_w1beta,err_m,order"
        assert len(csv_text.splitlines()) == 3
