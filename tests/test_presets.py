"""Built-in problem presets and config-to-problem marshalling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mfgfd.config import parse_config_text
from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.presets import (
    build_ergodic_problem,
    build_evolutive_problem,
    cost_preset,
    hamiltonian_preset,
    solver_settings,
    terminal_density_preset,
    u0_preset,
)
from mfgfd.torus_grid import TorusGrid, cell_average, mass


class TestFieldPresets:
    def test_zero_presets(self):
        g = TorusGrid(8)
        assert np.all(hamiltonian_preset("zero", g).values == 0.0)
        assert np.all(u0_preset("zero", g).values == 0.0)

    def test_sines_values(self):
        g = TorusGrid(8)
        f = hamiltonian_preset("sines", g, amplitude=2.0)
        x1, x2 = g.node_coords()
        assert np.allclose(f.values, 2.0 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))

    def test_cosine_values(self):
        g = TorusGrid(8)
        f = u0_preset("cosine", g, amplitude=0.5)
        assert f.values[0, 0] == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="preset"):
            hamiltonian_preset("bumps", g)
        with pytest.raises(ValueError, match="preset"):
            u0_preset("sines", g)
        with pytest.raises(ValueError, match="preset"):
            terminal_density_preset("gaussian", g)


class TestTerminalDensity:
    def test_uniform(self):
        d = terminal_density_preset("uniform", TorusGrid(8))
        assert np.all(d.field.values == 1.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_bump_in_simplex_and_bounded_below(self, n):
        d = terminal_density_preset("bump", TorusGrid(n))
        assert abs(mass(d.field) - 1.0) <= 1e-12
        # the analytic floor is exp(-2 kappa) / I0(kappa)^2 ~ 3.2e-3 at kappa = 2
        assert float(np.min(d.field.values)) > 0.003

    def test_bump_peak_at_center(self):
        g = TorusGrid(16)
        d = terminal_density_preset("bump", g)
        peak = np.unravel_index(np.argmax(d.field.values), (16, 16))
        assert peak == (8, 8)

    def test_bump_kappa_controls_concentration(self):
        g = TorusGrid(16)
        flat = terminal_density_preset("bump", g, kappa=0.5)
        sharp = terminal_density_preset("bump", g, kappa=4.0)
        assert np.max(sharp.field.values) > np.max(flat.field.values)

    def test_bump_matches_scipy_bessel_normalization(self):
        from scipy.special import i0

        g = TorusGrid(16)
        norm = i0(2.0) ** 2

        def density(x1, x2):
            bump = np.cos(2 * np.pi * (x1 - 0.5)) + np.cos(2 * np.pi * (x2 - 0.5))
            return np.exp(2.0 * bump) / norm

        expect = DiscreteDensity.normalized(cell_average(density, g)).field.values
        assert np.array_equal(terminal_density_preset("bump", g).field.values, expect)

    def test_presets_do_not_import_scipy_special(self):
        # numpy's i0 normalizes the bump; scipy.special costs import time and memory
        script = "import sys, mfgfd, mfgfd.presets, mfgfd.archive\n"
        script += "assert 'scipy.special' not in sys.modules, 'scipy.special imported'"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr


class TestCostPreset:
    def test_dispatch(self):
        g = TorusGrid(8)
        assert isinstance(cost_preset("bilaplacian", g), BilaplacianCost)
        linear = cost_preset("local", g, "linear")
        assert isinstance(linear, LocalCost) and linear.name == "linear"
        power = cost_preset("local", g, "power", alpha=2.0)
        assert power.gamma == pytest.approx(1.5)

    def test_unknown_rejected(self):
        g = TorusGrid(8)
        with pytest.raises(ValueError, match="cost"):
            cost_preset("convolution", g)


class TestProblemBuilders:
    CONFIG = """\
[problem]
kind = {kind}
nu = 0.6
beta = 2.0
T = 1.0
N_h = 8
N_T = 16
hamiltonian = sines
hamiltonian.amplitude = 1.0
u0 = cosine
u0.amplitude = 0.25
mT = bump

[cost]
kind = local
local.preset = power
local.alpha = 2.0

[solver]
damping = 1.0
outer_tol = 1e-8
"""

    def test_evolutive_builder(self):
        cfg = parse_config_text(self.CONFIG.format(kind="evolutive"))
        p = build_evolutive_problem(cfg)
        assert p.grid.n_side == 8
        assert p.mesh.n_steps == 16
        assert p.hamiltonian.beta == 2.0
        assert p.cost.name == "power(2)"
        assert abs(mass(p.mT.field) - 1.0) <= 1e-12

    def test_level_override(self):
        cfg = parse_config_text(self.CONFIG.format(kind="evolutive"))
        p = build_evolutive_problem(cfg, n_side=16, n_steps=32)
        assert p.grid.n_side == 16
        assert p.mesh.n_steps == 32

    def test_ergodic_builder(self):
        cfg = parse_config_text(self.CONFIG.format(kind="ergodic"))
        p = build_ergodic_problem(cfg)
        assert p.grid.n_side == 8
        assert isinstance(p.cost, LocalCost)

    def test_solver_settings(self):
        cfg = parse_config_text(self.CONFIG.format(kind="evolutive"))
        fixed, hjb, contract = solver_settings(cfg)
        assert fixed.damping == 1.0
        assert fixed.outer_tol == 1e-8
        assert hjb.newton_tol == 1e-11
        assert contract.residual_tol == 1e-12

