"""Built-in problem presets and config-to-problem marshalling."""

import os
import subprocess
import sys

import numpy as np
import pytest

from mfgfd.config import ConfigError, parse_config_text
from mfgfd.cost_ops import BilaplacianCost, DiscreteDensity, LocalCost
from mfgfd.presets import (
    BUMP_KAPPA_MAX,
    COST_KINDS,
    HAMILTONIAN_PRESETS,
    LOCAL_COSTS,
    MT_PRESETS,
    U0_PRESETS,
    build_ergodic_problem,
    build_evolutive_problem,
    solver_settings,
)
from mfgfd.torus_grid import GridField, TorusGrid, cell_average, mass, save_grid_field


# config key -> (its catalogue, the API call that builds its preset, a name
# that catalogue does not hold)
CATALOGUE = {
    "problem.hamiltonian": (
        HAMILTONIAN_PRESETS, lambda name, g, path: HAMILTONIAN_PRESETS.build(g, name, 1.0, path), "bumps"
    ),
    "problem.u0": (U0_PRESETS, lambda name, g, path: U0_PRESETS.build(g, name, 1.0, path), "sines"),
    "problem.mT": (MT_PRESETS, lambda name, g, path: MT_PRESETS.build(g, name, 2.0, path), "gaussian"),
    "cost.kind": (COST_KINDS, lambda name, g, path: COST_KINDS.lookup(name)(g, "linear", 1.0), "convolution"),
    "cost.local.preset": (
        LOCAL_COSTS, lambda name, g, path: COST_KINDS.lookup("local")(g, name, 1.0), "quadratic"
    ),
}


def _catalogue_cases():
    for key, (presets, _, unknown) in CATALOGUE.items():
        field = key.startswith("problem.")  # a field's presets may read a file
        for name in (*presets.builders, unknown):
            yield pytest.param(key, name, "saved" if field else None, id=f"{key}-{name}")
        if field:
            yield pytest.param(key, "file", None, id=f"{key}-file-no-path")
            yield pytest.param(key, "file", "", id=f"{key}-file-empty-path")


@pytest.mark.parametrize("key, name, path", _catalogue_cases())
def test_preset_catalogue(tmp_path, key, name, path):
    # the config and the API read one table per input: they
    # accept the same names, and refuse an unknown name or a 'file' preset
    # without a path with the same message; the config names the key
    presets, build, _ = CATALOGUE[key]
    grid = TorusGrid(8)
    if path == "saved":
        path = str(tmp_path / "field.csv")
        save_grid_field(GridField.constant(grid, 1.0), path)
    section, option = key.split(".", 1)
    lines = [f"[{section}]", f"{option} = {name}"]
    if path is not None:
        lines.append(f"{option}.file = {path}")
    text = "\n".join(lines) + "\n"
    if name not in presets.builders:
        refused_at = key
    elif name == "file" and not path:
        refused_at = f"{key}.file"
    else:
        parse_config_text(text)
        build(name, grid, path)
        return
    with pytest.raises(ValueError) as api:
        build(name, grid, path)
    with pytest.raises(ConfigError) as config:
        parse_config_text(text)
    assert (config.value.key, config.value.detail) == (refused_at, str(api.value))
    assert ("'file' needs a path" if name == "file" else f"{name!r}, expected one of") in config.value.detail


class TestFieldPresets:
    def test_zero_presets(self):
        g = TorusGrid(8)
        assert np.all(HAMILTONIAN_PRESETS.build(g, "zero", 1.0).values == 0.0)
        assert np.all(U0_PRESETS.build(g, "zero", 1.0).values == 0.0)

    def test_sines_values(self):
        g = TorusGrid(8)
        f = HAMILTONIAN_PRESETS.build(g, "sines", 2.0)
        x1, x2 = g.node_coords()
        assert np.allclose(f.values, 2.0 * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))

    def test_cosine_values(self):
        g = TorusGrid(8)
        f = U0_PRESETS.build(g, "cosine", 0.5)
        assert f.values[0, 0] == pytest.approx(0.5)

class TestTerminalDensity:
    def test_uniform(self):
        d = MT_PRESETS.build(TorusGrid(8), "uniform", 2.0)
        assert np.all(d.field.values == 1.0)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_bump_in_simplex_and_bounded_below(self, n):
        d = MT_PRESETS.build(TorusGrid(n), "bump", 2.0)
        assert abs(mass(d.field) - 1.0) <= 1e-12
        # the analytic floor is exp(-2 kappa) / I0(kappa)^2 ~ 3.2e-3 at kappa = 2
        assert float(np.min(d.field.values)) > 0.003

    def test_bump_peak_at_center(self):
        g = TorusGrid(16)
        d = MT_PRESETS.build(g, "bump", 2.0)
        peak = np.unravel_index(np.argmax(d.field.values), (16, 16))
        assert peak == (8, 8)

    def test_bump_kappa_controls_concentration(self):
        g = TorusGrid(16)
        flat = MT_PRESETS.build(g, "bump", 0.5)
        sharp = MT_PRESETS.build(g, "bump", 4.0)
        assert np.max(sharp.field.values) > np.max(flat.field.values)

    @pytest.mark.parametrize("kappa", [177.0, -177.0, BUMP_KAPPA_MAX, -BUMP_KAPPA_MAX])
    @pytest.mark.parametrize("n", [2, 8, 128])
    def test_bump_floor_normal_up_to_kappa_max(self, n, kappa):
        # the floor exp(-2|kappa|) / I0(kappa)^2 is still a normal float here
        values = MT_PRESETS.build(TorusGrid(n), "bump", kappa).field.values
        assert np.all(np.isfinite(values)) and values.min() >= sys.float_info.min

    @pytest.mark.parametrize("kappa", [178.0, 360.0, 800.0, -800.0, 1e5])
    def test_bump_kappa_beyond_max_refused(self, kappa):
        # 360 used to overflow in I0(kappa)^2 and 800 to give NaN nodes
        with pytest.raises(ValueError, match=r"kappa must be at most 177\.099 in absolute value"):
            MT_PRESETS.build(TorusGrid(8), "bump", kappa)

    def test_bump_matches_scipy_bessel_normalization(self):
        from scipy.special import i0

        g = TorusGrid(16)
        norm = i0(2.0) ** 2

        def density(x1, x2):
            bump = np.cos(2 * np.pi * (x1 - 0.5)) + np.cos(2 * np.pi * (x2 - 0.5))
            return np.exp(2.0 * bump) / norm

        expect = DiscreteDensity.normalized(cell_average(density, g)).field.values
        assert np.array_equal(MT_PRESETS.build(g, "bump", 2.0).field.values, expect)

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
        assert isinstance(COST_KINDS.lookup("bilaplacian")(g, "linear", 1.0), BilaplacianCost)
        linear = COST_KINDS.lookup("local")(g, "linear", 1.0)
        assert isinstance(linear, LocalCost) and linear.name == "linear"
        power = COST_KINDS.lookup("local")(g, "power", 2.0)
        assert power.gamma == pytest.approx(1.5)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="cost"):
            COST_KINDS.lookup("convolution")


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

    @pytest.mark.parametrize(
        "kind, override",
        [("evolutive", {"n_side": 0}), ("evolutive", {"n_steps": 0}), ("ergodic", {"n_side": 0})],
        ids=["evolutive-n_side", "evolutive-n_steps", "ergodic-n_side"],
    )
    def test_zero_level_override_refused(self, kind, override):
        # a 0 override used to fall back to the config's own N_h or N_T
        cfg = parse_config_text(self.CONFIG.format(kind=kind))
        build = build_ergodic_problem if kind == "ergodic" else build_evolutive_problem
        with pytest.raises(ValueError, match="must be an integer >= 1, got 0"):
            build(cfg, **override)

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

