"""Public names: every module's ``__all__`` resolves and star-imports cleanly,
every function the benchmark tracer wraps exists under its traced name, the
package factors sparse matrices in one place, each rule on an accepted value
is written once, and the API refuses what the config refuses."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import mfgfd
from mfgfd.config import ConfigError, parse_config_text
from mfgfd.dynamics import HjbStepConfig
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.presets import HAMILTONIAN_PRESETS, MT_PRESETS, U0_PRESETS
from mfgfd.solver import FixedPointConfig
from mfgfd.torus_grid import GridField, TimeMesh, TorusGrid

MODULES = sorted(m.name for m in pkgutil.iter_modules(mfgfd.__path__))


def test_modules_found():
    assert {"torus_grid", "hamiltonian", "linear", "dynamics", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mfgfd.{name}")
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"mfgfd.{name}.__all__ names missing {export!r}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from mfgfd.{name} import *", namespace)
    for export in getattr(importlib.import_module(f"mfgfd.{name}"), "__all__", []):
        assert export in namespace


# Targets the tracer still names though the function is gone (CHANGES.md
# records them); each must stay missing until the tracer drops it.
STALE_TARGETS = {"mfgfd.dynamics._fp_step_with_stats", "mfgfd.dynamics.fp_matrix"}


def _tracing_targets():
    """``TARGETS`` of the benchmark tracer, read from its source without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {path}")


def _resolves(module_name: str, path: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


@pytest.mark.parametrize("span, module_name, path", _tracing_targets())
def test_tracing_target_resolves(span, module_name, path):
    # a renamed seam is not an error for the tracer, it only reads 0 in the
    # per-layer metrics, so the rename has to fail here
    name = f"{module_name}.{path}"
    if name in STALE_TARGETS:
        assert not _resolves(module_name, path), f"{name} is back: drop it from STALE_TARGETS"
    else:
        assert _resolves(module_name, path), f"benchmark span {span!r} traces missing {name}"


def _token_hits(token: str) -> dict:
    src = Path(mfgfd.__file__).parent
    return {p.name: p.read_text().count(token) for p in sorted(src.glob("*.py"))}


@pytest.mark.parametrize("token", ["splu(", "permc_spec"])
def test_one_factorization_seam(token):
    # every sparse LU is a linear.HeldFactor, factored in HeldFactor.factor
    hits = _token_hits(token)
    assert sum(hits.values()) == 1 and hits["linear.py"] == 1, hits


@pytest.mark.parametrize("token", ["held is None", "_DissectedLU"])
def test_one_linear_path(token):
    # a step called without a held factor makes a fresh HeldFactor, so no
    # step forks into a second factor-per-iteration path or LU type
    hits = _token_hits(token)
    assert sum(hits.values()) == 0, hits


def test_one_refine_or_factor_rule():
    # linear._solve_checked refines the held LU and factors only on a miss;
    # no step writes a miss branch of its own, and outside linear only the
    # Newton step of newton_armijo factors, before its checked solve
    hits = _token_hits("solve_refined(")
    assert sum(hits.values()) == hits["linear.py"] > 0, hits
    hits = _token_hits(".factor(")
    assert sum(hits.values()) - hits["linear.py"] == hits["dynamics.py"] == 1, hits


def test_one_lu_release():
    # solver._damped_fixed_point releases the held LU of an accepted solve;
    # neither solver releases it a second time after the driver returns
    hits = _token_hits("held.lu = None")
    assert sum(hits.values()) == hits["solver.py"] == 1, hits


def test_csr_built_in_linear_only():
    # the five-point and bordered matrices are put on the cached pattern of
    # their grid in one module
    hits = _token_hits("csr_matrix(")
    assert sum(hits.values()) == hits["linear.py"] > 0, hits


@pytest.mark.parametrize("token", ["eliminate_zeros", "bmat", "tocsc(", "gather_t", "fp_matrix"])
def test_one_assembly_path(token):
    # every matrix is filled on the cached pattern of its grid and put into
    # the factor order by one gather in linear.HeldFactor.factor; a transposed
    # system is solved with the factor of the CSR matrix itself
    hits = _token_hits(token)
    assert sum(hits.values()) == 0, hits


def test_trajectory_kernels_take_arrays():
    # the Bregman gap and the identity suite work on (K+1, N, N) arrays;
    # SpaceTimeField wraps them only at the problem and solution boundary
    hits = _token_hits("SpaceTimeField")
    assert hits["hamiltonian.py"] == hits["verify.py"] == 0, hits


def test_no_per_slice_views():
    # a space-time field holds one array; its slices are values[n]
    hits = _token_hits(".slices")
    assert sum(hits.values()) == 0, hits


def test_stencils_without_roll():
    # periodic neighbours come from torus_grid._shift, two slice copies
    hits = _token_hits("np.roll(")
    assert sum(hits.values()) == 0, hits


def test_stencil_is_component_first():
    # the kernels read the stencil as four contiguous (..., N, N) planes
    from mfgfd.hamiltonian import hamiltonian_stencil
    from mfgfd.torus_grid import stencil_array

    rng = np.random.default_rng(3)
    for shape in [(1, 1), (8, 8), (3, 8, 8), (2, 3, 4, 4)]:
        u = rng.normal(size=shape)
        for d in (stencil_array(u), hamiltonian_stencil(u)):
            assert d.shape == (4,) + u.shape
            assert all(d[k].flags.c_contiguous for k in range(4))


def test_one_value_operator():
    # the Hamiltonian value enters both models through dynamics.value_operator
    hits = _token_hits(".value_grid(")
    assert sum(hits.values()) == hits["dynamics.py"] == 1, hits


def test_no_second_value_residual():
    # the stationary model evaluates value_operator + lambda - cost
    hits = _token_hits("_ergodic_value_residual")
    assert sum(hits.values()) == 0, hits


def test_one_stencil_owner():
    # the four neighbour differences and their order are the table
    # torus_grid.STENCIL of (step, axis) pairs, with no sign table beside it;
    # transport is -stencil_adjoint(m g), not a second shift formula in dynamics
    assert _token_hits("_shift(")["dynamics.py"] == 0
    for token in ("STENCIL_SIGNS", "_UPWIND_SIGNS"):
        hits = _token_hits(token)
        assert sum(hits.values()) == 0, (token, hits)
    from mfgfd.torus_grid import STENCIL

    assert len(set(STENCIL)) == 4, STENCIL
    for entry in STENCIL:
        assert len(entry) == 2 and entry[0] in (1, -1) and entry[1] in (-2, -1), STENCIL


@pytest.mark.parametrize(
    "token, owner, count",
    [
        # nu, the horizon and a mass to normalize share torus_grid.check_positive_finite
        ("must be positive and finite", "torus_grid.py", 1),
        # config and solve_evolutive share solver.check_newton_tol
        ("is not below the inner residual target", "solver.py", 1),
        # the roundoff floors read eps and STENCIL_FLOOR from hamiltonian
        ("np.finfo(", "hamiltonian.py", 1),
        # the identity suite takes its potential from the "sines" preset of
        # presets.HAMILTONIAN_PRESETS, whose line holds both factors
        ("np.sin(2 * np.pi", "presets.py", 2),
        # step counts, grid sizes, caps, study levels and suite sample counts
        # share torus_grid.check_positive_int
        ("must be an integer >= 1", "torus_grid.py", 1),
        # the presets' amplitude and kappa share torus_grid.check_finite
        ("must be a finite number", "torus_grid.py", 1),
        # the three field catalogues and the config share presets.Presets.check_path
        ("'file' needs a path", "presets.py", 1),
    ],
)
def test_one_definition_per_rule(token, owner, count):
    hits = _token_hits(token)
    assert sum(hits.values()) == hits[owner] == count, hits


@pytest.mark.parametrize("token", ["math.isfinite(", "math.inf", "tolerances must be"])
def test_config_restates_no_owner_rule(token):
    # config reaches every value rule through the type that enforces it
    assert _token_hits(token)["config.py"] == 0


@pytest.mark.parametrize(
    "name", ["zero", "sines", "cosine", "uniform", "bump", "file", "linear", "power", "bilaplacian"]
)
def test_config_names_no_preset(name):
    # every preset and cost name lives in the catalogues of presets.py, which
    # config reads; "file" may name the config file itself as an error key
    # ("local" stays: only the local cost reads local.preset and local.alpha)
    text = (Path(mfgfd.__file__).parent / "config.py").read_text()
    assert text.count(f'"{name}"') - text.count(f'ConfigError("{name}"') == 0


_GRID = TorusGrid(4)


@pytest.mark.parametrize(
    "build, config",
    [
        pytest.param(lambda: HjbStepConfig(max_newton=2.5), None, id="max_newton=2.5"),
        pytest.param(lambda: FixedPointConfig(max_outer=2.5), None, id="max_outer=2.5"),
        pytest.param(lambda: TorusGrid(2.5), None, id="TorusGrid(2.5)"),
        # N_h's one rule is TorusGrid's, which the config reads
        pytest.param(lambda: TorusGrid(0), "[problem]\nN_h = 0\n", id="TorusGrid(0)"),
        pytest.param(lambda: TimeMesh(1.0, 2.5), None, id="TimeMesh(1.0, 2.5)"),
        pytest.param(lambda: PowerHamiltonian(math.inf, GridField.zeros(_GRID)), None, id="beta=inf"),
        pytest.param(lambda: HAMILTONIAN_PRESETS.build(_GRID, "sines", math.inf), None, id="sines-amplitude-inf"),
        pytest.param(lambda: U0_PRESETS.build(_GRID, "cosine", math.nan), None, id="cosine-amplitude-nan"),
        # a field's parameter rule holds whichever preset is chosen
        pytest.param(lambda: HAMILTONIAN_PRESETS.build(_GRID, "zero", math.nan), None, id="zero-amplitude-nan"),
        pytest.param(lambda: U0_PRESETS.build(_GRID, "zero", math.inf), None, id="u0-zero-amplitude-inf"),
        pytest.param(lambda: MT_PRESETS.build(_GRID, "uniform", math.nan), None, id="uniform-kappa-nan"),
    ],
)
def test_api_refuses_what_config_refuses(build, config):
    # each value used to pass the API and fail later: a TypeError inside
    # range, a singular factor or a NaN field; where given, the config
    # refuses it under its key with the API's message
    with pytest.raises(ValueError) as api:
        build()
    if config is not None:
        with pytest.raises(ConfigError) as refused:
            parse_config_text(config)
        assert refused.value.detail == str(api.value)


def test_no_preset_wrappers():
    # every problem input is built through its presets table, so no
    # *_preset function sits beside the tables as a second way to call one
    src = Path(mfgfd.__file__).parent
    defined = [
        f"{p.name}:{node.name}"
        for p in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_preset")
    ]
    assert defined == []
    assert [name for name in mfgfd.presets.__all__ if name.endswith("_preset")] == []


def test_grids_compared_by_equality():
    # TorusGrid is a frozen dataclass, so == is the grid check
    hits = _token_hits(".compatible(")
    assert sum(hits.values()) == 0, hits
