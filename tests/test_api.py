"""Public names: every module's ``__all__`` resolves and star-imports cleanly,
every function the benchmark tracer wraps exists under its traced name, and
the package factors sparse matrices in one place."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mfgfd

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
    # every sparse LU goes through linear._DissectedLU
    hits = _token_hits(token)
    assert sum(hits.values()) == 1 and hits["linear.py"] == 1, hits


def test_csr_built_in_linear_only():
    # the five-point and bordered matrices are put on the cached pattern of
    # their grid in one module
    hits = _token_hits("csr_matrix(")
    assert sum(hits.values()) == hits["linear.py"] > 0, hits


@pytest.mark.parametrize("token", ["eliminate_zeros", "bmat", "tocsc(", "gather_t", "fp_matrix"])
def test_one_assembly_path(token):
    # every matrix is filled on the cached pattern of its grid and put into
    # the factor order by one gather in linear._DissectedLU; a transposed
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


def test_one_value_operator():
    # the Hamiltonian value enters both models through dynamics.value_operator
    hits = _token_hits(".value_grid(")
    assert sum(hits.values()) == hits["dynamics.py"] == 1, hits


def test_no_second_value_residual():
    # the stationary model evaluates value_operator + lambda - cost
    hits = _token_hits("_ergodic_value_residual")
    assert sum(hits.values()) == 0, hits


def test_one_stencil_owner():
    # the four differences, their neighbour order and signs are the table
    # torus_grid.STENCIL; transport is -stencil_adjoint(m g), not a second
    # shift formula in dynamics
    assert _token_hits("_shift(")["dynamics.py"] == 0
    src = Path(mfgfd.__file__).parent
    for signs in (["-1.0", "1.0", "-1.0", "1.0"], ["1.0", "-1.0", "1.0", "-1.0"]):
        literal = re.compile(r"[\[(]\s*" + r",\s*".join(map(re.escape, signs)) + r"\s*[\])]")
        hits = [p.name for p in sorted(src.glob("*.py")) if literal.search(p.read_text())]
        assert set(hits) <= {"torus_grid.py"}, hits
