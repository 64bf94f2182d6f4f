"""Solution archives: meta.json plus one CSV per trajectory slice.

Archives are self-describing and reproducible: meta.json echoes the full
config text that produced the run, numeric output uses shortest
round-trip float formatting, and nothing time- or path-dependent is
written, so identical runs produce byte-identical directories.
"""

from __future__ import annotations

import json
from pathlib import Path

from .solver import ErgodicSolution, EvolutiveSolution
from .torus_grid import GridField, save_grid_field

__all__ = ["write_evolutive_archive", "write_ergodic_archive", "write_partial_archive"]


def _write_meta(
    outdir: Path, kind: str, config_echo: dict, config_text: str, partial: bool = False, **fields
) -> None:
    """meta.json: the kind, the config that produced the run, and ``fields``."""
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "kind": kind,
        "partial": partial,
        "config": config_echo,
        "config_text": config_text,
        **fields,
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_evolutive_archive(
    outdir: str | Path,
    sol: EvolutiveSolution,
    config_echo: dict,
    config_text: str,
) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, field in (("u", sol.u), ("m", sol.m)):
        for n, values in enumerate(field.values):
            save_grid_field(GridField(field.grid, values), outdir / f"{name}_slice_{n:04d}.csv")
    _write_meta(
        outdir,
        "evolutive",
        config_echo,
        config_text,
        grid={"n_side": sol.u.grid.n_side, "h": sol.u.grid.h},
        mesh={
            "horizon": sol.u.mesh.horizon,
            "n_steps": sol.u.mesh.n_steps,
            "dt": sol.u.mesh.dt,
        },
        results={
            "outer_iters": sol.outer_iters,
            "residual_history": sol.residual_history,
            "diagnostics": sol.diagnostics,
            "monitors": sol.monitors,
        },
    )


def write_ergodic_archive(
    outdir: str | Path,
    sol: ErgodicSolution,
    config_echo: dict,
    config_text: str,
) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_grid_field(sol.u, outdir / "u.csv")
    save_grid_field(sol.m.field, outdir / "m.csv")
    _write_meta(
        outdir,
        "ergodic",
        config_echo,
        config_text,
        grid={"n_side": sol.u.grid.n_side, "h": sol.u.grid.h},
        results={
            "lambda": sol.lam,
            "outer_iters": sol.outer_iters,
            "residual_history": sol.residual_history,
            "diagnostics": sol.diagnostics,
        },
    )


def write_partial_archive(
    outdir: str | Path, kind: str, config_echo: dict, config_text: str, error: str
) -> None:
    """meta.json of a solve that failed: the config and the error, no fields."""
    _write_meta(Path(outdir), kind, config_echo, config_text, partial=True, error=error)
