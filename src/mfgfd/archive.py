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
from .torus_grid import save_grid_field

__all__ = ["write_evolutive_archive", "write_ergodic_archive"]


def _write_meta(outdir: Path, meta: dict) -> None:
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_evolutive_archive(
    outdir: str | Path,
    sol: EvolutiveSolution,
    config_echo: dict,
    config_text: str,
) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for n, s in enumerate(sol.u.slices):
        save_grid_field(s, outdir / f"u_slice_{n:04d}.csv")
    for n, s in enumerate(sol.m.slices):
        save_grid_field(s, outdir / f"m_slice_{n:04d}.csv")
    meta = {
        "kind": "evolutive",
        "partial": False,
        "config": config_echo,
        "config_text": config_text,
        "grid": {"n_side": sol.u.grid.n_side, "h": sol.u.grid.h},
        "mesh": {
            "horizon": sol.u.mesh.horizon,
            "n_steps": sol.u.mesh.n_steps,
            "dt": sol.u.mesh.dt,
        },
        "results": {
            "outer_iters": sol.outer_iters,
            "residual_history": sol.residual_history,
            "diagnostics": sol.diagnostics,
            "monitors": sol.monitors,
        },
    }
    _write_meta(outdir, meta)


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
    meta = {
        "kind": "ergodic",
        "partial": False,
        "config": config_echo,
        "config_text": config_text,
        "grid": {"n_side": sol.u.grid.n_side, "h": sol.u.grid.h},
        "results": {
            "lambda": sol.lam,
            "outer_iters": sol.outer_iters,
            "residual_history": sol.residual_history,
            "diagnostics": sol.diagnostics,
        },
    }
    _write_meta(outdir, meta)
