"""Run configuration: a flat INI-style key-value file with sections.

The key names are normative (see the README for the full reference).  A
minimal evolutive config:

    [problem]
    kind = evolutive
    nu = 1.0
    beta = 2.0
    T = 1.0
    N_h = 16
    N_T = 32
    hamiltonian = zero
    u0 = zero
    mT = uniform

    [cost]
    kind = local
    local.preset = linear

Validation failures, and keys or sections the reference does not list,
raise ConfigError carrying the offending section.key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .dynamics import HjbStepConfig
from .linear import LinearSolveContract
from .solver import FixedPointConfig, check_newton_tol
from .study import check_levels_nested

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_config_text"]


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"config error at [{key}]: {message}")
        self.key = key
        self.detail = message


@dataclass
class RunConfig:
    kind: str = "evolutive"
    nu: float = 1.0
    beta: float = 2.0
    horizon: float = 1.0
    n_side: int = 16
    n_steps: int = 32
    hamiltonian: str = "zero"
    hamiltonian_amplitude: float = 1.0
    hamiltonian_file: Optional[str] = None
    u0: str = "zero"
    u0_amplitude: float = 1.0
    u0_file: Optional[str] = None
    mT: str = "uniform"
    mT_kappa: float = 2.0
    mT_file: Optional[str] = None
    cost_kind: str = "local"
    cost_local_preset: str = "linear"
    cost_local_alpha: float = 1.0
    damping: float = FixedPointConfig.damping
    outer_tol: float = FixedPointConfig.outer_tol
    max_outer: int = FixedPointConfig.max_outer
    newton_tol: float = HjbStepConfig.newton_tol
    max_newton: int = HjbStepConfig.max_newton
    residual_tol: float = LinearSolveContract.residual_tol
    levels: list[int] = field(default_factory=list)
    steps_per_side: int = 2
    out_dir: str = "out"
    text: str = ""


def _parse_levels(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


# (section, key) -> (RunConfig field, cast): every key a config file may set
_KEYS = {
    ("problem", "kind"): ("kind", str),
    ("problem", "nu"): ("nu", float),
    ("problem", "beta"): ("beta", float),
    ("problem", "T"): ("horizon", float),
    ("problem", "N_h"): ("n_side", int),
    ("problem", "N_T"): ("n_steps", int),
    ("problem", "hamiltonian"): ("hamiltonian", str),
    ("problem", "hamiltonian.amplitude"): ("hamiltonian_amplitude", float),
    ("problem", "hamiltonian.file"): ("hamiltonian_file", str),
    ("problem", "u0"): ("u0", str),
    ("problem", "u0.amplitude"): ("u0_amplitude", float),
    ("problem", "u0.file"): ("u0_file", str),
    ("problem", "mT"): ("mT", str),
    ("problem", "mT.kappa"): ("mT_kappa", float),
    ("problem", "mT.file"): ("mT_file", str),
    ("cost", "kind"): ("cost_kind", str),
    ("cost", "local.preset"): ("cost_local_preset", str),
    ("cost", "local.alpha"): ("cost_local_alpha", float),
    ("solver", "damping"): ("damping", float),
    ("solver", "outer_tol"): ("outer_tol", float),
    ("solver", "max_outer"): ("max_outer", int),
    ("solver", "newton_tol"): ("newton_tol", float),
    ("solver", "max_newton"): ("max_newton", int),
    ("solver", "residual_tol"): ("residual_tol", float),
    ("study", "levels"): ("levels", _parse_levels),
    ("study", "steps_per_side"): ("steps_per_side", int),
    ("output", "dir"): ("out_dir", str),
}


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; a key or section not in ``_KEYS`` is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case (N_h, N_T, T)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", str(exc)) from None

    cfg = RunConfig(text=text)
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"{section}.{key}", "unknown key")
            name, cast = _KEYS[section, key]
            try:
                setattr(cfg, name, cast(raw))
            except (TypeError, ValueError):
                raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from None

    _validate(cfg)
    return cfg


# keys whose value must be a finite number, with their RunConfig fields
_FINITE = {
    "problem.nu": "nu",
    "problem.beta": "beta",
    "problem.T": "horizon",
    "problem.hamiltonian.amplitude": "hamiltonian_amplitude",
    "problem.u0.amplitude": "u0_amplitude",
    "problem.mT.kappa": "mT_kappa",
}


def _validate(cfg: RunConfig) -> None:
    for key, name in _FINITE.items():
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(key, f"must be a finite number, got {getattr(cfg, name)}")
    if cfg.kind not in ("evolutive", "ergodic"):
        raise ConfigError("problem.kind", f"must be 'evolutive' or 'ergodic', got {cfg.kind!r}")
    if not cfg.beta > 1.0:
        raise ConfigError("problem.beta", f"the Hamiltonian power must satisfy beta > 1, got {cfg.beta}")
    if cfg.nu <= 0:
        raise ConfigError("problem.nu", f"must be positive, got {cfg.nu}")
    if cfg.n_side < 2:
        raise ConfigError("problem.N_h", f"must be an integer >= 2, got {cfg.n_side}")
    if cfg.kind == "evolutive":
        if cfg.horizon <= 0:
            raise ConfigError("problem.T", f"must be positive, got {cfg.horizon}")
        if cfg.n_steps < 1:
            raise ConfigError("problem.N_T", f"must be a positive integer, got {cfg.n_steps}")
    if cfg.hamiltonian not in ("zero", "sines", "file"):
        raise ConfigError("problem.hamiltonian", f"unknown preset {cfg.hamiltonian!r}")
    if cfg.hamiltonian == "file" and not cfg.hamiltonian_file:
        raise ConfigError("problem.hamiltonian.file", "required for the 'file' preset")
    if cfg.u0 not in ("zero", "cosine", "file"):
        raise ConfigError("problem.u0", f"unknown preset {cfg.u0!r}")
    if cfg.u0 == "file" and not cfg.u0_file:
        raise ConfigError("problem.u0.file", "required for the 'file' preset")
    if cfg.mT not in ("uniform", "bump", "file"):
        raise ConfigError("problem.mT", f"unknown preset {cfg.mT!r}")
    if cfg.mT == "file" and not cfg.mT_file:
        raise ConfigError("problem.mT.file", "required for the 'file' preset")
    if cfg.cost_kind not in ("local", "bilaplacian"):
        raise ConfigError("cost.kind", f"must be 'local' or 'bilaplacian', got {cfg.cost_kind!r}")
    if cfg.cost_kind == "local" and cfg.cost_local_preset not in ("linear", "power"):
        raise ConfigError("cost.local.preset", f"must be 'linear' or 'power', got {cfg.cost_local_preset!r}")
    if cfg.cost_kind == "local" and cfg.cost_local_preset == "power" and not 0.0 < cfg.cost_local_alpha <= 2.0:
        raise ConfigError("cost.local.alpha", f"must lie in (0, 2], got {cfg.cost_local_alpha}")
    if cfg.kind == "ergodic" and cfg.cost_kind != "local":
        raise ConfigError("cost.kind", "the ergodic solver requires a local cost")
    if not 0.0 < cfg.damping <= 1.0:
        raise ConfigError("solver.damping", f"must lie in (0, 1], got {cfg.damping}")
    for key in ("outer_tol", "newton_tol", "residual_tol"):
        tol = getattr(cfg, key)
        if not 0 < tol < math.inf:  # NaN too
            raise ConfigError(f"solver.{key}", f"tolerances must be positive finite numbers, got {tol}")
    if cfg.kind == "evolutive":
        try:
            check_newton_tol(cfg.newton_tol)
        except ValueError as exc:
            raise ConfigError("solver.newton_tol", str(exc)) from None
    if cfg.max_outer < 1 or cfg.max_newton < 1:
        raise ConfigError("solver", "iteration caps must be >= 1")
    if cfg.levels:
        if cfg.steps_per_side < 1:
            raise ConfigError("study.steps_per_side", "must be >= 1")
        try:
            check_levels_nested([(n, n * cfg.steps_per_side) for n in cfg.levels])
        except ValueError as exc:
            raise ConfigError("study.levels", str(exc)) from None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("file", f"config file {path} does not exist")
    return parse_config_text(path.read_text())
