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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

from .dynamics import HjbStepConfig
from .hamiltonian import check_beta
from .linear import LinearSolveContract
from .presets import COST_KINDS, HAMILTONIAN_PRESETS, LOCAL_COSTS, MT_PRESETS, U0_PRESETS
from .solver import FixedPointConfig, check_newton_tol
from .study import check_levels_nested
from .torus_grid import TimeMesh, TorusGrid, check_positive_finite, check_positive_int

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
    hamiltonian: str = HAMILTONIAN_PRESETS.default
    hamiltonian_amplitude: float = 1.0
    hamiltonian_file: Optional[str] = None
    u0: str = U0_PRESETS.default
    u0_amplitude: float = 1.0
    u0_file: Optional[str] = None
    mT: str = MT_PRESETS.default
    mT_kappa: float = 2.0
    mT_file: Optional[str] = None
    cost_kind: str = COST_KINDS.default
    cost_local_preset: str = LOCAL_COSTS.default
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


_SECTIONS = {section for section, _ in _KEYS}


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; a key or section not in ``_KEYS`` is a ConfigError.

    ``[DEFAULT]`` is an ordinary section name, so it is refused like any
    other unknown section, not merged into every section.
    """
    # no header can name a section "\n": configparser keeps no default section;
    # no interpolation: every value is literal, "%" included
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), default_section="\n", interpolation=None
    )
    parser.optionxform = str  # keep key case (N_h, N_T, T)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("file", str(exc)) from None

    cfg = RunConfig(text=text)
    for section in parser.sections():
        if section not in _SECTIONS and not parser.options(section):
            raise ConfigError(section, "unknown section")
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


def _owner_checks(cfg: RunConfig) -> Iterator[tuple[str, Callable[[], object]]]:
    """(config key, owner check) for each value the chosen model reads whose rule the
    library enforces: the check calls the type, rule function or preset table that
    enforces it.  The ergodic model reads no u0, mT, T, N_T or study.steps_per_side."""
    evolutive = cfg.kind == "evolutive"
    yield "problem.N_h", lambda: TorusGrid(cfg.n_side)
    fields = (HAMILTONIAN_PRESETS, U0_PRESETS, MT_PRESETS) if evolutive else (HAMILTONIAN_PRESETS,)
    for presets in fields:
        name, param, path = presets.read(cfg)
        key = f"problem.{presets.what}"
        yield key, partial(presets.lookup, name)
        yield f"{key}.file", partial(presets.check_path, name, path)
        yield f"{key}.{presets.param}", partial(presets.check, param)
    yield "cost.kind", partial(COST_KINDS.lookup, cfg.cost_kind)
    if cfg.cost_kind == "local":  # the local cost reads local.preset and, for power, local.alpha
        yield "cost.local.preset", partial(LOCAL_COSTS.lookup, cfg.cost_local_preset)
        yield "cost.local.alpha", lambda: LOCAL_COSTS.lookup(cfg.cost_local_preset)(cfg.cost_local_alpha)
    yield "problem.nu", lambda: check_positive_finite("nu", cfg.nu)
    yield "problem.beta", lambda: check_beta(cfg.beta)
    if evolutive:
        yield "problem.T", lambda: TimeMesh(cfg.horizon, 1)
        yield "problem.N_T", lambda: TimeMesh(1.0, cfg.n_steps)
        yield "solver.newton_tol", lambda: check_newton_tol(cfg.newton_tol)
    yield "solver.damping", lambda: FixedPointConfig(damping=cfg.damping)
    yield "solver.outer_tol", lambda: FixedPointConfig(outer_tol=cfg.outer_tol)
    yield "solver.max_outer", lambda: FixedPointConfig(max_outer=cfg.max_outer)
    yield "solver.newton_tol", lambda: HjbStepConfig(newton_tol=cfg.newton_tol)
    yield "solver.max_newton", lambda: HjbStepConfig(max_newton=cfg.max_newton)
    yield "solver.residual_tol", lambda: LinearSolveContract(residual_tol=cfg.residual_tol)
    if cfg.levels:
        if evolutive:
            yield "study.steps_per_side", lambda: check_positive_int("steps_per_side", cfg.steps_per_side)
        levels = [(n, n * cfg.steps_per_side) for n in cfg.levels]
        yield "study.levels", partial(check_levels_nested, levels, in_time=evolutive)


def _validate(cfg: RunConfig) -> None:
    if cfg.kind not in ("evolutive", "ergodic"):
        raise ConfigError("problem.kind", f"must be 'evolutive' or 'ergodic', got {cfg.kind!r}")
    for key, check in _owner_checks(cfg):
        try:
            check()
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("file", f"config file {path} does not exist")
    return parse_config_text(path.read_text())
