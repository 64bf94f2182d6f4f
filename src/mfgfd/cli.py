"""Batch front end: solve, study, verify.

Exit codes: 0 success (``--help`` too), 1 usage error, config error or
unusable output path, 2 solver failure (``solve`` still writes a partial
archive), 3 failed verification, 4 non-decreasing study errors.  The
commands raise; ``main`` maps each error type to its code and its one
stderr line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .archive import write_ergodic_archive, write_evolutive_archive, write_partial_archive
from .config import ConfigError, RunConfig, load_config
from .cost_ops import CostSolveError
from .dynamics import NonConvergence, PositivityError
from .linear import LinearSolveError
from .presets import build_ergodic_problem, build_evolutive_problem, solver_settings
from .solver import OuterNonConvergence, solve_ergodic, solve_evolutive
from .study import convergence_study, errors_decreasing, write_study
from .verify import (
    failure_summary,
    run_adjoint_suite,
    run_identity_suite,
    run_lemma_suites,
    write_report,
)


# every way a solve can fail on valid input; each ends with exit code 2
SOLVER_FAILURES = (
    NonConvergence,
    OuterNonConvergence,
    PositivityError,
    LinearSolveError,
    CostSolveError,
)

def _config_echo(cfg: RunConfig) -> dict:
    echo = dataclasses.asdict(cfg)
    echo.pop("text", None)
    return echo


def _output_dir(out: str) -> Path:
    """``out`` as a Path, checked before any work: NotADirectoryError when it,
    or the nearest of its parents that exists, is not a directory.  Nothing
    is created here, so a refused run leaves no output behind."""
    path = Path(out)
    existing = next((d for d in (path, *path.parents) if d.exists()), path)
    if not existing.is_dir():
        raise NotADirectoryError(f"output path {existing} is not a directory")
    return path


def _kind(kind: str) -> tuple:
    """(build, solve, write_archive) of one model, looked up at call time."""
    return {
        "evolutive": (build_evolutive_problem, solve_evolutive, write_evolutive_archive),
        "ergodic": (build_ergodic_problem, solve_ergodic, write_ergodic_archive),
    }[kind]


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    outdir = _output_dir(args.out or cfg.out_dir)
    fixed, hjb, contract = solver_settings(cfg)
    build, solve, write_archive = _kind(cfg.kind)
    try:
        sol = solve(build(cfg), cfg=fixed, hjb_cfg=hjb, contract=contract)
    except SOLVER_FAILURES as exc:
        write_partial_archive(outdir, cfg.kind, _config_echo(cfg), cfg.text, str(exc))
        raise
    write_archive(outdir, sol, _config_echo(cfg), cfg.text)
    tail = f" lambda={sol.lam:.12g}" if cfg.kind == "ergodic" else ""
    d = sol.diagnostics
    print(
        f"{cfg.kind} solve: outer_iters={sol.outer_iters} "
        f"change={sol.residual_history[-1]:.3e} "
        f"hjb_res={d['hjb_residual']:.3e} fp_res={d['fp_residual']:.3e} "
        f"halvings={d['halvings']}{tail}"
    )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if not cfg.levels:
        raise ConfigError("study.levels", "a study config needs a levels list")
    outdir = _output_dir(args.out or cfg.out_dir)
    fixed, hjb, contract = solver_settings(cfg)
    build = _kind(cfg.kind)[0]
    arity = 2 if cfg.kind == "evolutive" else 1  # the stationary builder takes no step count
    levels = [(n, n * cfg.steps_per_side) for n in cfg.levels]
    report = convergence_study(
        lambda *level: build(cfg, *level[:arity]), levels, cfg=fixed, hjb_cfg=hjb, contract=contract
    )
    write_study(report, outdir)
    for row in report["levels"]:
        cells = [f"N_h={row['n_side']:>4d}"]
        if "err_u_sup" in row:
            cells.append(f"err_u_sup={row['err_u_sup']:.3e}")
            cells.append(f"err_u_w1beta={row['err_u_w1beta']:.3e}")
            cells.append(f"err_m={row['err_m']:.3e}")
        if "lambda" in row:
            cells.append(f"lambda={row['lambda']:.12g}")
        print("  ".join(cells))
    if report.get("orders"):
        print(f"observed orders: {report['orders']}")
    if not errors_decreasing(report, floor=max(10.0 * cfg.outer_tol, 1e-8)):
        print("error sequences are not strictly decreasing", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    outdir = _output_dir(args.out or "verify_out")
    suites = {
        "lemmas": lambda: run_lemma_suites(samples=args.samples, seed=args.seed),
        "identity": lambda: run_identity_suite(seed=args.seed, pairs=min(args.samples, 100)),
        "adjoint": lambda: run_adjoint_suite(seed=args.seed, probes=min(args.samples, 100)),
    }
    reports = {}
    for name, run in suites.items():
        if args.suite in (name, "all"):
            try:
                reports[name] = run()
            except ValueError as exc:  # each suite refuses a count below 1 before any work
                raise ValueError(f"--samples {args.samples}: {exc}") from exc
            write_report(reports[name], outdir / f"{name}_report.json")
    all_pass = all(r["pass"] for r in reports.values())
    for name, rep in reports.items():
        status = "ok" if rep["pass"] else "FAILED"
        print(f"{name}: {status}")
        if not rep["pass"]:
            print(f"  {failure_summary(rep)}", file=sys.stderr)
    return 0 if all_pass else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgfd",
        description="Finite-difference mean field game solver on the 2-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve from a config file")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="run a mesh-refinement study")
    p_study.add_argument("--config", required=True)
    p_study.add_argument("--out", default=None)
    p_study.set_defaults(func=cmd_study)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("suite", choices=["lemmas", "identity", "adjoint", "all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="samples per lemma check; identity pairs and adjoint probes are capped at 100",
    )
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and map its error, if any, to the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except SOLVER_FAILURES as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # bad config or input, unusable output path, failed I/O
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
