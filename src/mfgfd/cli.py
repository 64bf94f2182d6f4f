"""Batch front end: solve, study, verify.

Exit codes: 0 success, 1 config error, 2 solver failure (``solve`` still
writes a partial archive), 3 failed verification, 4 non-decreasing study
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .archive import write_ergodic_archive, write_evolutive_archive, write_partial_archive
from .config import ConfigError, RunConfig, load_config
from .cost_ops import CostSolveError
from .dynamics import LinearSolveError, NonConvergence, PositivityError
from .presets import build_ergodic_problem, build_evolutive_problem, cost_preset, solver_settings
from .solver import OuterNonConvergence, solve_ergodic, solve_evolutive
from .study import convergence_study, errors_decreasing, write_study
from .torus_grid import TorusGrid
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


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out or cfg.out_dir)
    fixed, hjb, contract = solver_settings(cfg)
    try:
        if cfg.kind == "ergodic":
            problem = build_ergodic_problem(cfg)
            sol = solve_ergodic(problem, cfg=fixed, contract=contract, hjb_cfg=hjb)
            write_ergodic_archive(outdir, sol, _config_echo(cfg), cfg.text)
            d = sol.diagnostics
            print(
                f"ergodic solve: outer_iters={sol.outer_iters} "
                f"change={sol.residual_history[-1]:.3e} "
                f"hjb_res={d['hjb_residual']:.3e} fp_res={d['fp_residual']:.3e} "
                f"halvings={d['halvings']} lambda={sol.lam:.12g}"
            )
        else:
            problem = build_evolutive_problem(cfg)
            sol = solve_evolutive(problem, cfg=fixed, hjb_cfg=hjb, contract=contract)
            write_evolutive_archive(outdir, sol, _config_echo(cfg), cfg.text)
            d = sol.diagnostics
            print(
                f"evolutive solve: outer_iters={sol.outer_iters} "
                f"change={d['final_change']:.3e} "
                f"hjb_res={d['hjb_residual']:.3e} fp_res={d['fp_residual']:.3e} "
                f"halvings={d['halvings']}"
            )
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SOLVER_FAILURES as exc:
        write_partial_archive(outdir, cfg.kind, _config_echo(cfg), cfg.text, str(exc))
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2


def cmd_study(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if not cfg.levels:
            raise ConfigError("study.levels", "a study config needs a levels list")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out or cfg.out_dir)
    fixed, hjb, contract = solver_settings(cfg)

    if cfg.kind == "ergodic":
        def make_problem(n_side, n_steps):
            return build_ergodic_problem(cfg, n_side=n_side)
    else:
        def make_problem(n_side, n_steps):
            return build_evolutive_problem(cfg, n_side=n_side, n_steps=n_steps)

    levels = [(n, n * cfg.steps_per_side) for n in cfg.levels]
    m_exponent = 2.0
    if cfg.cost_kind == "local":
        cost = cost_preset("local", TorusGrid(cfg.levels[0]), cfg.cost_local_preset, cfg.cost_local_alpha)
        m_exponent = 2.0 - cost.eta2

    try:
        report = convergence_study(
            make_problem,
            levels,
            cfg=fixed,
            m_exponent=m_exponent,
            kind=cfg.kind,
            hjb_cfg=hjb,
            contract=contract,
        )
    except SOLVER_FAILURES as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
    ok = errors_decreasing(report, floor=max(10.0 * cfg.outer_tol, 1e-8))
    if not ok:
        print("error sequences are not strictly decreasing", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        print(f"error: --samples must be >= 1, got {args.samples}", file=sys.stderr)
        return 1
    outdir = Path(args.out or "verify_out")
    reports = {}
    if args.suite in ("lemmas", "all"):
        reports["lemmas"] = run_lemma_suites(samples=args.samples, seed=args.seed)
        write_report(reports["lemmas"], outdir / "lemmas_report.json")
    if args.suite in ("identity", "all"):
        reports["identity"] = run_identity_suite(seed=args.seed, pairs=min(args.samples, 100))
        write_report(reports["identity"], outdir / "identity_report.json")
    if args.suite in ("adjoint", "all"):
        reports["adjoint"] = run_adjoint_suite(seed=args.seed, probes=min(args.samples, 100))
        write_report(reports["adjoint"], outdir / "adjoint_report.json")
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
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
