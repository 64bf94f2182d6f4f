"""In-memory span tracer that wraps module attributes of the solver package.

Every wrapped call records one span: (name, start, end, parent index).
Spans stay in a list until the operation ends; `layer_metrics` reduces
them to the per-layer figures and `dump` writes the raw spans out.

Targets are named by module and attribute path.  A target that no longer
exists (a private seam that a refactor merged or renamed) is recorded as
missing and its metrics read 0; it never raises.  A function imported by
name into other package modules is replaced there too, so calls through
either name are traced.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path).  Calls nested inside a span of the
# same name are not recorded again, so wrapping both a public function and
# the seam it delegates to counts each call once.
TARGETS = [
    ("cost_ops.apply", "mfgfd.cost_ops", "LocalCost.apply"),
    ("cost_ops.apply", "mfgfd.cost_ops", "BilaplacianCost.apply"),
    ("hamiltonian.eval", "mfgfd.hamiltonian", "PowerHamiltonian.value_grid"),
    ("hamiltonian.eval", "mfgfd.hamiltonian", "PowerHamiltonian.grad_grid"),
    ("dynamics.value_step", "mfgfd.dynamics", "hjb_step_solve"),
    ("dynamics.residual", "mfgfd.dynamics", "hjb_residual"),
    ("dynamics.density_step", "mfgfd.dynamics", "fp_step_solve"),
    ("dynamics.density_step", "mfgfd.dynamics", "_fp_step_with_stats"),
    ("dynamics.assembly", "mfgfd.dynamics", "hjb_jacobian"),
    ("dynamics.assembly", "mfgfd.dynamics", "fp_matrix"),
    ("dynamics.assembly", "mfgfd.dynamics", "linearized_hjb_matrix"),
    ("dynamics.linear_solve", "mfgfd.dynamics", "_solve_checked"),
    ("dynamics.factor", "scipy.sparse.linalg", "splu"),
    ("solver.solve", "mfgfd.solver", "solve_evolutive"),
    ("solver.solve", "mfgfd.solver", "solve_ergodic"),
    ("solver.final_checks", "mfgfd.solver", "evolutive_residuals"),
    ("solver.final_checks", "mfgfd.solver", "_trajectory_monitors"),
    ("solver.final_checks", "mfgfd.solver", "_ergodic_diagnostics"),
    ("solver.ergodic_newton", "mfgfd.solver", "_ergodic_hjb_newton"),
    ("solver.stationary_density", "mfgfd.solver", "_stationary_density"),
]

# The spans each per-layer metric is computed from.
NEEDS = {
    "cost_ops.apply_s": ("cost_ops.apply",),
    "cost_ops.apply_calls": ("cost_ops.apply",),
    "hamiltonian.eval_s": ("hamiltonian.eval",),
    "hamiltonian.eval_calls": ("hamiltonian.eval",),
    "dynamics.value_step_s": ("dynamics.value_step",),
    "dynamics.value_steps": ("dynamics.value_step",),
    "dynamics.newton_iters": ("dynamics.value_step", "dynamics.assembly"),
    "dynamics.newton_per_step": ("dynamics.value_step", "dynamics.assembly"),
    "dynamics.backtracks": ("dynamics.value_step", "dynamics.assembly", "dynamics.residual"),
    "dynamics.residual_s": ("dynamics.value_step", "dynamics.residual"),
    "dynamics.residual_calls": ("dynamics.value_step", "dynamics.residual"),
    "dynamics.density_step_s": ("dynamics.density_step",),
    "dynamics.density_steps": ("dynamics.density_step",),
    "dynamics.assembly_s": ("dynamics.assembly",),
    "dynamics.assembly_calls": ("dynamics.assembly",),
    "dynamics.factor_s": ("dynamics.factor",),
    "dynamics.factor_calls": ("dynamics.factor",),
    "dynamics.lu_fill_nnz": ("dynamics.factor",),
    "dynamics.trisolve_s": ("dynamics.trisolve",),
    "dynamics.trisolve_calls": ("dynamics.trisolve",),
    "dynamics.refinements": ("dynamics.trisolve", "dynamics.linear_solve"),
    "dynamics.linear_solve_s": ("dynamics.linear_solve",),
    "solver.outer_sweeps": ("solver.solve",),
    "solver.self_s": ("solver.solve",),
    "solver.final_checks_s": ("solver.final_checks",),
    "solver.ergodic_newton_s": ("solver.ergodic_newton",),
    "solver.stationary_density_s": ("solver.stationary_density",),
}


class _TracedLU:
    """Proxy for a SuperLU factor that traces its triangular solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap_callable("dynamics.trisolve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: set[str] = set()

    # -- recording -----------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self._open.add(name)
        return idx

    def _end(self, idx: int, name: str) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open.discard(name)

    def wrap_callable(self, name: str, fn):
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx, name)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every target with its traced version."""
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self._traced_target(name, original)
            setattr(owner, attr, traced)
            if not parents:
                # names bound by `from .x import f` in the other package modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("mfgfd") and getattr(mod, attr, None) is original:
                        setattr(mod, attr, traced)

    def _traced_target(self, name: str, fn):
        traced = self.wrap_callable(name, fn)
        if name == "dynamics.factor":
            def factor(*args, **kwargs):
                lu = traced(*args, **kwargs)
                self.counts["dynamics.lu_fill_nnz"] += int(lu.nnz)
                return _TracedLU(lu, self)

            return factor
        if name == "solver.solve":
            def solve(*args, **kwargs):
                sol = traced(*args, **kwargs)
                self.counts["solver.outer_sweeps"] += int(sol.outer_iters)
                return sol

            return solve
        return traced

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals: inclusive seconds and call counts per span name,
        plus the derived counts named in the benchmark (see README)."""
        spans = self.spans
        names = [s[0] for s in spans]
        seconds: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child_seconds = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            seconds[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child_seconds[parent] += t1 - t0

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield names[p]
                p = spans[p][3]

        def within(name, outer):
            """Durations of the `name` spans that run inside an `outer` span."""
            return [
                spans[i][2] - spans[i][1]
                for i, n in enumerate(names)
                if n == name and outer in ancestors(i)
            ]

        value_steps = calls["dynamics.value_step"]
        newton_iters = len(within("dynamics.assembly", "dynamics.value_step"))
        step_residuals = within("dynamics.residual", "dynamics.value_step")
        residual_calls = len(step_residuals)
        linear_solves = calls["dynamics.linear_solve"]
        solver_self = sum(
            (s[2] - s[1]) - child_seconds[i] for i, s in enumerate(spans) if s[0] == "solver.solve"
        )
        return {
            "cost_ops.apply_s": seconds["cost_ops.apply"],
            "cost_ops.apply_calls": calls["cost_ops.apply"],
            "hamiltonian.eval_s": seconds["hamiltonian.eval"],
            "hamiltonian.eval_calls": calls["hamiltonian.eval"],
            "dynamics.value_step_s": seconds["dynamics.value_step"],
            "dynamics.value_steps": value_steps,
            "dynamics.newton_iters": newton_iters,
            "dynamics.newton_per_step": newton_iters / value_steps if value_steps else 0.0,
            "dynamics.backtracks": residual_calls - value_steps - newton_iters if value_steps else 0,
            "dynamics.residual_s": sum(step_residuals, 0.0),
            "dynamics.residual_calls": residual_calls,
            "dynamics.density_step_s": seconds["dynamics.density_step"],
            "dynamics.density_steps": calls["dynamics.density_step"],
            "dynamics.assembly_s": seconds["dynamics.assembly"],
            "dynamics.assembly_calls": calls["dynamics.assembly"],
            "dynamics.factor_s": seconds["dynamics.factor"],
            "dynamics.factor_calls": calls["dynamics.factor"],
            "dynamics.lu_fill_nnz": self.counts["dynamics.lu_fill_nnz"],
            "dynamics.trisolve_s": seconds["dynamics.trisolve"],
            "dynamics.trisolve_calls": calls["dynamics.trisolve"],
            "dynamics.refinements": (
                len(within("dynamics.trisolve", "dynamics.linear_solve")) - linear_solves
                if linear_solves
                else 0
            ),
            "dynamics.linear_solve_s": seconds["dynamics.linear_solve"],
            "solver.outer_sweeps": self.counts["solver.outer_sweeps"],
            "solver.self_s": solver_self,
            "solver.final_checks_s": seconds["solver.final_checks"],
            "solver.ergodic_newton_s": seconds["solver.ergodic_newton"],
            "solver.stationary_density_s": seconds["solver.stationary_density"],
        }

    def missing_metrics(self) -> list[str]:
        """Metric names that read 0 because every target of a span they need is missing."""
        present = {n for n, mod, path in TARGETS if f"{mod}.{path}" not in self.missing}
        if "dynamics.factor" in present:
            present.add("dynamics.trisolve")
        return [m for m, needs in NEEDS.items() if not set(needs) <= present]

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines: name, start, end, parent index."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0 - t_ref, t1 - t_ref, parent]) + "\n")
