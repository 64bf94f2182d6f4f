"""Regenerate the pinned solution fingerprints in `perfbench/reference/`.

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves each solve workload once from the default start (no seeded
perturbation) and stores the fingerprint that `op.py` compares every
benchmarked solve against.  Run it only when the scheme itself is meant
to change; the fixed point does not depend on the start trajectory.
"""

from __future__ import annotations

import numpy as np

import mfgfd
import mfgfd.presets
from op import CONFIGS, REFERENCE_DIR, fingerprint, solution_arrays


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, text in CONFIGS.items():
        cfg = mfgfd.config.parse_config_text(text)
        fixed, hjb, contract = mfgfd.presets.solver_settings(cfg)
        if cfg.kind == "ergodic":
            sol = mfgfd.solve_ergodic(mfgfd.presets.build_ergodic_problem(cfg), cfg=fixed, contract=contract)
        else:
            problem = mfgfd.presets.build_evolutive_problem(cfg)
            sol = mfgfd.solve_evolutive(problem, cfg=fixed, hjb_cfg=hjb, contract=contract)
        fp = fingerprint(solution_arrays(sol))
        np.savez(REFERENCE_DIR / f"{name}.npz", **fp)
        print(name, {k: v.shape for k, v in fp.items()}, f"outer_iters={sol.outer_iters}")


if __name__ == "__main__":
    main()
