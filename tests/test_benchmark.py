"""The benchmark's operation: each workload solves, writes its archive and
passes the gates of ``perfbench/op.py``, the solver contracts and the pinned
reference fingerprint, in a fresh single-threaded process as ``run.py``
starts it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OP_PATH = ROOT / "perfbench" / "op.py"


def _op_names() -> tuple[tuple, tuple]:
    """The workload names (the keys of ``CONFIGS``) and ``THREAD_VARS`` of
    ``perfbench/op.py``, read from its source without running it."""
    found = {}
    for node in ast.parse(OP_PATH.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "CONFIGS":
                found[name] = tuple(ast.literal_eval(key) for key in node.value.keys)
            elif name == "THREAD_VARS":
                found[name] = ast.literal_eval(node.value)
    return found["CONFIGS"], found["THREAD_VARS"]


WORKLOADS, THREAD_VARS = _op_names()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operation_passes_its_gates(workload, tmp_path):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(OP_PATH), "--workload", workload, "--seed", "7",
        "--trace", "0", "--workdir", str(tmp_path),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["failed"] == 0, res
    assert res["gate"] == [], res["gate"]
