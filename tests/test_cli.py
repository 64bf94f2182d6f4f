"""CLI: config validation, exit codes, archives, determinism, verify dispatch."""

import filecmp
import json
import os
import subprocess
import sys

import pytest

from mfgfd.cli import main
from mfgfd.config import ConfigError, load_config, parse_config_text

UNIFORM_CONFIG = """\
[problem]
kind = evolutive
nu = 1.0
beta = 2.0
T = 1.0
N_h = 8
N_T = 8
hamiltonian = zero
u0 = zero
mT = uniform

[cost]
kind = local
local.preset = linear

[output]
dir = {out}
"""

ERGODIC_CONFIG = """\
[problem]
kind = ergodic
nu = 1.0
beta = 2.0
N_h = 8
hamiltonian = zero
u0 = zero
mT = uniform

[cost]
kind = local
local.preset = linear

[output]
dir = {out}
"""

STUDY_CONFIG = """\
[problem]
kind = evolutive
nu = 1.0
beta = 2.0
T = 1.0
N_h = 4
N_T = 4
hamiltonian = zero
u0 = zero
mT = uniform

[cost]
kind = local
local.preset = linear

[study]
levels = 4, 8
steps_per_side = 1

[output]
dir = {out}
"""


def write_config(tmp_path, template, name="run.ini", **kw):
    path = tmp_path / name
    path.write_text(template.format(out=tmp_path / "out", **kw))
    return path


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        path = write_config(tmp_path, UNIFORM_CONFIG)
        cfg = load_config(path)
        assert cfg.kind == "evolutive"
        assert cfg.n_side == 8
        assert cfg.n_steps == 8
        assert cfg.damping == 0.5

    def test_beta_constraint_named(self):
        text = UNIFORM_CONFIG.format(out="x").replace("beta = 2.0", "beta = 0.5")
        with pytest.raises(ConfigError, match="beta > 1"):
            parse_config_text(text)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config("/nonexistent/config.ini")

    def test_bad_levels_nesting(self):
        text = STUDY_CONFIG.format(out="x").replace("levels = 4, 8", "levels = 8, 12")
        with pytest.raises(ConfigError, match="nested"):
            parse_config_text(text)

    def test_ergodic_requires_local_cost(self):
        text = ERGODIC_CONFIG.format(out="x").replace("kind = local", "kind = bilaplacian")
        with pytest.raises(ConfigError, match="local"):
            parse_config_text(text)

    def test_unknown_preset_named(self):
        text = UNIFORM_CONFIG.format(out="x").replace("mT = uniform", "mT = gaussian")
        with pytest.raises(ConfigError, match="mT"):
            parse_config_text(text)

    def test_misspelled_key_named(self):
        text = UNIFORM_CONFIG.format(out="x") + "\n[solver]\ndampng = 1.0\n"
        with pytest.raises(ConfigError, match=r"\[solver\.dampng\]: unknown key"):
            parse_config_text(text)

    def test_misspelled_section_named(self):
        text = UNIFORM_CONFIG.format(out="x") + "\n[solvr]\ndamping = 1.0\n"
        with pytest.raises(ConfigError, match=r"\[solvr\.damping\]: unknown key"):
            parse_config_text(text)

    def test_readme_reference_lists_exactly_the_parsed_keys(self):
        import configparser
        from pathlib import Path

        from mfgfd.config import _KEYS

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config reference", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        parse_config_text(block)
        listed = configparser.ConfigParser(inline_comment_prefixes=("#",))
        listed.optionxform = str
        listed.read_string(block)
        assert {(s, k) for s in listed.sections() for k in listed[s]} == set(_KEYS)


class TestSolveCommand:
    def test_uniform_preset_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, UNIFORM_CONFIG)
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["kind"] == "evolutive"
        assert meta["partial"] is False
        assert meta["results"]["diagnostics"]["hjb_residual"] <= 1e-9
        assert (tmp_path / "out" / "u_slice_0000.csv").exists()
        assert (tmp_path / "out" / "m_slice_0008.csv").exists()
        assert "evolutive solve" in capsys.readouterr().out

    def test_invalid_beta_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(UNIFORM_CONFIG.format(out=tmp_path).replace("beta = 2.0", "beta = 0.5"))
        assert main(["solve", "--config", str(path)]) == 1
        assert "beta > 1" in capsys.readouterr().err

    def test_unknown_key_exit_one(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(UNIFORM_CONFIG.format(out=tmp_path / "out") + "\n[solver]\ndampng = 1.0\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert "solver.dampng" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ergodic_lambda_in_meta(self, tmp_path, capsys):
        path = write_config(tmp_path, ERGODIC_CONFIG)
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["results"]["lambda"] == pytest.approx(1.0, abs=1e-8)
        assert (tmp_path / "out" / "u.csv").exists()
        assert (tmp_path / "out" / "m.csv").exists()

    def test_nonconvergence_exit_two_with_partial_archive(self, tmp_path, capsys):
        text = UNIFORM_CONFIG.format(out=tmp_path / "out") + "\n[solver]\nmax_outer = 1\n"
        # uniform converges in one sweep; use a coupled preset that cannot
        text = text.replace("hamiltonian = zero", "hamiltonian = sines").replace(
            "mT = uniform", "mT = bump"
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert "error" in meta

    @pytest.mark.parametrize(
        "template", [UNIFORM_CONFIG, ERGODIC_CONFIG], ids=["evolutive", "ergodic"]
    )
    def test_halvings_in_meta_and_summary(self, tmp_path, capsys, template):
        text = template.replace("hamiltonian = zero", "hamiltonian = sines").replace(
            "mT = uniform", "mT = bump"
        )
        path = write_config(tmp_path, text)
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        halvings = meta["results"]["diagnostics"]["halvings"]
        assert isinstance(halvings, int) and 0 <= halvings <= 6
        assert f" halvings={halvings}" in capsys.readouterr().out

    def test_unattainable_newton_tol_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, UNIFORM_CONFIG + "\n[solver]\nnewton_tol = 2e-9\n")
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[solver.newton_tol]" in err
        assert "newton_tol 2.000e-09" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["outer_tol", "newton_tol", "residual_tol"])
    def test_nan_tolerance_exit_one(self, tmp_path, capsys, key):
        path = write_config(tmp_path, UNIFORM_CONFIG + f"\n[solver]\n{key} = nan\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert "tolerances must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("nu", "nan"),
            ("nu", "inf"),
            ("beta", "inf"),
            ("T", "nan"),
            ("T", "inf"),
            ("hamiltonian.amplitude", "nan"),
            ("u0.amplitude", "-inf"),
            ("mT.kappa", "nan"),
        ],
    )
    def test_nonfinite_problem_value_exit_one(self, tmp_path, capsys, key, value):
        # NaN or inf here used to end in a singular LU or a NaN linear
        # residual inside the solve
        text = UNIFORM_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines")
        text = text.replace("u0 = zero", "u0 = cosine").replace("mT = uniform", "mT = bump")
        lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} = ")]
        lines.insert(lines.index("[problem]") + 1, f"{key} = {value}")
        path = write_config(tmp_path, "\n".join(lines) + "\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert f"[problem.{key}]: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_side, outer_tol", [(64, "1e-11"), (32, "1e-12")])
    def test_tight_ergodic_outer_tol_exit_zero(self, tmp_path, capsys, n_side, outer_tol):
        # the density residual cannot reach these tolerances in float64; the
        # backward-error floor of the stationary density accepts it
        text = ERGODIC_CONFIG.replace("N_h = 8", f"N_h = {n_side}")
        text = text.replace("hamiltonian = zero", "hamiltonian = sines")
        text = text.replace("local.preset = linear", "local.preset = power\nlocal.alpha = 2")
        text += f"\n[solver]\nouter_tol = {outer_tol}\n"
        path = write_config(tmp_path, text)
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["config"]["outer_tol"] == float(outer_tol)
        assert meta["results"]["diagnostics"]["hjb_residual"] <= 1e-8
        assert meta["results"]["diagnostics"]["fp_residual"] <= 1e-8

    def test_linear_solve_failure_exit_two_with_partial_archive(self, tmp_path, capsys):
        # no LU solve reaches a relative residual of 1e-30
        text = UNIFORM_CONFIG.format(out=tmp_path / "out") + "\n[solver]\nresidual_tol = 1e-30\n"
        text = text.replace("hamiltonian = zero", "hamiltonian = sines").replace(
            "mT = uniform", "mT = bump"
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 2
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert meta["error"].startswith("linear solve residual")
        assert meta["config"]["residual_tol"] == 1e-30
        assert "linear solve residual" in capsys.readouterr().err

    def test_cost_solve_failure_exit_two_with_partial_archive(
        self, tmp_path, capsys, monkeypatch
    ):
        from mfgfd.cost_ops import BilaplacianCost

        monkeypatch.setattr(BilaplacianCost, "RESIDUAL_LIMIT", -1.0)
        path = write_config(tmp_path, UNIFORM_CONFIG.replace("kind = local", "kind = bilaplacian"))
        assert main(["solve", "--config", str(path)]) == 2
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert meta["error"].startswith("smoothing solve residual")

    def test_ergodic_newton_failure_exit_two_with_partial_archive(self, tmp_path, capsys):
        # the stationary Newton solve honours max_newton and newton_tol
        text = ERGODIC_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines")
        text += "\n[solver]\nmax_newton = 1\nnewton_tol = 1e-15\n"
        path = write_config(tmp_path, text)
        assert main(["solve", "--config", str(path)]) == 2
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert meta["error"].startswith("Newton did not converge after 1 iterations")
        assert "Newton did not converge" in capsys.readouterr().err

    def test_archives_bitwise_identical(self, tmp_path):
        path_a = write_config(tmp_path, UNIFORM_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["solve", "--config", str(path_a), "--out", str(out_a)]) == 0
        assert main(["solve", "--config", str(path_a), "--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            if name == "meta.json":
                # the echoed config text is identical except the out dir override
                ma = json.loads((out_a / name).read_text())
                mb = json.loads((out_b / name).read_text())
                assert ma["results"] == mb["results"]
                continue
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name

    def test_meta_echo_reproduces_run(self, tmp_path):
        # re-running from the config text stored in meta.json gives the same archive
        path = write_config(tmp_path, UNIFORM_CONFIG)
        out_a = tmp_path / "out"
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((out_a / "meta.json").read_text())
        replay = tmp_path / "replay.ini"
        replay.write_text(meta["config_text"])
        out_b = tmp_path / "replayed"
        assert main(["solve", "--config", str(replay), "--out", str(out_b)]) == 0
        for name in ("u_slice_0000.csv", "u_slice_0008.csv", "m_slice_0000.csv"):
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


class TestStudyCommand:
    def test_uniform_exact_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, STUDY_CONFIG)
        assert main(["study", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "study.json").read_text())
        for row in data["levels"]:
            if "err_u_sup" in row:
                assert row["err_u_sup"] <= 1e-8
        assert (tmp_path / "out" / "study.csv").exists()

    def test_mismatched_levels_exit_one(self, tmp_path, capsys):
        text = STUDY_CONFIG.format(out=tmp_path / "out").replace("levels = 4, 8", "levels = 8, 12")
        path = tmp_path / "study.ini"
        path.write_text(text)
        assert main(["study", "--config", str(path)]) == 1
        assert "nested" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["0, 4", "-4, 4"])
    def test_levels_below_one_exit_one(self, tmp_path, capsys, levels):
        # a zero level used to divide by zero in the nesting check, and a
        # negative one to pass it and fail in the grid
        path = write_config(tmp_path, STUDY_CONFIG.replace("levels = 4, 8", f"levels = {levels}"))
        assert main(["study", "--config", str(path)]) == 1
        assert "[study.levels]: levels must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_levels_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, UNIFORM_CONFIG)
        assert main(["study", "--config", str(path)]) == 1
        assert "levels" in capsys.readouterr().err

    def test_linear_solve_failure_exit_two(self, tmp_path, capsys):
        # the solves of a study honour the [solver] linear-solve contract
        text = STUDY_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines").replace(
            "mT = uniform", "mT = bump"
        )
        path = write_config(tmp_path, text + "\n[solver]\nresidual_tol = 1e-30\n")
        assert main(["study", "--config", str(path)]) == 2
        assert "linear solve residual" in capsys.readouterr().err

    def test_cost_solve_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        from mfgfd.cost_ops import BilaplacianCost

        monkeypatch.setattr(BilaplacianCost, "RESIDUAL_LIMIT", -1.0)
        path = write_config(tmp_path, STUDY_CONFIG.replace("kind = local", "kind = bilaplacian"))
        assert main(["study", "--config", str(path)]) == 2
        assert "smoothing solve residual" in capsys.readouterr().err


class TestVerifyCommand:
    def test_all_suites_pass(self, tmp_path, capsys):
        code = main(
            ["verify", "all", "--seed", "7", "--samples", "300", "--out", str(tmp_path)]
        )
        assert code == 0
        for name in ("lemmas_report.json", "identity_report.json", "adjoint_report.json"):
            report = json.loads((tmp_path / name).read_text())
            assert report["pass"] is True

    def test_single_suite_dispatch(self, tmp_path):
        code = main(
            ["verify", "lemmas", "--seed", "3", "--samples", "200", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "lemmas_report.json").exists()
        assert not (tmp_path / "adjoint_report.json").exists()

    @pytest.mark.parametrize("suite", ["lemmas", "identity", "adjoint", "all"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_one(self, tmp_path, capsys, suite, samples):
        out = tmp_path / "reports"
        assert main(["verify", suite, "--samples", samples, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["lemmas", "identity", "adjoint", "all"])
    def test_negative_seed_exit_one(self, tmp_path, capsys, suite):
        out = tmp_path / "reports"
        assert main(["verify", suite, "--seed", "-1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_negative_seed_without_traceback(self, tmp_path):
        # numpy refuses a negative seed deep inside the suites, with a
        # traceback, so the command has to refuse it first
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-m", "mfgfd.cli", "verify", "adjoint", "--seed", "-1",
             "--out", str(tmp_path / "reports")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1
        assert run.stderr.startswith("error: --seed")
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("samples, used", [(500, 100), (7, 7)])
    def test_pairs_and_probes_capped_at_100(self, tmp_path, samples, used):
        for suite, key in (("identity", "pairs"), ("adjoint", "probes")):
            assert main(["verify", suite, "--samples", str(samples), "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / f"{suite}_report.json").read_text())
            assert [r[key] for r in report["reports"]] == [used] * len(report["reports"])

    def test_lemma_dispatch_covers_small_beta(self, tmp_path):
        main(["verify", "lemmas", "--seed", "3", "--samples", "200", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "lemmas_report.json").read_text())
        betas = [r["beta"] for r in report["reports"]]
        assert 1.5 in betas
        small = next(r for r in report["reports"] if r["beta"] == 1.5)
        ids = {c["lemma_id"] for c in small["checks"]}
        assert "gap_kink_lower" in ids


class TestFilePresets:
    def test_file_preset_roundtrip(self, tmp_path):
        import numpy as np

        from mfgfd.config import parse_config_text
        from mfgfd.presets import build_evolutive_problem
        from mfgfd.torus_grid import GridField, TorusGrid, save_grid_field

        g = TorusGrid(8)
        rng = np.random.default_rng(0)
        pot = GridField(g, rng.normal(size=(8, 8)))
        pot_path = tmp_path / "potential.csv"
        save_grid_field(pot, pot_path)
        text = UNIFORM_CONFIG.format(out=tmp_path).replace(
            "hamiltonian = zero",
            f"hamiltonian = file\nhamiltonian.file = {pot_path}",
        )
        cfg = parse_config_text(text)
        problem = build_evolutive_problem(cfg)
        assert np.array_equal(problem.hamiltonian.potential.values, pot.values)

    def test_file_preset_size_mismatch(self, tmp_path):
        from mfgfd.config import parse_config_text
        from mfgfd.presets import build_evolutive_problem
        from mfgfd.torus_grid import GridField, TorusGrid, save_grid_field

        pot_path = tmp_path / "potential.csv"
        save_grid_field(GridField.zeros(TorusGrid(4)), pot_path)
        text = UNIFORM_CONFIG.format(out=tmp_path).replace(
            "hamiltonian = zero",
            f"hamiltonian = file\nhamiltonian.file = {pot_path}",
        )
        cfg = parse_config_text(text)
        with pytest.raises(ValueError, match="n_side"):
            build_evolutive_problem(cfg)

    def test_truncated_file_exit_one(self, tmp_path, capsys):
        from mfgfd.torus_grid import GridField, TorusGrid, save_grid_field

        pot_path = tmp_path / "potential.csv"
        save_grid_field(GridField.zeros(TorusGrid(8)), pot_path)
        pot_path.write_text("\n".join(pot_path.read_text().splitlines()[:-5]) + "\n")
        text = UNIFORM_CONFIG.format(out=tmp_path / "out").replace(
            "hamiltonian = zero",
            f"hamiltonian = file\nhamiltonian.file = {pot_path}",
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "misses 5 of 64 nodes" in err

    def test_missing_file_key_rejected(self, tmp_path):
        from mfgfd.config import ConfigError, parse_config_text

        text = UNIFORM_CONFIG.format(out=tmp_path).replace(
            "hamiltonian = zero", "hamiltonian = file"
        )
        with pytest.raises(ConfigError, match="hamiltonian.file"):
            parse_config_text(text)


class TestThreadsAndFailures:
    def test_verify_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        import mfgfd.cli as cli

        failing = {
            "suite": "lemmas",
            "reports": [
                {
                    "beta": 2.0,
                    "checks": [
                        {
                            "lemma_id": "gap_power_lower",
                            "pass": False,
                            "worst_margin": -1e-3,
                            "worst_sample": 17,
                        }
                    ],
                    "pass": False,
                }
            ],
            "pass": False,
        }
        monkeypatch.setattr(cli, "run_lemma_suites", lambda **kw: failing)
        code = main(["verify", "lemmas", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "gap_power_lower" in err
        assert "17" in err

    def test_console_script_installed(self):
        import shutil
        import subprocess

        exe = shutil.which("mfgfd")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "solve" in out.stdout

    def test_missing_preset_file_exit_one(self, tmp_path, capsys):
        text = UNIFORM_CONFIG.format(out=tmp_path / "out").replace(
            "hamiltonian = zero",
            f"hamiltonian = file\nhamiltonian.file = {tmp_path / 'nope.csv'}",
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 1
        assert "cannot be read" in capsys.readouterr().err
