"""CLI: config validation, exit codes, archives, determinism, verify dispatch."""

import filecmp
import json
import os
import subprocess
import sys

import pytest

from mfgfd.cli import SOLVER_FAILURES, main
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

ERGODIC_BILAPLACIAN_CONFIG = ERGODIC_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines").replace(
    "kind = local\nlocal.preset = linear", "kind = bilaplacian"
)

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


def with_problem_value(template: str, key: str, value: str) -> str:
    """``template`` with [problem] ``key`` set to ``value``."""
    lines = [ln for ln in template.splitlines() if not ln.startswith(f"{key} = ")]
    lines.insert(lines.index("[problem]") + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestConfigParsing:
    def test_defaults_and_overrides(self, tmp_path):
        path = write_config(tmp_path, UNIFORM_CONFIG)
        cfg = load_config(path)
        assert cfg.kind == "evolutive"
        assert cfg.n_side == 8
        assert cfg.n_steps == 8
        assert cfg.damping == 1.0

    def test_beta_constraint_named(self):
        text = UNIFORM_CONFIG.format(out="x").replace("beta = 2.0", "beta = 0.5")
        with pytest.raises(ConfigError, match=r"\[problem\.beta\]: beta must be > 1 and finite"):
            parse_config_text(text)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config("/nonexistent/config.ini")

    def test_bad_levels_nesting(self):
        text = STUDY_CONFIG.format(out="x").replace("levels = 4, 8", "levels = 8, 12")
        with pytest.raises(ConfigError, match="nested"):
            parse_config_text(text)

    def test_misspelled_key_named(self):
        text = UNIFORM_CONFIG.format(out="x") + "\n[solver]\ndampng = 1.0\n"
        with pytest.raises(ConfigError, match=r"\[solver\.dampng\]: unknown key"):
            parse_config_text(text)

    def test_misspelled_section_named(self):
        text = UNIFORM_CONFIG.format(out="x") + "\n[solvr]\ndamping = 1.0\n"
        with pytest.raises(ConfigError, match=r"\[solvr\.damping\]: unknown key"):
            parse_config_text(text)

    def test_default_section_refused_not_ignored(self):
        # configparser would read [DEFAULT] as defaults, which no section
        # listed: this config parsed to N_h 16, evolutive
        with pytest.raises(ConfigError, match=r"\[DEFAULT\.N_h\]: unknown key"):
            parse_config_text("[DEFAULT]\nN_h = 64\nkind = ergodic\n")

    def test_default_section_does_not_leak_into_problem(self):
        # this config parsed with nu = 2 in [problem]
        with pytest.raises(ConfigError, match=r"\[DEFAULT\.nu\]: unknown key"):
            parse_config_text("[DEFAULT]\nnu = 2\n\n[problem]\nkind = evolutive\n")

    def test_default_section_error_names_the_section_written(self):
        # the error named [cost.nu], a key the user never wrote in [cost]
        text = "[DEFAULT]\nnu = 2\n\n" + UNIFORM_CONFIG.format(out="x")
        assert "[cost]" in text
        with pytest.raises(ConfigError, match=r"\[DEFAULT\.nu\]: unknown key"):
            parse_config_text(text)

    @pytest.mark.parametrize("section", ["bogus", "DEFAULT"])
    def test_empty_unknown_section_refused(self, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\]: unknown section"):
            parse_config_text(UNIFORM_CONFIG.format(out="x") + f"\n[{section}]\n")

    @pytest.mark.parametrize("value", ["out%1", "%(x)s", "100%%"])
    def test_percent_is_literal(self, value):
        # configparser's default interpolation raised InterpolationSyntaxError
        # on "out%1" and "%(x)s", and read "100%%" as "100%"
        assert parse_config_text(UNIFORM_CONFIG.format(out=value)).out_dir == value

    @pytest.mark.parametrize("name", ["out%1", "%(x)s"])
    def test_solve_writes_to_a_percent_path(self, tmp_path, name):
        path = tmp_path / "run.ini"
        path.write_text(UNIFORM_CONFIG.format(out=tmp_path / name))
        assert main(["solve", "--config", str(path)]) == 0
        assert (tmp_path / name / "meta.json").is_file()

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
        assert "[problem.beta]: beta must be > 1 and finite, got 0.5" in capsys.readouterr().err

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

    def test_ergodic_bilaplacian_exit_zero(self, tmp_path, capsys):
        # both models take every cost
        path = write_config(tmp_path, ERGODIC_BILAPLACIAN_CONFIG)
        assert main(["solve", "--config", str(path)]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["config"]["cost_kind"] == "bilaplacian"
        assert isinstance(meta["results"]["lambda"], float)
        assert meta["results"]["diagnostics"]["hjb_residual"] <= 1e-8
        assert meta["results"]["diagnostics"]["fp_residual"] <= 1e-8
        assert f"lambda={meta['results']['lambda']:.12g}" in capsys.readouterr().out

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
        assert f"[solver.{key}]: {key} must be positive and finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["outer_tol", "newton_tol", "residual_tol"])
    def test_infinite_tolerance_exit_one(self, tmp_path, capsys, key):
        # an infinite tolerance passes a positivity test and switches off the
        # checks it feeds: the ergodic solve would exit 0
        path = write_config(tmp_path, ERGODIC_CONFIG + f"\n[solver]\n{key} = inf\n")
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"[solver.{key}]: {key} must be positive and finite, got inf" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["max_outer", "max_newton"])
    def test_zero_iteration_cap_names_its_key(self, tmp_path, capsys, key):
        path = write_config(tmp_path, UNIFORM_CONFIG + f"\n[solver]\n{key} = 0\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert f"[solver.{key}]: {key} must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template", [UNIFORM_CONFIG, ERGODIC_BILAPLACIAN_CONFIG], ids=["evolutive", "ergodic"])
    @pytest.mark.parametrize("n_side", ["0", "-1"])
    def test_side_count_below_one_names_its_key(self, tmp_path, capsys, template, n_side):
        # TorusGrid's rule, which the API and the study levels share
        path = write_config(tmp_path, template.replace("N_h = 8", f"N_h = {n_side}"))
        assert main(["solve", "--config", str(path)]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert f"[problem.N_h]: n_side must be an integer >= 1, got {n_side}" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("template", [UNIFORM_CONFIG, ERGODIC_BILAPLACIAN_CONFIG], ids=["evolutive", "ergodic"])
    def test_one_cell_grid_exit_zero(self, tmp_path, template):
        # a one-node grid solves in both models through the config, as through the API
        path = write_config(tmp_path, template.replace("N_h = 8", "N_h = 1"))
        assert main(["solve", "--config", str(path)]) == 0
        assert json.loads((tmp_path / "out" / "meta.json").read_text())["grid"]["n_side"] == 1

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
        path = write_config(tmp_path, with_problem_value(text, key, value))
        assert main(["solve", "--config", str(path)]) == 1
        wording = {"nu": "nu must be positive and finite", "beta": "beta must be > 1 and finite",
                   "T": "horizon must be positive and finite", "mT.kappa": "kappa must be a finite number"}
        owner = wording.get(key, "amplitude must be a finite number")
        assert f"[problem.{key}]: {owner}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kappa", ["178", "360", "800", "-800", "1e5"])
    def test_bump_kappa_beyond_max_exit_one(self, tmp_path, capsys, kappa):
        # 360 used to end in an OverflowError traceback, 800 in NaN density nodes
        text = UNIFORM_CONFIG.replace("mT = uniform", f"mT = bump\nmT.kappa = {kappa}")
        assert main(["solve", "--config", str(write_config(tmp_path, text))]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert f"[problem.mT.kappa]: kappa must be at most 177.099 in absolute value, got {float(kappa)}" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kappa", ["177", "-177"])
    def test_bump_kappa_within_max_accepted(self, kappa):
        text = UNIFORM_CONFIG.format(out="x").replace("mT = uniform", f"mT = bump\nmT.kappa = {kappa}")
        assert parse_config_text(text).mT_kappa == float(kappa)

    @pytest.mark.parametrize("n_side, outer_tol", [(64, "1e-11"), (32, "1e-12")])
    def test_tight_ergodic_outer_tol_exit_zero(self, tmp_path, capsys, n_side, outer_tol):
        # the density residual cannot reach these tolerances in float64; the
        # backward-error floor of the stationary density accepts it, and the
        # held LU stops refining once its rate shows the miss (48 refinement
        # steps in both before that stop)
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
        counts = {k: meta["results"]["diagnostics"][k] for k in ("factorizations", "refinements")}
        assert counts == {"factorizations": 6, "refinements": {64: 20, 32: 18}[n_side]}

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
        assert "[study.levels]: level N_h must be an integer >= 1" in capsys.readouterr().err
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

    def test_ergodic_bilaplacian_lambda_increments_shrink(self, tmp_path, capsys):
        text = ERGODIC_BILAPLACIAN_CONFIG + "\n[study]\nlevels = 8 16 32\n"
        assert main(["study", "--config", str(write_config(tmp_path, text))]) == 0
        data = json.loads((tmp_path / "out" / "study.json").read_text())
        assert [row["n_side"] for row in data["levels"]] == [8, 16, 32]
        first, second = data["lambda_increments"]
        assert 0.0 < second < first

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_per_side_read_by_the_evolutive_kind_only(self, tmp_path, capsys, steps):
        # a stationary study reads no time steps; its levels nest in space only
        study = f"\n[study]\nlevels = 8 16\nsteps_per_side = {steps}\n"
        path = write_config(tmp_path, ERGODIC_BILAPLACIAN_CONFIG + study, "erg.ini")
        assert main(["study", "--config", str(path)]) == 0
        assert [row["n_side"] for row in json.loads((tmp_path / "out" / "study.json").read_text())["levels"]] == [8, 16]
        text = STUDY_CONFIG.replace("steps_per_side = 1", f"steps_per_side = {steps}")
        path = write_config(tmp_path, text.replace("dir = {out}", "dir = {out}-evo"), "evo.ini")
        assert main(["study", "--config", str(path)]) == 1
        assert "[study.steps_per_side]" in capsys.readouterr().err
        assert not (tmp_path / "out-evo").exists()

    def test_cost_solve_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        from mfgfd.cost_ops import BilaplacianCost

        monkeypatch.setattr(BilaplacianCost, "RESIDUAL_LIMIT", -1.0)
        path = write_config(tmp_path, STUDY_CONFIG.replace("kind = local", "kind = bilaplacian"))
        assert main(["study", "--config", str(path)]) == 2
        assert "smoothing solve residual" in capsys.readouterr().err


# (key, value, the key the evolutive refusal names): values of keys the
# ergodic model never reads, each refused by the evolutive one
UNREAD_BY_ERGODIC = [
    ("mT.kappa", "178", "mT.kappa"),
    ("mT.kappa", "nan", "mT.kappa"),
    ("u0.amplitude", "inf", "u0.amplitude"),
    ("u0", "gaussian", "u0"),
    ("mT", "gaussian", "mT"),
    ("mT", "file", "mT.file"),
    ("T", "nan", "T"),
]


class TestEachModelReadsItsOwnKeys:
    @pytest.mark.parametrize("key, value, named", UNREAD_BY_ERGODIC)
    def test_ergodic_ignores_evolutive_keys(self, tmp_path, key, value, named):
        base = ERGODIC_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines")
        assert main(["solve", "--config", str(write_config(tmp_path, base, "base.ini"))]) == 0
        path = write_config(tmp_path, with_problem_value(base, key, value))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "changed")]) == 0
        for name in ("u.csv", "m.csv"):
            assert (tmp_path / "changed" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_nonfinite_unread_values_keep_meta_strict_json(self, tmp_path):
        text = with_problem_value(with_problem_value(ERGODIC_CONFIG, "T", "nan"), "mT.kappa", "-inf")
        assert main(["solve", "--config", str(write_config(tmp_path, text))]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        meta = json.loads((tmp_path / "out" / "meta.json").read_text(), parse_constant=refuse)
        assert (meta["config"]["horizon"], meta["config"]["mT_kappa"]) == ("nan", "-inf")

    @pytest.mark.parametrize("key, value, named", UNREAD_BY_ERGODIC)
    def test_evolutive_still_refuses(self, tmp_path, capsys, key, value, named):
        path = write_config(tmp_path, with_problem_value(UNIFORM_CONFIG, key, value))
        assert main(["solve", "--config", str(path)]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(f"error: config error at [problem.{named}]: ")
        assert not (tmp_path / "out").exists()


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


def one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def refuse(*args, **kwargs):
    raise AssertionError("called for a run that had to be refused first")


class TestOutputPath:
    """An output path that cannot become a directory is refused before any
    work, and a failed write is one error line, exit 1."""

    @pytest.fixture(params=["file", "under_file"])
    def bad_out(self, request, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        return blocker if request.param == "file" else blocker / "sub"

    def check_refused(self, tmp_path, capsys, code):
        assert code == 1
        assert "is not a directory" in one_error_line(capsys.readouterr().err)
        assert (tmp_path / "taken").read_text() == "keep\n"
        assert not (tmp_path / "out").exists()

    def test_solve_refused_before_solving(self, tmp_path, capsys, monkeypatch, bad_out):
        import mfgfd.cli as cli

        monkeypatch.setattr(cli, "solve_evolutive", refuse)
        path = write_config(tmp_path, UNIFORM_CONFIG)
        code = main(["solve", "--config", str(path), "--out", str(bad_out)])
        self.check_refused(tmp_path, capsys, code)

    def test_study_refused_before_solving(self, tmp_path, capsys, monkeypatch, bad_out):
        import mfgfd.cli as cli

        monkeypatch.setattr(cli, "convergence_study", refuse)
        path = write_config(tmp_path, STUDY_CONFIG)
        code = main(["study", "--config", str(path), "--out", str(bad_out)])
        self.check_refused(tmp_path, capsys, code)

    def test_verify_refused_before_running(self, tmp_path, capsys, monkeypatch, bad_out):
        import mfgfd.cli as cli

        monkeypatch.setattr(cli, "run_adjoint_suite", refuse)
        code = main(["verify", "adjoint", "--samples", "2", "--out", str(bad_out)])
        self.check_refused(tmp_path, capsys, code)

    @pytest.mark.parametrize(
        "command, writer, template",
        [
            ("solve", "write_evolutive_archive", UNIFORM_CONFIG),
            ("solve", "write_ergodic_archive", ERGODIC_CONFIG),
            ("study", "write_study", STUDY_CONFIG),
            ("verify", "write_report", None),
        ],
        ids=["solve-evolutive", "solve-ergodic", "study", "verify"],
    )
    def test_failed_write_exit_one(self, tmp_path, capsys, monkeypatch, command, writer, template):
        import mfgfd.cli as cli

        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path / "out"))

        monkeypatch.setattr(cli, writer, fail)
        if template is None:
            argv = ["verify", "adjoint", "--samples", "2", "--out", str(tmp_path / "out")]
        else:
            argv = [command, "--config", str(write_config(tmp_path, template))]
        assert main(argv) == 1
        assert "Permission denied" in one_error_line(capsys.readouterr().err)

    def test_solve_refused_without_traceback(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        path = write_config(tmp_path, UNIFORM_CONFIG)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-m", "mfgfd.cli", "solve", "--config", str(path),
             "--out", str(blocker)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1
        assert run.stderr == f"error: output path {blocker} is not a directory\n"
        assert "Traceback" not in run.stderr


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

    @pytest.mark.parametrize("sidecar", [None, "{}", "[4]", '{"n_side": 4.5}', "not json"])
    def test_csv_alone_loads(self, tmp_path, sidecar):
        # the CSV is the whole file format: a .json beside it is never read
        import numpy as np

        from mfgfd.presets import build_evolutive_problem

        pot_path = tmp_path / "potential.csv"
        rows = [f"{i},{j},{i - 0.5 * j}" for i in range(8) for j in range(8)]
        pot_path.write_text("i,j,value\n" + "\n".join(rows) + "\n")
        if sidecar is not None:
            pot_path.with_suffix(".json").write_text(sidecar)
        text = UNIFORM_CONFIG.format(out=tmp_path).replace(
            "hamiltonian = zero",
            f"hamiltonian = file\nhamiltonian.file = {pot_path}",
        )
        problem = build_evolutive_problem(parse_config_text(text))
        i, j = np.meshgrid(np.arange(8.0), np.arange(8.0), indexing="ij")
        assert np.array_equal(problem.hamiltonian.potential.values, i - 0.5 * j)

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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key, preset", [("hamiltonian", "zero"), ("u0", "zero"), ("mT", "uniform")]
    )
    def test_nonfinite_file_value_exit_one(self, tmp_path, capsys, key, preset, value):
        # a NaN used to reach the solver and end in a singular factor or a
        # NaN linear residual, exit 2 with a partial archive
        from mfgfd.torus_grid import GridField, TorusGrid, save_grid_field

        path = tmp_path / f"{key}.csv"
        save_grid_field(GridField.constant(TorusGrid(8), 1.0), path)
        path.write_text(path.read_text().replace("7,7,1\n", f"7,7,{value}\n"))
        text = UNIFORM_CONFIG.replace(f"{key} = {preset}", f"{key} = file\n{key}.file = {path}")
        assert main(["solve", "--config", str(write_config(tmp_path, text))]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert "node (7, 7)" in line and "non-finite" in line
        assert not (tmp_path / "out").exists()

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
        import tomllib
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
        assert scripts["mfgfd"] == "mfgfd.cli:main"
        # an installed script runs main; a plain checkout runs the same module
        exe = shutil.which("mfgfd")
        if exe is None:
            cmd = [sys.executable, "-m", "mfgfd.cli", "--help"]
            env = {**os.environ, "PYTHONPATH": str(root / "src")}
        else:
            cmd, env = [exe, "--help"], None
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
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

    def test_undecodable_preset_file_exit_one(self, tmp_path, capsys):
        # a byte that is not UTF-8 used to exit 1 with a codec message that
        # named neither the file nor the field
        pot_path = tmp_path / "potential.csv"
        pot_path.write_bytes(b"i,j,value\n0,0,\xff\n")
        text = UNIFORM_CONFIG.replace("hamiltonian = zero", f"hamiltonian = file\nhamiltonian.file = {pot_path}")
        assert main(["solve", "--config", str(write_config(tmp_path, text))]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert f"hamiltonian file {pot_path} cannot be read" in line


def solver_failure(kind):
    """An instance of ``kind``, one of ``SOLVER_FAILURES``."""
    from mfgfd.cost_ops import CostSolveError
    from mfgfd.dynamics import NonConvergence, PositivityError
    from mfgfd.linear import LinearSolveError
    from mfgfd.solver import OuterNonConvergence

    return {
        NonConvergence: NonConvergence(3, 1e-3),
        OuterNonConvergence: OuterNonConvergence(2, 1e-4),
        PositivityError: PositivityError("density undershoot -1.000e-03"),
        LinearSolveError: LinearSolveError("linear solve residual 1.000e-03 exceeds contract"),
        CostSolveError: CostSolveError(1e-3, 1e-10),
    }[kind]


def failing_solve(exc):
    def solve(*args, **kwargs):
        raise exc

    return solve


class TestOneFailurePath:
    """Every command raises; ``main`` alone turns an error into its exit code
    and its one stderr line."""

    @pytest.mark.parametrize(
        "argv",
        [[], ["solve"], ["verify", "bogus"], ["verify", "lemmas", "--samples", "abc"]],
        ids=["no-command", "solve-without-config", "unknown-suite", "samples-not-int"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        # argparse's own code, 2, is the one reserved for solver failures
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage: mfgfd")

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", SOLVER_FAILURES, ids=lambda k: k.__name__)
    def test_solve_failure_exit_two_with_partial_archive(self, tmp_path, capsys, monkeypatch, kind):
        import mfgfd.cli as cli

        exc = solver_failure(kind)
        monkeypatch.setattr(cli, "solve_evolutive", failing_solve(exc))
        assert main(["solve", "--config", str(write_config(tmp_path, UNIFORM_CONFIG))]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"solver failed: {exc}\n"
        assert captured.out == ""
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert meta["error"] == str(exc)

    @pytest.mark.parametrize("kind", SOLVER_FAILURES, ids=lambda k: k.__name__)
    def test_study_failure_exit_two_without_study(self, tmp_path, capsys, monkeypatch, kind):
        import mfgfd.study as study

        exc = solver_failure(kind)
        monkeypatch.setattr(study, "solve_evolutive", failing_solve(exc))
        assert main(["study", "--config", str(write_config(tmp_path, STUDY_CONFIG))]) == 2
        assert capsys.readouterr().err == f"solver failed: {exc}\n"
        assert not (tmp_path / "out" / "study.json").exists()

    def test_outer_nonconvergence_exit_two_with_partial_archive(self, tmp_path, capsys):
        # sines+bump does not converge in one sweep
        text = UNIFORM_CONFIG.replace("hamiltonian = zero", "hamiltonian = sines").replace("mT = uniform", "mT = bump")
        path = write_config(tmp_path, text + "\n[solver]\nmax_outer = 1\n")
        assert main(["solve", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failed: outer iteration did not converge after 1 sweeps")
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["partial"] is True
        assert meta["error"] == lines[0].removeprefix("solver failed: ")

    def test_failed_partial_archive_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        import mfgfd.cli as cli

        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(tmp_path / "out"))

        monkeypatch.setattr(cli, "solve_evolutive", failing_solve(solver_failure(cli.LinearSolveError)))
        monkeypatch.setattr(cli, "write_partial_archive", fail)
        assert main(["solve", "--config", str(write_config(tmp_path, UNIFORM_CONFIG))]) == 1
        assert "Permission denied" in one_error_line(capsys.readouterr().err)

    def test_each_stderr_prefix_written_once(self):
        from pathlib import Path

        source = (Path(__file__).resolve().parents[1] / "src" / "mfgfd" / "cli.py").read_text()
        assert source.count('print(f"error:') == 1
        assert source.count('print(f"solver failed:') == 1
