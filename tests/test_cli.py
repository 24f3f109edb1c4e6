"""Tests for the command-line interface and the staged pipeline."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shotfactor import backend, cli, lgcp
from shotfactor.cli import main, one_blas_thread, openblas_thread_controls
from shotfactor.court import (
    CourtGrid,
    read_count_csv,
    read_labeled_csv,
    write_labeled_csv,
)
from shotfactor.efficiency import EfficiencyConfig
from shotfactor.evaluate import EvalConfig
from shotfactor.lgcp import LgcpConfig
from shotfactor.nmf import NmfConfig
from shotfactor.pipeline import (
    STAGES,
    PipelineConfig,
    load_config,
    parse_config_file,
    run_pipeline,
)
from shotfactor.synth import SynthConfig

STAGE_CODES = {stage.name: stage.code for stage in STAGES}
SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG_TEMPLATE = """\
tile_x = 2.5
tile_y = 2.0
n_players = 6
k_star = 2
budget_min = 80
budget_max = 120
seed = 3
k = 2
k_list = [1, 2]
restarts = 2
nmf_iters = 500
lgcp_burn_in = 100
lgcp_samples = 100
lgcp_thinning = 1
lvm_sweeps = 200
lvm_burn_in = 50
min_attempts = 20
shots = {shots}
out = {out}
"""


def _write_config(dir_path, **overrides):
    """Write the template with ``shots``/``out`` filled in; each other
    override replaces its key's template line, or is appended after them."""
    shots = overrides.pop("shots", os.path.join(dir_path, "data", "shots.csv"))
    out = overrides.pop("out", os.path.join(dir_path, "artifacts"))
    text = CONFIG_TEMPLATE.format(shots=shots, out=out)
    for key, value in overrides.items():
        line = f"{key} = {value}\n"
        text, found = re.subn(rf"(?m)^{key} = .*\n", lambda _: line, text)
        text += "" if found else line
    path = os.path.join(dir_path, "config.txt")
    with open(path, "w") as f:
        f.write(text)
    return path


def _synth(config_path, out_dir, extra=()):
    return main(["synth", "--config", config_path, "--out", str(out_dir), *extra])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a config pointing at it."""
    root = tmp_path_factory.mktemp("cli")
    config_path = _write_config(str(root))
    assert _synth(config_path, root / "data") == 0
    return {"root": root, "config": config_path}


@pytest.fixture(scope="module")
def finished(workspace):
    """An artifact directory the pipeline has completed; copy it to edit."""
    out = workspace["root"] / "finished"
    argv = ["pipeline", "--config", workspace["config"], "--out", str(out)]
    assert main(argv) == 0
    return out


def _stage_outputs(out_dir):
    """Bytes of every stage output, by name."""
    return {
        p.name: p.read_bytes()
        for p in out_dir.iterdir()
        if p.is_file() and not p.name.startswith("pipeline_")
    }


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI loads no scipy module."""
    code = (
        "import sys, shotfactor.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


class TestConfigParsing:
    def test_key_value_lines_with_json_values(self, tmp_path):
        """Values parse as JSON fragments, bare words stay strings."""
        path = tmp_path / "c.txt"
        path.write_text(
            "# comment\nseed = 12\nk_list = [1, 2, 3]\nloss = kl\n\nout = somewhere\n"
        )
        mapping = parse_config_file(path)
        assert mapping == {
            "seed": 12,
            "k_list": [1, 2, 3],
            "loss": "kl",
            "out": "somewhere",
        }

    def test_malformed_line_rejected(self, tmp_path):
        """A line without '=' reports its location."""
        path = tmp_path / "c.txt"
        path.write_text("seed 12\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_config_file(path)

    def test_key_given_twice_exits_one_before_any_stage(
        self, workspace, tmp_path, capsys
    ):
        """A key set on two lines names both, instead of the last value
        silently winning, and no stage runs."""
        shots = str(workspace["root"] / "data" / "shots.csv")
        config_path = _write_config(str(tmp_path), shots=shots)
        with open(config_path, "a") as f:
            f.write("k = 4\n")
        lines = Path(config_path).read_text().splitlines()
        first, again = lines.index("k = 2") + 1, len(lines)
        assert main(["pipeline", "--config", config_path]) == 1
        err = capsys.readouterr().err
        where = f"{config_path}:{again}"
        assert err == f"error: {where}: key 'k' already set on line {first}\n"
        assert not (tmp_path / "artifacts").exists()

    def test_unknown_keys_rejected(self):
        """Misspelled config keys fail fast."""
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(None, {"sed": 1})

    @pytest.mark.parametrize("value", ["4", '[1, "x"]', '"12"', "[]"])
    def test_bad_k_list_exits_one_naming_the_key(self, tmp_path, capsys, value):
        """A k_list that is not a list of integers is one error line that
        names the key, not a traceback."""
        config_path = _write_config(str(tmp_path), k_list=value)
        assert main(["pipeline", "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k_list must be a list of integers" in err

    @pytest.mark.parametrize(
        "key, value, view, message",
        [
            ("lgcp_burn_in", "x", "lgcp_config", "burn_in must be an integer >= 0"),
            ("lgcp_burn_in", 1.5, "lgcp_config", "burn_in must be an integer >= 0"),
            ("lgcp_samples", 0, "lgcp_config", "n_samples must be an integer >= 1"),
            ("lgcp_thinning", "2", "lgcp_config", "thinning must be an integer >= 1"),
            ("lvm_sweeps", "x", "efficiency_config", "sweeps must be an integer >= 1"),
            ("lvm_burn_in", 2.5, "efficiency_config", "burn_in must be an integer"),
            ("lvm_burn_in", 2000, "efficiency_config", "burn_in must be below sweeps"),
            ("fraction", "x", "eval_config", "fraction must be a number in (0, 1)"),
            ("fraction", 1.0, "eval_config", "fraction must be a number in (0, 1)"),
            ("lgcp_burn_in", True, "lgcp_config", "burn_in must be an integer >= 0"),
            ("restarts", True, "nmf_config", "restarts must be an integer >= 1"),
            ("nmf_iters", False, "nmf_config", "max_iters must be an integer >= 0"),
            ("lvm_burn_in", False, "efficiency_config", "burn_in must be an integer"),
            ("lvm_sweeps", True, "efficiency_config", "sweeps must be an integer"),
            ("seed", True, "lgcp_config", "seed must be an integer"),
            ("seed", -1, "lgcp_config", "seed must be an integer >= 0"),
            ("variance", "x", "lgcp_config", "variance must be a number > 0"),
            ("variance", float("nan"), "lgcp_config", "variance must be a number > 0"),
            ("length_scale", True, "lgcp_config", "length_scale must be a number > 0"),
            ("width", "wide", "grid", "width must be a number > 0"),
            ("tile_x", True, "grid", "tile_size must be a number > 0"),
            ("nmf_tol", float("inf"), "nmf_config", "tol must be a number >= 0"),
            ("n_players", 2.5, "synth_config", "n_players must be an integer >= 1"),
            ("k_star", True, "synth_config", "k_star must be an integer >= 1"),
            ("budget_max", 50, "synth_config", "budget_range must be an integer"),
            ("alpha", "x", "synth_config", "alpha must be a number > 0"),
            ("sigma_star", float("nan"), "synth_config", "sigma_star must be a number"),
        ],
    )
    def test_component_views_reject_bad_values_by_name(self, key, value, view, message):
        """A wrong type (a bool included) or an out-of-range value in a
        component config is a ValueError naming the field, which the runner
        maps to its stage; a bad shared seed fails the config itself."""
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(PipelineConfig(**{key: value}), view)()

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("pipeline", "shots", "2", "shots must be a string, got 2"),
            ("synth", "out", "5", "out must be a string, got 5"),
            ("pipeline", "out", "[]", "out must be a string, got []"),
            ("pipeline", "k_list", "[4, 4]", "no repeats, got [4, 4]"),
        ],
    )
    def test_path_and_k_list_values_exit_one_naming_the_key(
        self, tmp_path, capsys, command, key, value, message
    ):
        """A file path that is not a string, and a K list that repeats a
        rank, fail the config with one error line, before any stage runs."""
        config_path = _write_config(str(tmp_path), **{key: value})
        assert main([command, "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "artifacts").exists()

    def test_default_views_equal_component_defaults(self):
        """Each component config owns its defaults, so the views of a
        default PipelineConfig equal the components' own defaults."""
        config = PipelineConfig()
        assert config.grid() == CourtGrid()
        assert config.lgcp_config() == LgcpConfig()
        assert config.nmf_config() == NmfConfig()
        assert config.efficiency_config() == EfficiencyConfig()
        assert config.eval_config() == EvalConfig()
        assert config.synth_config() == SynthConfig()

    def test_component_views_carry_shared_seed(self):
        """Every component config inherits the global seed."""
        config = PipelineConfig(seed=17)
        assert config.lgcp_config().seed == 17
        assert config.nmf_config().seed == 17
        assert config.efficiency_config().seed == 17
        assert config.synth_config().seed == 17


needs_openblas_control = pytest.mark.skipif(
    not openblas_thread_controls(),
    reason="no loaded OpenBLAS exports a thread-count control",
)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS set to two threads (as far as it allows),
    with the original counts restored after the test."""
    controls = openblas_thread_controls()
    original = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, original):
        set_(count)


class TestBlasThreadHold:
    @needs_openblas_control
    def test_one_thread_inside_previous_count_after(self, two_blas_threads):
        """The hold reads one thread in its body and restores the count."""
        before = [get() for get, _ in two_blas_threads]
        with one_blas_thread():
            inside = [get() for get, _ in two_blas_threads]
        after = [get() for get, _ in two_blas_threads]
        assert inside == [1] * len(two_blas_threads)
        assert after == before

    @needs_openblas_control
    @pytest.mark.parametrize("fails", [False, True])
    def test_main_runs_subcommand_single_threaded(
        self, two_blas_threads, monkeypatch, fails
    ):
        """In-process callers of main get their thread count back, also
        when the subcommand fails."""
        seen = []

        def fake_synth(args):
            seen.extend(get() for get, _ in two_blas_threads)
            if fails:
                raise ValueError("synthetic failure")
            return 0

        monkeypatch.setattr(cli, "cmd_synth", fake_synth)
        before = [get() for get, _ in two_blas_threads]
        assert main(["synth"]) == (1 if fails else 0)
        assert seen == [1] * len(two_blas_threads)
        assert [get() for get, _ in two_blas_threads] == before

    def test_missing_control_warns_once_and_runs(self, monkeypatch, capsys):
        """Without a thread control the body still runs, after one
        warning line on stderr."""
        monkeypatch.setattr(cli, "openblas_thread_controls", lambda: [])
        ran = []
        with one_blas_thread():
            ran.append(True)
        err = capsys.readouterr().err
        assert ran == [True]
        assert err.count("\n") == 1
        assert "BLAS thread count" in err


class TestSynthCommand:
    def test_same_seed_same_bytes(self, tmp_path):
        """Two synth runs with one seed write identical files."""
        config_path = _write_config(str(tmp_path))
        assert _synth(config_path, tmp_path / "one") == 0
        assert _synth(config_path, tmp_path / "two") == 0
        for name in ("shots.csv", "truth_B.csv", "truth_W.csv", "truth_beta.csv"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs"

    def test_seed_flag_beats_config(self, tmp_path):
        """--seed changes the dataset relative to the config seed."""
        config_path = _write_config(str(tmp_path))
        assert _synth(config_path, tmp_path / "base") == 0
        assert _synth(config_path, tmp_path / "reseeded", ("--seed", "4")) == 0
        a = (tmp_path / "base" / "shots.csv").read_bytes()
        b = (tmp_path / "reseeded" / "shots.csv").read_bytes()
        assert a != b

    def test_default_synth_then_pipeline_in_an_empty_directory(
        self, tmp_path, monkeypatch
    ):
        """Without --out, synth writes the config's shot CSV and the truth
        beside it, so synth then pipeline run on the default config and on
        one that names another shot file."""
        chains = (
            "lgcp_burn_in = 3\nlgcp_samples = 3\nlgcp_thinning = 1\n"
            "restarts = 1\nnmf_iters = 10\nlvm_sweeps = 10\nlvm_burn_in = 2\n"
        )
        for name, shots in (("default", None), ("named", "data/myshots.csv")):
            config_path = tmp_path / f"{name}.txt"
            config_path.write_text(chains + (f"shots = {shots}\n" if shots else ""))
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            assert main(["synth", "--config", str(config_path)]) == 0
            shots_path = work / (shots or "shots.csv")
            assert shots_path.exists()
            assert (shots_path.parent / "truth_B.csv").exists()
            assert main(["pipeline", "--config", str(config_path)]) == 0
            assert (work / "artifacts" / "eval_report.csv").exists()

    def test_missing_out_dir_created(self, tmp_path):
        """Nested output directories are created on demand."""
        config_path = _write_config(str(tmp_path))
        nested = tmp_path / "deep" / "ly" / "nested"
        assert _synth(config_path, nested) == 0
        assert (nested / "shots.csv").exists()

    def test_invalid_k_star_fails_with_message(self, tmp_path, capsys):
        """An impossible planted K exits nonzero and explains itself."""
        config_path = _write_config(str(tmp_path), k_star=9)
        rc = _synth(config_path, tmp_path / "bad")
        assert rc != 0
        assert "k_star" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_players", "2.5", "n_players must be an integer >= 1"),
            ("k_star", "true", "k_star must be an integer >= 1"),
            ("sigma_star", "NaN", "sigma_star must be a number >= 0"),
        ],
    )
    def test_bad_value_exits_one_naming_the_field(
        self, tmp_path, capsys, key, value, message
    ):
        """A synth value of the wrong type, a bool or NaN included, exits 1
        with one error line naming the field."""
        config_path = _write_config(str(tmp_path), **{key: value})
        assert _synth(config_path, tmp_path / "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestStageCommands:
    def test_ingest_builds_count_matrix(self, workspace, tmp_path):
        """Ingest splits the shots and writes the pipeline's count matrices."""
        rc = main(
            ["ingest", "--config", workspace["config"], "--out", str(tmp_path)]
        )
        assert rc == 0
        cm = read_count_csv(tmp_path / "counts_train.csv")
        assert len(cm.players) == 6
        assert cm.counts.sum() > 0
        assert read_count_csv(tmp_path / "counts_test.csv").players == cm.players
        assert not (tmp_path / "counts.csv").exists()

    def test_manifest_leaves_out_the_output_directory(self, workspace, tmp_path):
        """The manifest records the run's config without ``out``: --out
        picks a directory the config's ``out`` does not name."""
        argv = ["ingest", "--config", workspace["config"], "--out", str(tmp_path)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "pipeline_manifest.txt").read_text())
        assert "out" not in manifest and manifest["seed"] == 3

    def test_efficiency_fit_makes_one_surface_call(
        self, workspace, finished, tmp_path, monkeypatch
    ):
        """One efficiency fit builds every row of efficiency_surfaces.csv,
        the global surface and each player's, with one kernel call."""
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        (out / "efficiency_surfaces.csv").unlink()
        kernel, calls = backend.mixture_probability_surface, []

        def spy(weights, bases, logits):
            calls.append(weights.shape)
            return kernel(weights, bases, logits)

        monkeypatch.setattr(backend, "mixture_probability_surface", spy)
        argv = ["fit-efficiency", "--config", workspace["config"], "--out", str(out)]
        assert main(argv) == 0
        assert calls == [(1 + 6, 2)]
        name = "efficiency_surfaces.csv"
        assert (out / name).read_bytes() == (finished / name).read_bytes()

    def test_fit_lgcp_factorize_efficiency_render(self, workspace, tmp_path, capsys):
        """The standalone stage commands chain through shared artifacts."""
        out = str(tmp_path)
        config = workspace["config"]
        assert main(["ingest", "--config", config, "--out", out]) == 0
        assert main(["fit-lgcp", "--config", config, "--out", out]) == 0
        players, surfaces, grid = read_labeled_csv(tmp_path / "surfaces.csv")
        assert len(players) == 6
        np.testing.assert_allclose(
            surfaces.sum(axis=1) * grid.tile_area, np.ones(6), rtol=1e-9
        )
        capsys.readouterr()
        assert main(["factorize", "--config", config, "--out", out]) == 0
        assert capsys.readouterr().out.count("up to date, skipping") == 2
        names, weights, _ = read_labeled_csv(tmp_path / "factors_kl_k2_W.csv")
        _, bases, _ = read_labeled_csv(tmp_path / "factors_kl_k2_B.csv")
        assert names == players and weights.shape[1] == bases.shape[0] == 2
        shots_path = str(workspace["root"] / "data" / "shots.csv")
        assert (
            main(
                [
                    "fit-efficiency",
                    "--config",
                    config,
                    "--out",
                    out,
                    "--shots",
                    shots_path,
                ]
            )
            == 0
        )
        assert (tmp_path / "efficiency_beta.csv").exists()
        assert (tmp_path / "efficiency_surfaces.csv").exists()
        img_dir = tmp_path / "img"
        assert (
            main(
                [
                    "render",
                    "--config",
                    config,
                    "--surfaces",
                    str(tmp_path / "surfaces.csv"),
                    "--out",
                    str(img_dir),
                ]
            )
            == 0
        )
        assert sorted(p.name for p in img_dir.iterdir()) == sorted(
            f"{p}.pgm" for p in players
        )

    def test_render_of_ids_with_one_file_name_exits_1(self, tmp_path, capsys):
        """render names both ids and writes nothing when two ids would share
        an image file."""
        grid = PipelineConfig().grid()
        surfaces = tmp_path / "surfaces.csv"
        rows = np.ones((2, grid.n_tiles))
        write_labeled_csv(surfaces, ["a/b", "a_b"], rows, grid)
        argv = ["render", "--surfaces", str(surfaces), "--out", str(tmp_path / "img")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "rendered" not in out and "'a/b' and 'a_b'" in err
        assert not (tmp_path / "img").exists()

    def test_render_names_images_in_ascii_under_an_ascii_locale(self, tmp_path):
        """A non-ASCII id renders under LC_ALL=C: each character but ASCII
        letters, digits, "-" and "_" becomes "_" in the file name."""
        grid = PipelineConfig().grid()
        surfaces = tmp_path / "surfaces.csv"
        write_labeled_csv(surfaces, ["Jokić"], np.ones((1, grid.n_tiles)), grid)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUTF8": "0"}
        env.update(LC_ALL="C", LANG="C")
        argv = ["render", "--surfaces", str(surfaces), "--out", str(tmp_path / "img")]
        result = subprocess.run(
            [sys.executable, "-m", "shotfactor", *argv], env=env, capture_output=True
        )
        assert result.returncode == 0, result.stderr
        assert os.listdir(tmp_path / "img") == ["Joki_.pgm"]

    def test_every_stage_command_takes_the_override_flags(
        self, workspace, finished, tmp_path, capsys
    ):
        """Each stage command takes --shots, --k, --loss and --restarts:
        fit-lgcp reads --shots over a config naming no file, and
        fit-efficiency --k 1 fits on factors_kl_k1_* over the config's 2."""
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        config_path = _write_config(str(tmp_path), shots=str(tmp_path / "none.csv"))
        shots = str(workspace["root"] / "data" / "shots.csv")
        argv = ["--config", config_path, "--out", str(out), "--shots", shots]
        assert main(["fit-lgcp", *argv]) == 0
        capsys.readouterr()
        assert main(["fit-efficiency", *argv, "--k", "1"]) == 0
        assert "[factorize] done (no record)" in capsys.readouterr().out
        _, bases, _ = read_labeled_csv(out / "factors_kl_k1_B.csv")
        assert bases.shape[0] == 1

    def test_evaluate_matches_pipeline_report(
        self, workspace, finished, tmp_path, capsys
    ):
        """Evaluate runs the pipeline's evaluate stage after the stages it
        reads from: the same report bytes, and no efficiency artifact."""
        argv = ["--config", workspace["config"], "--out", str(tmp_path)]
        assert main(["evaluate", *argv]) == 0
        for name in ("eval_report.csv", "eval_per_player.csv", "eval_report.txt"):
            assert (tmp_path / name).read_bytes() == (finished / name).read_bytes()
        assert "basis recovery" in (tmp_path / "eval_report.txt").read_text()
        assert not list(tmp_path.glob("efficiency*"))
        capsys.readouterr()
        assert main(["pipeline", *argv]) == 0
        out = capsys.readouterr().out
        for stage in ("ingest", "lgcp", "evaluate"):
            assert f"[{stage}] up to date, skipping" in out
        for stage in ("factorize", "efficiency"):
            assert f"[{stage}] done (no record)" in out

    def test_failing_stage_command_exits_with_stage_code(
        self, workspace, tmp_path, capsys
    ):
        """A stage subcommand that fails exits with its stage's code."""
        argv = ["--config", workspace["config"], "--out", str(tmp_path)]
        assert main(["factorize", *argv, "--k", "40"]) == STAGE_CODES["factorize"]
        assert "factorize" in capsys.readouterr().err

    def test_zero_restarts_fail_factorize_naming_the_flag(
        self, workspace, finished, tmp_path, capsys
    ):
        """--restarts 0 fails the factorize stage with a message naming
        restarts."""
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        argv = ["factorize", "--config", workspace["config"], "--out", str(out)]
        assert main([*argv, "--restarts", "0"]) == STAGE_CODES["factorize"]
        assert "restarts must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value, stage, message",
        [
            ("fit-efficiency", "lvm_sweeps", '"x"', "efficiency", "sweeps must be"),
            ("pipeline", "lgcp_burn_in", '"x"', "lgcp", "burn_in must be"),
            ("pipeline", "lgcp_burn_in", "1.5", "lgcp", "burn_in must be"),
            ("pipeline", "fraction", '"x"', "ingest", "fraction must be"),
            ("factorize", "k", "true", "factorize", "k must be an integer"),
            ("pipeline", "variance", '"x"', "lgcp", "variance must be"),
            ("pipeline", "width", '"wide"', "ingest", "width must be"),
            ("pipeline", "variance", "NaN", "lgcp", "variance must be"),
            ("pipeline", "length_scale", "true", "lgcp", "length_scale must be"),
            ("pipeline", "nmf_tol", "Infinity", "factorize", "tol must be"),
            ("pipeline", "min_attempts", "true", "ingest", "min_attempts must be"),
            ("ingest", "nmf_tol", "Infinity", None, "nmf_tol must be a finite"),
            ("ingest", "alpha", "Infinity", None, "alpha must be a finite"),
        ],
    )
    def test_wrong_type_config_fails_its_stage_in_one_line(
        self, workspace, finished, tmp_path, capsys, command, key, value, stage, message
    ):
        """A config value of the wrong type fails the stage that reads it
        with that stage's exit code and one error line, not a traceback,
        and leaves the finished run's manifest as it was.  A non-finite
        value that no planned stage reads (stage None) fails the same way
        with exit code 1 before the manifest is written."""
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        manifest = (out / "pipeline_manifest.txt").read_bytes()
        shots = str(workspace["root"] / "data" / "shots.csv")
        config_path = _write_config(str(tmp_path), shots=shots, **{key: value})
        capsys.readouterr()
        rc = main([command, "--config", config_path, "--out", str(out)])
        assert rc == (STAGE_CODES[stage] if stage else 1)
        err = capsys.readouterr().err
        start = f"error: stage '{stage}' failed" if stage else "error: "
        assert err.startswith(start) and err.count("\n") == 1
        assert f"{message} " in err
        assert (out / "pipeline_manifest.txt").read_bytes() == manifest

    def test_off_court_shot_fails_ingest_with_location(self, tmp_path, capsys):
        """A shot off the court fails ingest, naming the file and line."""
        shots = tmp_path / "shots.csv"
        shots.write_text("player,x,y,made\np1,1.0,2.0,1\np1,40.0,2.0,0\n")
        config_path = _write_config(str(tmp_path), shots=str(shots))
        argv = ["ingest", "--config", config_path, "--out", str(tmp_path / "out")]
        assert main(argv) == STAGE_CODES["ingest"]
        assert "shots.csv:3:" in capsys.readouterr().err

    def test_ingest_reads_utf8_under_an_ascii_locale(self, tmp_path):
        """Shot files are UTF-8 whatever the locale: a file with a
        byte-order mark and a non-ASCII id ingests under LC_ALL=C, and the
        id is written back as UTF-8."""
        rows = "".join(f"Jokić,{1 + i % 30},{2 + i % 40},{i % 2}\n" for i in range(40))
        shots = tmp_path / "shots.csv"
        shots.write_bytes(("\ufeffplayer,x,y,made\n" + rows).encode("utf-8"))
        config_path = _write_config(str(tmp_path), shots=str(shots))
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUTF8": "0"}
        env.update(LC_ALL="C", LANG="C")
        argv = ["ingest", "--config", config_path, "--out", str(tmp_path / "out")]
        result = subprocess.run(
            [sys.executable, "-m", "shotfactor", *argv], env=env, capture_output=True
        )
        assert result.returncode == 0, result.stderr
        train = (tmp_path / "out" / "shots_train.csv").read_bytes()
        assert train.count("Jokić,".encode("utf-8")) == 36

    def test_latin1_shots_fail_ingest_naming_the_file(self, tmp_path, capsys):
        shots = tmp_path / "latin1_shots.csv"
        shots.write_bytes("player,x,y,made\nMüller,1.0,2.0,1\n".encode("latin-1"))
        config_path = _write_config(str(tmp_path), shots=str(shots))
        argv = ["ingest", "--config", config_path, "--out", str(tmp_path / "out")]
        assert main(argv) == STAGE_CODES["ingest"]
        assert "latin1_shots.csv: not UTF-8 text" in capsys.readouterr().err

    def test_one_player_cohort_fails_evaluate_with_reason(self, tmp_path, capsys):
        """A cohort that keeps one player runs every stage up to evaluate,
        whose PCA baseline needs two."""
        rows = "".join(f"p{i % 16 // 15},{i % 30},{i % 40},{i % 2}\n" for i in range(240))
        shots = tmp_path / "shots.csv"
        shots.write_text("player,x,y,made\n" + rows)
        config_path = _write_config(str(tmp_path), shots=str(shots), k_list=[1])
        argv = ["pipeline", "--config", config_path, "--out", str(tmp_path / "out")]
        assert main([*argv, "--k", "1"]) == STAGE_CODES["evaluate"]
        err = capsys.readouterr().err
        assert "the pca baseline needs at least 2 players, got 1" in err


class TestProcessFanOut:
    """The lgcp and evaluate stages run on every usable CPU (see
    ``pipeline.fan_out``); the usable-CPU count is patched here."""

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    def test_cold_runs_write_the_same_bytes_on_one_and_three_cpus(
        self, workspace, tmp_path, monkeypatch
    ):
        outs = []
        for count in (1, 3):
            self._cpus(monkeypatch, count)
            outs.append(tmp_path / f"cpus{count}")
            argv = ["pipeline", "--config", workspace["config"], "--out", str(outs[-1])]
            assert main(argv) == 0
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_error_in_a_worker_fails_lgcp_in_one_line(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        parent, fit_lgcp = os.getpid(), lgcp.fit_lgcp

        def fit_in_parent_only(*args):
            if os.getpid() != parent:
                raise ValueError("chain broke in a worker")
            return fit_lgcp(*args)

        monkeypatch.setattr(lgcp, "fit_lgcp", fit_in_parent_only)
        self._cpus(monkeypatch, 3)
        capsys.readouterr()
        argv = ["pipeline", "--config", workspace["config"], "--out", str(tmp_path)]
        assert main(argv) == STAGE_CODES["lgcp"]
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'lgcp' failed") and err.count("\n") == 1
        assert "chain broke in a worker" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPipelineCommand:
    def _run(self, workspace, out_dir):
        return main(
            [
                "pipeline",
                "--config",
                workspace["config"],
                "--out",
                str(out_dir),
            ]
        )

    def test_end_to_end_emits_all_artifacts(self, workspace, tmp_path):
        """A fresh pipeline run writes every stage's outputs."""
        assert self._run(workspace, tmp_path) == 0
        expected = [
            "pipeline_manifest.txt",
            "shots_train.csv",
            "shots_test.csv",
            "counts_train.csv",
            "counts_test.csv",
            "surfaces.csv",
            "surfaces_meta.txt",
            "factors_kl_k2_W.csv",
            "factors_kl_k2_B.csv",
            "factors_kl_k2_manifest.txt",
            "efficiency_beta.csv",
            "efficiency_global.csv",
            "efficiency_surfaces.csv",
            "eval_report.csv",
            "eval_per_player.csv",
            "eval_report.txt",
            "pipeline_state.txt",
        ]
        for name in expected:
            assert (tmp_path / name).exists(), f"missing {name}"

    def test_stage_table_names_every_file_written(self, workspace, tmp_path, capsys):
        """The artifact directory holds exactly the outputs named in STAGES
        plus the run's manifest and state: no writer names a file itself."""
        config = load_config(workspace["config"])
        run_pipeline(config, out_dir=tmp_path)
        assert capsys.readouterr().out.count("] done (no record)") == len(STAGES)
        named = {
            name.format(**vars(config)) for stage in STAGES for name in stage.outputs
        }
        named |= {"pipeline_manifest.txt", "pipeline_state.txt"}
        assert sorted(os.listdir(tmp_path)) == sorted(named)

    def test_only_ingest_takes_the_court_from_the_config(self):
        """After ingest every stage reads the court from its input files'
        grid headers, so no other stage's views hold a CourtGrid."""
        config = PipelineConfig()
        for stage in STAGES:
            grids = [v for v in stage.views(config) if isinstance(v, CourtGrid)]
            assert bool(grids) == (stage.name == "ingest"), stage.name

    def test_every_tile_wide_artifact_starts_with_the_grid(self, finished):
        """Each artifact CSV with one value per tile, the bases included,
        starts with the four-number grid header; the others have none."""
        grid = CourtGrid(tile_size=(2.5, 2.0))
        tile_wide, other = set(), set()
        for path in finished.glob("*.csv"):
            first, *_, last = path.read_text().splitlines()
            if last.count(",") == grid.n_tiles:
                assert first == "# grid 35.0 50.0 2.5 2.0", path.name
                tile_wide.add(path.name)
            else:
                assert not first.startswith("#"), path.name
                other.add(path.name)
        assert tile_wide == {
            "counts_train.csv",
            "counts_test.csv",
            "surfaces.csv",
            "factors_kl_k2_B.csv",
            "efficiency_surfaces.csv",
        }
        assert {
            "factors_kl_k2_W.csv",
            "efficiency_beta.csv",
            "efficiency_global.csv",
        } <= other

    def test_render_of_the_bases_writes_one_image_per_basis(
        self, finished, tmp_path, capsys
    ):
        """The bases file carries its court, so render draws each basis as
        an nx x ny image."""
        bases = finished / "factors_kl_k2_B.csv"
        argv = ["render", "--surfaces", str(bases), "--out", str(tmp_path)]
        assert main(argv) == 0
        assert "rendered 2 surfaces" in capsys.readouterr().out
        grid = CourtGrid(tile_size=(2.5, 2.0))
        header = f"P5\n{grid.nx} {grid.ny}\n255\n".encode()
        assert sorted(os.listdir(tmp_path)) == ["basis0.pgm", "basis1.pgm"]
        for name in ("basis0.pgm", "basis1.pgm"):
            image = (tmp_path / name).read_bytes()
            assert image.startswith(header)
            assert len(image) == len(header) + grid.n_tiles

    def test_stage_exit_codes_are_fixed(self):
        """Scripted callers tell a failed stage by its exit code."""
        assert STAGE_CODES == {
            "ingest": 10,
            "lgcp": 11,
            "factorize": 12,
            "efficiency": 13,
            "evaluate": 14,
        }

    def test_rerun_skips_completed_stages(self, workspace, tmp_path, capsys):
        """Intact artifacts short-circuit their stages on rerun."""
        assert self._run(workspace, tmp_path) == 0
        before = (tmp_path / "eval_report.csv").read_bytes()
        capsys.readouterr()
        assert self._run(workspace, tmp_path) == 0
        out = capsys.readouterr().out
        assert out.count("up to date, skipping") == 5
        assert (tmp_path / "eval_report.csv").read_bytes() == before

    def test_edited_shots_rerun_ingest(self, workspace, tmp_path, capsys):
        """A resumed run whose shots file changed does not serve the old
        artifacts: ingest reruns."""
        data = tmp_path / "data"
        shutil.copytree(workspace["root"] / "data", data)
        config_path = _write_config(str(tmp_path), shots=str(data / "shots.csv"))
        assert main(["pipeline", "--config", config_path]) == 0
        before = (tmp_path / "artifacts" / "counts_train.csv").read_bytes()
        lines = (data / "shots.csv").read_text().splitlines(keepends=True)
        (data / "shots.csv").write_text("".join(lines[: len(lines) * 2 // 3]))
        capsys.readouterr()
        assert main(["pipeline", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert "[ingest] done" in out
        assert "up to date" not in out
        assert (tmp_path / "artifacts" / "counts_train.csv").read_bytes() != before

    def test_edited_truth_fails_evaluate_with_location(
        self, workspace, tmp_path, capsys
    ):
        """A line appended to truth_B.csv fails the evaluate stage with a
        message naming the file and the added line."""
        data = tmp_path / "data"
        shutil.copytree(workspace["root"] / "data", data)
        truth = data / "truth_B.csv"
        added = len(truth.read_bytes().splitlines()) + 1
        with open(truth, "a") as f:
            f.write("# edited\n")
        config_path = _write_config(str(tmp_path), shots=str(data / "shots.csv"))
        assert main(["pipeline", "--config", config_path]) == STAGE_CODES["evaluate"]
        assert f"truth_B.csv:{added}:" in capsys.readouterr().err

    def test_non_finite_truth_fails_evaluate_with_location(
        self, finished, tmp_path, capsys
    ):
        """A NaN in truth_B.csv fails the evaluate stage with a message
        naming the file and the line, not a report of nan recoveries."""
        data = tmp_path / "data"
        shutil.copytree(finished.parent / "data", data)
        truth = data / "truth_B.csv"
        header, first, *rest = truth.read_text().splitlines(keepends=True)
        name, _, values = first.partition(",")
        first = f"{name},nan,{values.partition(',')[2]}"
        truth.write_text("".join([header, first, *rest]))
        shutil.copytree(finished, tmp_path / "artifacts")
        config_path = _write_config(str(tmp_path), shots=str(data / "shots.csv"))
        assert main(["evaluate", "--config", config_path]) == STAGE_CODES["evaluate"]
        assert "truth_B.csv:2: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid",
        [CourtGrid(50.0, 35.0, (2.0, 2.5)), CourtGrid(tile_size=(5.0, 5.0)), None],
    )
    def test_truth_off_the_cohort_grid_fails_evaluate_at_its_header(
        self, finished, tmp_path, capsys, grid
    ):
        """Planted bases on another court with the same tile count, on
        another tile count, or without a grid header fail the evaluate stage
        at truth_B.csv:1, not with cosines taken over the wrong tiles."""
        data = tmp_path / "data"
        shutil.copytree(finished.parent / "data", data)
        ids, bases, _ = read_labeled_csv(data / "truth_B.csv")
        n_tiles = bases.shape[1] if grid is None else grid.n_tiles
        write_labeled_csv(data / "truth_B.csv", ids, bases[:, :n_tiles], grid)
        shutil.copytree(finished, tmp_path / "artifacts")
        config_path = _write_config(str(tmp_path), shots=str(data / "shots.csv"))
        assert main(["evaluate", "--config", config_path]) == STAGE_CODES["evaluate"]
        found = "missing grid header" if grid is None else f"grid {grid!r}"
        expected = f"expected {CourtGrid(tile_size=(2.5, 2.0))!r}\n"
        assert f"truth_B.csv:1: {found}, {expected}" in capsys.readouterr().err

    def _rerun(self, finished, tmp_path, capsys, **overrides):
        """Rerun a copy of a finished directory under an edited config;
        returns the log and the outputs before and after."""
        out = tmp_path / "artifacts"
        shutil.copytree(finished, out)
        before = _stage_outputs(out)
        shots = overrides.pop("shots", str(finished.parent / "data" / "shots.csv"))
        config_path = _write_config(str(tmp_path), shots=shots, **overrides)
        capsys.readouterr()
        assert main(["pipeline", "--config", config_path]) == 0
        return capsys.readouterr().out, before, _stage_outputs(out)

    def test_lvm_sweeps_change_reruns_only_efficiency(
        self, finished, tmp_path, capsys
    ):
        """The Gibbs chain length is read by the efficiency stage alone."""
        out, before, after = self._rerun(finished, tmp_path, capsys, lvm_sweeps=150)
        assert out.count("up to date, skipping") == 4
        assert "[efficiency] done (key changed)" in out
        changed = {name for name in before if before[name] != after[name]}
        assert changed <= {
            "efficiency_beta.csv",
            "efficiency_global.csv",
            "efficiency_surfaces.csv",
        }

    def test_k_list_change_reruns_only_evaluate(self, finished, tmp_path, capsys):
        """The K list is read by the evaluate stage alone."""
        out, _, after = self._rerun(finished, tmp_path, capsys, k_list="[1]")
        assert out.count("up to date, skipping") == 4
        assert "[evaluate] done (key changed)" in out
        assert b"nmf_kl" in after["eval_report.csv"]
        assert b"nmf_kl,2," not in after["eval_report.csv"]

    def test_swapped_truth_rows_rerun_only_evaluate(
        self, finished, tmp_path, capsys
    ):
        """A content change to truth_B.csv that keeps its size and row count
        reruns evaluate alone.  Basis recovery does not depend on the order
        of the true bases, so every output keeps its bytes."""
        data = tmp_path / "data"
        shutil.copytree(finished.parent / "data", data)
        lines = (data / "truth_B.csv").read_bytes().splitlines(keepends=True)
        header, first, second, *rest = lines
        (data / "truth_B.csv").write_bytes(b"".join([header, second, first, *rest]))
        shots = str(data / "shots.csv")
        out, before, after = self._rerun(finished, tmp_path, capsys, shots=shots)
        assert out.count("up to date, skipping") == 4
        assert "[evaluate] done (key changed)" in out
        assert after == before and len(after) == 15

    def test_state_without_stage_keys_reruns_every_stage(
        self, finished, tmp_path, capsys
    ):
        """A state file from before per-stage keys reruns each stage once,
        to the same bytes."""
        state_path = finished / "pipeline_state.txt"
        state = json.loads(state_path.read_text())
        out_dir = tmp_path / "artifacts"
        shutil.copytree(finished, out_dir)
        old_state = {"artifacts": state["artifacts"], "key": "0" * 64}
        (out_dir / "pipeline_state.txt").write_text(json.dumps(old_state))
        before = _stage_outputs(out_dir)
        config_path = _write_config(
            str(tmp_path), shots=str(finished.parent / "data" / "shots.csv")
        )
        capsys.readouterr()
        assert main(["pipeline", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert out.count("done (no record)") == 5
        assert _stage_outputs(out_dir) == before
        assert (out_dir / "pipeline_state.txt").read_text() == state_path.read_text()

    def test_source_edit_reruns_every_stage(self, finished, tmp_path):
        """Each stage key holds a digest of the package source: a copy of the
        package keys a finished directory as the original does, a comment
        appended to one module reruns all five stages to the same bytes,
        and the next run skips them again."""
        package = tmp_path / "lib" / "shotfactor"
        shutil.copytree(
            SRC / "shotfactor", package, ignore=shutil.ignore_patterns("__pycache__")
        )
        out = tmp_path / "artifacts"
        shutil.copytree(finished, out)
        before = _stage_outputs(out)
        config_path = _write_config(
            str(tmp_path), shots=str(finished.parent / "data" / "shots.csv")
        )
        argv = [sys.executable, "-m", "shotfactor", "pipeline", "--config", config_path]

        def run():
            result = subprocess.run(
                argv,
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(tmp_path / "lib")},
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        assert run().count("up to date, skipping") == 5
        with open(package / "nmf.py", "a") as f:
            f.write("# edited\n")
        assert run().count("done (key changed)") == 5
        assert _stage_outputs(out) == before
        assert run().count("up to date, skipping") == 5

    def test_hash_player_id_runs_every_stage(self, finished, tmp_path):
        """A player id starting with "#" that sorts first is a data row of
        the header-less factor files, not a grid header."""
        data = tmp_path / "data"
        shutil.copytree(finished.parent / "data", data)
        shots = data / "shots.csv"
        shots.write_text(re.sub(r"(?m)^p00,", "#00,", shots.read_text()))
        config_path = _write_config(str(tmp_path), shots=str(shots))
        assert main(["pipeline", "--config", config_path]) == 0
        weights = tmp_path / "artifacts" / "factors_kl_k2_W.csv"
        assert read_labeled_csv(weights)[0][0] == "#00"

    @pytest.mark.parametrize(
        "bad_state",
        [{"artifacts": [], "stages": {}}, {"artifacts": {}, "stages": []}],
        ids=["artifacts_list", "stages_list"],
    )
    def test_malformed_state_reruns_stage(self, finished, tmp_path, capsys, bad_state):
        """A state whose fields are not string-to-string objects counts as
        none: the stage reruns to the same bytes and a valid state is saved."""
        out_dir = tmp_path / "artifacts"
        shutil.copytree(finished, out_dir)
        (out_dir / "pipeline_state.txt").write_text(json.dumps(bad_state))
        before = _stage_outputs(out_dir)
        config_path = _write_config(
            str(tmp_path), shots=str(finished.parent / "data" / "shots.csv")
        )
        capsys.readouterr()
        assert main(["ingest", "--config", config_path]) == 0
        assert "[ingest] done (no record)" in capsys.readouterr().out
        assert _stage_outputs(out_dir) == before
        state = json.loads((out_dir / "pipeline_state.txt").read_text())
        assert sorted(state["artifacts"]) == [
            "counts_test.csv",
            "counts_train.csv",
            "shots_test.csv",
            "shots_train.csv",
        ]
        assert list(state["stages"]) == ["ingest"]

    def test_corrupted_intermediate_reruns_stage(self, workspace, tmp_path, capsys):
        """A checksum mismatch triggers regeneration of that stage."""
        assert self._run(workspace, tmp_path) == 0
        good = (tmp_path / "surfaces.csv").read_bytes()
        (tmp_path / "surfaces.csv").write_bytes(good[: len(good) // 2])
        capsys.readouterr()
        assert self._run(workspace, tmp_path) == 0
        out = capsys.readouterr().out
        assert "checksum mismatch" in out
        assert (tmp_path / "surfaces.csv").read_bytes() == good

    def test_stage_failure_maps_to_stage_exit_code(self, workspace, tmp_path, capsys):
        """A factorization that cannot run exits with its stage code."""
        os.makedirs(workspace["root"] / "badk", exist_ok=True)
        config_path = _write_config(
            str(workspace["root"] / "badk"),
            shots=str(workspace["root"] / "data" / "shots.csv"),
            k=40,
        )
        rc = main(["pipeline", "--config", config_path, "--out", str(tmp_path)])
        assert rc == STAGE_CODES["factorize"]
        assert "factorize" in capsys.readouterr().err

    def test_missing_shots_fails_cleanly(self, tmp_path, capsys):
        """A nonexistent input path exits 1 with the path in the message."""
        config_path = _write_config(
            str(tmp_path), shots=str(tmp_path / "nope.csv")
        )
        rc = main(["pipeline", "--config", config_path, "--out", str(tmp_path)])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err
