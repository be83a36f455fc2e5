import json
from pathlib import Path

import pytest

from rebq import tensor as T
from rebq.bench import load_corpus
from rebq.cli import _load_config, build_parser, main
from rebq.runner import RunConfig

from conftest import TINY, TINY_SYNTH

import dataclasses


def without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def with_entry(doc: dict, i: int, j: int, value) -> dict:
    """doc with its report matrix entry [i][j] set to value."""
    matrix = [list(row) for row in doc["matrix"]]
    matrix[i][j] = value
    return {**doc, "matrix": matrix}


def write_config(tmp_path, **overrides) -> Path:
    cfg = RunConfig(
        backbone=TINY,
        backbone_checkpoint=str(tmp_path / "backbone.rbqt"),
        synth=TINY_SYNTH,
        num_classes=4,
        samples_per_class=10,
        num_sessions=2,
        eta=50.0,
        pool_size=4,
        memory_pool_size=4,
        prompt_len=2,
        prompted_layers=2,
        epochs=1,
        batch_size=4,
        lr=3e-3,
        eval_batch_size=16,
        output_dir=str(tmp_path / "out"),
    )
    cfg = dataclasses.replace(cfg, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Config plus a pretrained checkpoint shared by the CLI tests."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(tmp)
    rc = main(["pretrain", "--config", str(cfg_path), "--steps", "400",
               "--eval-every", "50", "--samples-per-class", "40"])
    assert rc == 0
    return tmp, cfg_path


@pytest.fixture(scope="module")
def report_doc(cli_workspace):
    """The parsed report.json of one run in the shared workspace."""
    tmp, cfg_path = cli_workspace
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp / "report_doc")]) == 0
    return json.loads((tmp / "report_doc" / "report.json").read_text())


class TestPretrainCli:
    def test_checkpoint_written(self, cli_workspace):
        tmp, _ = cli_workspace
        assert (tmp / "backbone.rbqt").exists()

    @pytest.mark.parametrize("flag, field", [
        ("--steps", "steps"), ("--batch-size", "batch_size"), ("--eval-every", "eval_every"),
        pytest.param("--samples-per-class", "pretrain: --samples-per-class must be >= 1",
                     id="--samples-per-class")])
    def test_bad_setting_exits_naming_field(self, tmp_path, capsys, flag, field):
        cfg_path = write_config(tmp_path)
        rc = main(["pretrain", "--config", str(cfg_path), "--samples-per-class", "4",
                   flag, "0"])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "backbone.rbqt").exists()

    @pytest.mark.parametrize("setting, message", [
        ("backbone_checkpoint=5", "error [backbone] backbone_checkpoint must be a string, got 5"),
        ("output_dir=null", "error [emit] output_dir must be a string, got None")])
    def test_bad_path_setting_refused_before_pretraining(self, tmp_path, capsys,
                                                         monkeypatch, setting, message):
        calls = []
        monkeypatch.setattr("rebq.cli.pretrain", lambda *a, **k: calls.append(a))
        cfg_path = write_config(tmp_path)
        rc = main(["pretrain", "--config", str(cfg_path), "--samples-per-class", "4",
                   "--set", setting])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert calls == []


class TestGenData:
    def test_writes_corpus(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        out = tmp / "corpus.jsonl"
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * 10

    @pytest.mark.parametrize("setting, message", [
        ("num_classes=1", "error [benchmark] num_classes must be >= 2, got 1"),
        ("samples_per_class=0", "error [benchmark] samples_per_class must be >= 1, got 0")],
        ids=["num_classes", "samples_per_class"])
    def test_count_out_of_range_refused(self, cli_workspace, capsys, setting, message):
        tmp, cfg_path = cli_workspace
        out = tmp / "zero.jsonl"
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(out), "--set", setting])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nested_set_keeps_the_file_sizes(self, cli_workspace):
        """--set synth={"multi_label": true} changes that key alone; the
        config file's TINY sizes stay."""
        tmp, cfg_path = cli_workspace
        out = tmp / "multi.jsonl"
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(out),
                   "--set", 'synth={"multi_label": true}'])
        assert rc == 0
        meta, samples = load_corpus(out)
        assert meta.multi_label and all(isinstance(s.label, list) for s in samples)
        assert (meta.vocab_size, meta.max_text_len, meta.num_patches, meta.patch_dim) == (
            TINY_SYNTH.vocab_size, TINY_SYNTH.max_text_len, TINY_SYNTH.num_patches,
            TINY_SYNTH.patch_dim)

    def test_corpus_feeds_run(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        corpus = tmp / "corpus2.jsonl"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(corpus)]) == 0
        rc = main(["run", "--config", str(cfg_path),
                   "--set", f"corpus_path={corpus}",
                   "--out", str(tmp / "from_corpus")])
        assert rc == 0
        assert (tmp / "from_corpus" / "report.json").exists()


class TestRun:
    def test_run_emits_reports(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp / "run1")])
        assert rc == 0
        for name in ("report.json", "matrix.csv", "trajectory.csv"):
            assert (tmp / "run1" / name).exists()
        report = json.loads((tmp / "run1" / "report.json").read_text())
        assert report["config"]["variant"] == "canonical"
        assert 0.0 <= report["ap"] <= 1.0

    def test_missing_checkpoint_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path,
                                backbone_checkpoint=str(tmp_path / "nope.rbqt"))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_variant_flag_override(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", "variant=baseline",
                   "--out", str(tmp / "run_baseline")])
        assert rc == 0
        report = json.loads((tmp / "run_baseline" / "report.json").read_text())
        assert report["config"]["variant"] == "baseline"

    def test_unknown_set_key_rejected(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", "bogus_key=1",
                   "--out", str(tmp / "x")])
        assert rc == 2

    @pytest.mark.parametrize("setting, message", [
        ("backbone=5", "config key backbone must be a mapping, got 5"),
        ('synth={"bogus": 1}', "config key synth has unknown keys ['bogus']"),
        ('backbone={"embed_dim": "x"}',
         "config key backbone: embed_dim must be an integer, got 'x'"),
        ('backbone={"activation": "tanh"}',
         "config key backbone: activation must be one of ['gelu', 'relu'], got 'tanh'"),
        ('backbone={"num_heads": 0}', "config key backbone: num_heads must be >= 1, got 0"),
        ('backbone={"embed_dim": 32.0}',
         "config key backbone: embed_dim must be an integer, got 32.0"),
        ('synth={"max_text_len": 0}', "config key synth: max_text_len must be >= 1, got 0"),
        ('synth={"multi_label": "yes"}',
         "config key synth: multi_label must be true or false, got 'yes'"),
        ('synth={"patch_noise_std": "a"}',
         "config key synth: patch_noise_std must be a finite number, got 'a'"),
        ('synth={"patch_noise_std": -1.0}',
         "config key synth: patch_noise_std must be >= 0, got -1.0"),
        ('synth={"tokens_per_class": 0}',
         "config key synth: tokens_per_class must be >= 1, got 0"),
        ("num_sessions=-1", "error [benchmark] num_sessions must be >= 1, got -1"),
        ("eta=true", "error [benchmark] eta must be a finite number, got True"),
        ("epochs=1.5", "error [train] epochs must be an integer, got 1.5"),
        ("warmup_frac=2", "error [train] warmup_frac must lie in [0, 1], got 2"),
        ("output_dir=5", "error [emit] output_dir must be a string, got 5"),
        ("corpus_path=3", "error [benchmark] corpus_path must be a string or None, got 3"),
        ("export_queries=1", "error [emit] export_queries must be true or false, got 1"),
        ('synth={"noise_token_prob": 3.0}',
         "config key synth: noise_token_prob must lie in [0, 1], got 3.0")],
        ids=["backbone-not-mapping", "synth-unknown-key", "backbone-value-type",
             "backbone-value-refused", "backbone-heads-zero", "backbone-dim-real",
             "synth-text-len-zero", "synth-multi-label-string", "synth-noise-string",
             "synth-noise-negative", "synth-tokens-zero", "sessions-negative", "eta-bool", "epochs-real",
             "warmup-above-one", "output-dir-int", "corpus-path-int", "export-queries-int",
             "synth-noise-above-one"])
    def test_bad_nested_config_named(self, cli_workspace, capsys, setting, message):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", setting,
                   "--out", str(tmp / "nested_bad")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "nested_bad").exists()

    def test_nested_set_merges_into_file_values(self, cli_workspace):
        """The backbone counterpart of TestGenData::test_nested_set_keeps_the_file_sizes."""
        _, cfg_path = cli_workspace
        args = build_parser().parse_args(["run", "--config", str(cfg_path),
                                          "--set", 'backbone={"activation": "gelu"}'])
        assert _load_config(args).backbone == dataclasses.replace(TINY, activation="gelu")

    def test_no_flag_mirrors_a_config_field(self):
        """Config fields are set through --config and --set only."""
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        commands = next(a.choices for a in build_parser()._actions
                        if isinstance(a.choices, dict))
        mirrored = {(name, action.dest) for name, command in commands.items()
                    for action in command._actions if action.dest in fields}
        assert mirrored == set()

    def test_output_root_env(self, cli_workspace, monkeypatch):
        tmp, cfg_path = cli_workspace
        root = tmp / "env_root"
        monkeypatch.setenv("REBQ_OUTPUT_ROOT", str(root))
        rc = main(["run", "--config", str(cfg_path), "--out", "nested/run"])
        assert rc == 0
        assert (root / "nested" / "run" / "report.json").exists()

    def test_flag_beats_env(self, cli_workspace, monkeypatch):
        tmp, cfg_path = cli_workspace
        monkeypatch.setenv("REBQ_OUTPUT_ROOT", str(tmp / "ignored"))
        absolute = tmp / "absolute_out"
        rc = main(["run", "--config", str(cfg_path), "--out", str(absolute)])
        assert rc == 0
        assert (absolute / "report.json").exists()
        assert not (tmp / "ignored").exists()

    def test_root_seed_derives_streams(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        for i, run_dir in enumerate(("seeded_a", "seeded_b")):
            rc = main(["run", "--config", str(cfg_path), "--seed", "777",
                       "--out", str(tmp / run_dir)])
            assert rc == 0
        a = json.loads((tmp / "seeded_a" / "report.json").read_text())
        b = json.loads((tmp / "seeded_b" / "report.json").read_text())
        assert a["config"]["seed_corpus"] == b["config"]["seed_corpus"]
        assert a["matrix"] == b["matrix"]


class TestSweep:
    def test_grid_and_summary(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                   "--out", str(tmp / "sweep")])
        assert rc == 0
        summary = (tmp / "sweep" / "sweep.csv").read_text().splitlines()
        assert summary[0] == "tag,ap,fg,output_dir"
        assert len(summary) == 3
        assert (tmp / "sweep" / "eta0" / "report.json").exists()
        assert (tmp / "sweep" / "eta50" / "report.json").exists()

    def test_unknown_axis_rejected(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "bogus=1",
                   "--out", str(tmp / "sweep2")])
        assert rc == 2


    def test_any_config_key_is_an_axis(self, cli_workspace, capsys):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path),
                   "--axis", "missing_case=text-missing,image-missing",
                   "--out", str(tmp / "sweep_case")])
        assert rc == 0
        for case in ("text-missing", "image-missing"):
            report = json.loads(
                (tmp / "sweep_case" / f"missing_case{case}" / "report.json").read_text())
            assert report["config"]["missing_case"] == case
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "output_dir=a,b",
                   "--out", str(tmp / "sweep_out")])
        assert rc == 2
        assert "unknown sweep axis 'output_dir'" in capsys.readouterr().err
        assert not (tmp / "sweep_out").exists()

    def test_variant_axis(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "variant=canonical,baseline",
                   "--out", str(tmp / "sweep_variant")])
        assert rc == 0
        for variant in ("canonical", "baseline"):
            report = json.loads(
                (tmp / "sweep_variant" / f"variant{variant}" / "report.json").read_text())
            assert report["config"]["variant"] == variant

    @pytest.mark.parametrize("axis, bad", [("eta", "abc"), ("pool_size", "2.5"),
                                           ("lam", "true"), ("eta", "NaN"),
                                           ("variant", "bogus"),
                                           ("variant", "3")])
    def test_bad_value_rejected_before_any_run(self, cli_workspace, capsys, axis, bad):
        stage = "benchmark" if axis == "eta" else "model"
        tmp, cfg_path = cli_workspace
        out = tmp / f"sweep_bad_{axis}_{bad}"
        # the good value comes first, so a check made per run would start it
        good = {"eta": "0", "pool_size": "4", "lam": "0.1", "variant": "canonical"}[axis]
        rc = main(["sweep", "--config", str(cfg_path), "--axis", f"{axis}={good},{bad}",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error [{stage}] {axis} must" in err and bad.lower() in err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, stage", [
        ("eta", "0,150", "benchmark"), ("pool_size", "4,0", "model"),
        ("memory_pool_size", "4,0", "model"), ("prompt_len", "2,-1", "model"),
        ("lam", "0.01,-5", "model")])
    def test_out_of_range_value_rejected_before_any_run(self, cli_workspace, capsys,
                                                        axis, values, stage):
        tmp, cfg_path = cli_workspace
        out = tmp / f"sweep_range_{axis}"
        # the good value comes first, so a check made per run would start it
        rc = main(["sweep", "--config", str(cfg_path), "--axis", f"{axis}={values}",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error [{stage}] {axis} must" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_any_run(self, cli_workspace, capsys, jobs):
        tmp, cfg_path = cli_workspace
        out = tmp / f"sweep_jobs{jobs}"
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0",
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 2
        assert f"sweep: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_share_the_cores(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                   "--jobs", "2", "--out", str(tmp / "sweep_jobs")])
        assert rc == 0
        for tag in ("eta0", "eta50"):
            report = json.loads((tmp / "sweep_jobs" / tag / "report.json").read_text())
            assert report["timing"]["threads"] == max(1, T.row_parts() // 2)

    def test_seed_axis_derives_every_seed_stream(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "seed=1,2",
                   "--out", str(tmp / "sweep_seed")])
        assert rc == 0
        base = RunConfig.from_dict(json.loads(cfg_path.read_text()))
        for seed in (1, 2):
            config = json.loads(
                (tmp / "sweep_seed" / f"seed{seed}" / "report.json").read_text())["config"]
            assert config == {**base.with_root_seed(seed).to_dict(),
                              "output_dir": str(tmp / "sweep_seed" / f"seed{seed}")}
        assert config["seed_mask"] != base.seed_mask

    @pytest.mark.parametrize("args, message", [
        (["--axis", "seed=1,2", "--axis", "seed_mask=3,4"],
         "sweep axis seed derives every seed stream, so it cannot go with seed_mask"),
        (["--seed", "7", "--axis", "seed=1,2"],
         "sweep axis seed derives every seed stream, so it cannot go with --seed"),
        (["--axis", "seed=1,-2"], "sweep axis seed takes non-negative integers, got -2"),
        (["--axis", "seed=1.5"], "sweep axis seed takes non-negative integers, got 1.5"),
        (["--axis", "seed=true"], "sweep axis seed takes non-negative integers, got True"),
        (["--axis", "seed=x"], "sweep axis seed takes non-negative integers, got 'x'")],
        ids=["with-seed-axis", "with-seed-flag", "negative", "float", "bool", "string"])
    def test_bad_seed_axis_rejected_before_any_run(self, cli_workspace, capsys, args,
                                                   message):
        tmp, cfg_path = cli_workspace
        out = tmp / "sweep_bad_seed"
        rc = main(["sweep", "--config", str(cfg_path), *args, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_verify_round_trip(self, cli_workspace, capsys):
        tmp, cfg_path = cli_workspace
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp / "rep")]) == 0
        rc = main(["report", "--report", str(tmp / "rep" / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consistent" in out

    def test_tampered_report_flagged(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp / "tamper")]) == 0
        path = tmp / "tamper" / "report.json"
        doc = json.loads(path.read_text())
        doc["ap"] = 0.123456
        path.write_text(json.dumps(doc))
        assert main(["report", "--report", str(path)]) == 1

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: {}, "report lacks keys ['ap', 'artifact_version',"),
        (lambda doc: [1, 2], "report must be a mapping, got [1, 2]"),
        (lambda doc: {**doc, "extra": 1}, "report has unknown keys ['extra']"),
        (lambda doc: {**doc, "ap": "x"}, "report ap must be a finite number, got 'x'"),
        (lambda doc: {**doc, "fg": True}, "report fg must be a finite number or None, got True"),
        (lambda doc: {**doc, "matrix": [[0.5, None], ["x", 0.5]]},
         "report matrix must be a list of rows of finite numbers or None"),
        (lambda doc: {**doc, "matrix": [row + [0.5] for row in doc["matrix"]]},
         "report matrix must be square, got rows of lengths [3, 3]"),
        (lambda doc: {**doc, "per_session": [without(doc["per_session"][0], "classes")]},
         "report per_session[0] lacks keys ['classes']"),
        (lambda doc: {**doc, "per_session": doc["per_session"] + [{**doc["per_session"][0],
                                                                   "mean_total": "x"}]},
         "report per_session[2] mean_total must be a finite number, got 'x'"),
        (lambda doc: {**doc, "fg": None},
         "report fg must be a finite number for a 2-session matrix, got None"),
        (lambda doc: {**doc, "matrix": [[0.5]], "fg": 0.1},
         "report fg must be None for a 1-session matrix, got 0.1"),
        (lambda doc: {**doc, "matrix": [], "fg": None},
         "report matrix must have length >= 1, got []"),
        (lambda doc: with_entry(doc, 1, 0, 0.3),
         "report matrix[1][0] must be None below the diagonal, got 0.3"),
        (lambda doc: with_entry(doc, 1, 1, None),
         "report matrix[1][1] must be in [0, 1] from the diagonal on, got None"),
        (lambda doc: with_entry(doc, 0, 1, None),
         "report matrix[0][1] must be in [0, 1] from the diagonal on, got None"),
        (lambda doc: with_entry(doc, 0, 0, 1.5),
         "report matrix[0][0] must be in [0, 1] from the diagonal on, got 1.5")],
        ids=["empty-object", "list", "extra-key", "ap-string", "fg-bool", "matrix-string",
             "matrix-not-square", "session-without-classes", "session-loss-string",
             "fg-null-two-sessions", "fg-one-session", "matrix-empty", "matrix-below-diagonal",
             "matrix-diagonal-none", "matrix-final-column-none", "matrix-above-one"])
    def test_non_report_json_rejected(self, report_doc, capsys, tmp_path, tamper, message):
        """Refused with exit 2 before any of the summary prints."""
        doc = tamper(json.loads(json.dumps(report_doc)))
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--report", str(path)]) == 2
        out = capsys.readouterr()
        assert message in out.err
        assert out.out == ""

    def test_re_emit_matches_the_run(self, cli_workspace, report_doc, tmp_path):
        """The CSVs derive from report.matrix alone, so re-emitting a saved
        report reproduces the run's bytes."""
        run = cli_workspace[0] / "report_doc"
        assert main(["report", "--report", str(run / "report.json"),
                     "--emit", str(tmp_path / "again")]) == 0
        for name in ("matrix.csv", "trajectory.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (run / name).read_bytes()
