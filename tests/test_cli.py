import json
from pathlib import Path

import pytest

from rebq import tensor as T
from rebq.cli import main
from rebq.runner import RunConfig

from conftest import TINY, TINY_SYNTH

import dataclasses


def without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


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

    @pytest.mark.parametrize("flag", ["--classes", "--samples-per-class"])
    def test_count_below_one_rejected(self, cli_workspace, capsys, flag):
        tmp, cfg_path = cli_workspace
        out = tmp / "zero.jsonl"
        rc = main(["gen-data", "--config", str(cfg_path), "--out", str(out), flag, "0"])
        assert rc == 2
        assert f"gen-data: {flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

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
        rc = main(["run", "--config", str(cfg_path), "--variant", "baseline",
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
        ('backbone={"embed_dim": "x"}', "config key backbone: not all arguments converted"),
        ('backbone={"activation": "tanh"}', "config key backbone: unknown activation 'tanh'"),
        ("num_sessions=-1", "error [benchmark] num_sessions must be >= 1, got -1"),
        ("eta=true", "error [benchmark] eta must be a finite number, got True"),
        ("epochs=1.5", "error [train] epochs must be an integer, got 1.5"),
        ("warmup_frac=2", "error [train] warmup_frac must lie in [0, 1], got 2"),
        ("output_dir=5", "error [emit] output_dir must be a string, got 5"),
        ("corpus_path=3", "error [benchmark] corpus_path must be a string or None, got 3"),
        ("export_queries=1", "error [emit] export_queries must be true or false, got 1")],
        ids=["backbone-not-mapping", "synth-unknown-key", "backbone-value-type",
             "backbone-value-refused", "sessions-negative", "eta-bool", "epochs-real",
             "warmup-above-one", "output-dir-int", "corpus-path-int", "export-queries-int"])
    def test_bad_nested_config_named(self, cli_workspace, capsys, setting, message):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", setting,
                   "--out", str(tmp / "nested_bad")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "nested_bad").exists()

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
         "report per_session[2] mean_total must be a finite number, got 'x'")],
        ids=["empty-object", "list", "extra-key", "ap-string", "fg-bool", "matrix-string",
             "matrix-not-square", "session-without-classes", "session-loss-string"])
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
