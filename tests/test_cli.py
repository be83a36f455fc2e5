import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rebq import backbone, cli
from rebq import tensor as T
from rebq.backbone import BackboneConfig
from rebq.bench import SynthConfig
from rebq.cli import _axis_values, _load_config, build_parser, main
from rebq.runner import ExperimentError, Report, RunConfig

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


def refused(f: dataclasses.Field):
    """One value the declared rule of field f refuses: one below its bound,
    or a string where it bounds nothing."""
    low = f.metadata["rule"].low
    return "x" if low is None else low - 1


# each field of the nested configs, with a value its rule refuses
NESTED_REFUSALS = [pytest.param(key, f.name, refused(f), id=f"{key}.{f.name}")
                   for key, kind in (("backbone", BackboneConfig), ("synth", SynthConfig))
                   for f in dataclasses.fields(kind)]


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A directory and the TINY config the CLI tests share."""
    tmp = tmp_path_factory.mktemp("cli")
    return tmp, write_config(tmp)


@pytest.fixture(scope="module")
def report_doc(cli_workspace):
    """The parsed report.json of one run in the shared workspace."""
    tmp, cfg_path = cli_workspace
    assert main(["run", "--config", str(cfg_path),
                 "--set", f"output_dir={tmp / 'report_doc'}"]) == 0
    return json.loads((tmp / "report_doc" / "report.json").read_text())


class TestRun:
    def test_run_emits_reports(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", f"output_dir={tmp / 'run1'}"])
        assert rc == 0
        assert sorted(p.name for p in (tmp / "run1").iterdir()) == [
            "matrix.csv", "report.json", "steps.csv", "trajectory.csv"]
        report = json.loads((tmp / "run1" / "report.json").read_text())
        assert report["config"]["variant"] == "canonical"
        assert 0.0 <= report["ap"] <= 1.0

    def test_multi_label_run_in_a_fresh_directory(self, tmp_path, monkeypatch,
                                                  pretrain_calls):
        """No command runs first, and the backbone of a multi-label run is
        pretrained on a single-label corpus."""
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, output_dir="out")
        assert main(["run", "--config", str(cfg_path),
                     "--set", 'synth={"multi_label":true}']) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["synth"]["multi_label"] is True
        assert pretrain_calls() == [[backbone.PRETRAIN_SEED, False]]

    def test_unusable_pretraining_is_a_backbone_error(self, tmp_path, capsys, monkeypatch,
                                                      pretrain_calls):
        monkeypatch.setattr(backbone, "MIN_ACCURACY", 1.5)
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert re.fullmatch(r"error \[backbone\] pretraining ended at held-out accuracy "
                            r"[01]\.\d{4}, below MIN_ACCURACY 1\.5\n", capsys.readouterr().err)
        assert len(pretrain_calls()) == 1
        assert not (tmp_path / "out").exists()

    def test_diverging_run_prints_only_its_stage_error(self, cli_workspace, capfd):
        """numpy's overflow warnings on the way to the non-finite loss stay
        quiet. The run is a child process: pytest records the warnings its own
        process raises, so only a child's stderr shows what a user sees."""
        tmp, cfg_path = cli_workspace
        done = subprocess.run(
            [sys.executable, "-m", "rebq.cli", "run", "--config", str(cfg_path),
             "--set", "lr=1e30", "--set", f"output_dir={tmp / 'diverged'}"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=300)
        err = capfd.readouterr().err
        assert done.returncode == 2
        assert "RuntimeWarning" not in err
        assert err.startswith("error [train] train_task: non-finite loss at step ")
        assert err.count("\n") == 1

    def test_variant_flag_override(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", "variant=baseline",
                   "--set", f"output_dir={tmp / 'run_baseline'}"])
        assert rc == 0
        report = json.loads((tmp / "run_baseline" / "report.json").read_text())
        assert report["config"]["variant"] == "baseline"

    def test_unknown_set_key_rejected(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["run", "--config", str(cfg_path), "--set", "bogus_key=1",
                   "--set", f"output_dir={tmp / 'x'}"])
        assert rc == 2

    @pytest.mark.parametrize("setting, message", [
        ("backbone=5", "config key backbone must be a mapping, got 5"),
        ('synth={"bogus": 1}', "config key synth has unknown keys ['bogus']"),
        ('backbone={"embed_dim": "x"}',
         "error [backbone] embed_dim must be an integer, got 'x'"),
        ('backbone={"pretrain_classes": 1}',
         "error [backbone] pretrain_classes must be >= 2, got 1"),
        ('backbone={"activation": "gelu"}', "config key backbone has unknown keys ['activation']"),
        ('backbone={"text_vocab_size": 64, "max_text_len": 8, "num_patches": 4, "patch_dim": 6}',
         "config key backbone has unknown keys "
         "['max_text_len', 'num_patches', 'patch_dim', 'text_vocab_size']"),
        ('backbone={"num_heads": 0}', "error [backbone] num_heads must be >= 1, got 0"),
        ('backbone={"embed_dim": 32.0}',
         "error [backbone] embed_dim must be an integer, got 32.0"),
        ('synth={"max_text_len": 0}', "error [benchmark] max_text_len must be >= 1, got 0"),
        ('synth={"multi_label": "yes"}',
         "error [benchmark] multi_label must be true or false, got 'yes'"),
        ('synth={"patch_noise_std": "a"}',
         "error [benchmark] patch_noise_std must be a finite number, got 'a'"),
        ('synth={"patch_noise_std": -1.0}',
         "error [benchmark] patch_noise_std must be >= 0, got -1.0"),
        ('synth={"tokens_per_class": 0}',
         "error [benchmark] tokens_per_class must be >= 1, got 0"),
        ("num_sessions=-1", "error [benchmark] num_sessions must be >= 1, got -1"),
        ("eta=true", "error [benchmark] eta must be a finite number, got True"),
        ("epochs=1.5", "error [train] epochs must be an integer, got 1.5"),
        ("warmup_frac=0.1", "error: config has unknown keys ['warmup_frac']"),
        ("backbone_checkpoint=backbone.rbqt",
         "error: config has unknown keys ['backbone_checkpoint']"),
        ("prompted_layers=3", "error [model] prompted_layers 3 exceeds backbone.num_layers 2"),
        ("output_dir=5", "error [emit] output_dir must be a string, got 5"),
        ("export_queries=true", "error: config has unknown keys ['export_queries']"),
        ('synth={"noise_token_prob": 3.0}',
         "error [benchmark] noise_token_prob must lie in [0, 1], got 3.0")],
        ids=["backbone-not-mapping", "synth-unknown-key", "backbone-value-type",
             "backbone-value-refused", "backbone-activation-removed",
             "backbone-input-sizes-removed", "backbone-heads-zero",
             "backbone-dim-real", "synth-text-len-zero", "synth-multi-label-string",
             "synth-noise-string", "synth-noise-negative", "synth-tokens-zero",
             "sessions-negative", "eta-bool", "epochs-real", "warmup-frac-removed",
             "backbone-checkpoint-removed",
             "prompted-layers-deeper-than-backbone", "output-dir-int", "export-queries-removed",
             "synth-noise-above-one"])
    def test_bad_nested_config_named(self, cli_workspace, capsys, setting, message):
        tmp, cfg_path = cli_workspace
        # output_dir comes first, so it does not replace a bad output_dir under test
        rc = main(["run", "--config", str(cfg_path),
                   "--set", f"output_dir={tmp / 'nested_bad'}", "--set", setting])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp / "nested_bad").exists()

    @pytest.mark.parametrize("key, name, value", NESTED_REFUSALS)
    def test_refused_nested_value_names_its_stage(self, cli_workspace, report_doc, capsys,
                                                  tmp_path, key, name, value):
        """A nested value fails with the stage its parent field declares, as a
        top-level value does: built from a mapping, set on the command line and
        read back from a report."""
        with pytest.raises(ExperimentError) as exc:
            RunConfig.from_dict({key: {name: value}})
        assert exc.value.stage == RunConfig.__dataclass_fields__[key].metadata["rule"].stage
        assert exc.value.cause.startswith(f"{name} must ")
        _, cfg_path = cli_workspace
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path), "--set", f"output_dir={tmp_path / 'out'}",
                     "--set", f"{key}={json.dumps({name: value})}"]) == 2
        assert capsys.readouterr().err == f"error {exc.value}\n"
        assert not (tmp_path / "out").exists()
        doc = json.loads(json.dumps(report_doc))
        doc["config"][key][name] = value
        with pytest.raises(ValueError) as read:
            Report.from_dict(doc)
        assert str(read.value) == f"report config.{exc.value.cause}"

    def test_nested_set_merges_into_file_values(self, cli_workspace):
        """A mapping --set changes the keys it names alone; the config file's
        TINY sizes stay."""
        _, cfg_path = cli_workspace
        args = build_parser().parse_args(["run", "--config", str(cfg_path),
                                          "--set", 'backbone={"pretrain_classes": 5}',
                                          "--set", 'synth={"multi_label": true}'])
        cfg = _load_config(args)
        assert cfg.backbone == dataclasses.replace(TINY, pretrain_classes=5)
        assert cfg.synth == dataclasses.replace(TINY_SYNTH, multi_label=True)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_refused_naming_the_field(self, tmp_path, capsys, monkeypatch,
                                                    command):
        calls = []
        monkeypatch.setattr("rebq.cli.run_experiment", lambda *a, **k: calls.append(a))
        cfg_path = write_config(tmp_path)
        axis = ["--axis", "eta=0"] if command == "sweep" else []
        rc = main([command, "--config", str(cfg_path), "--set", "seed=-1", *axis,
                   "--set", f"output_dir={tmp_path / 'seeded'}"])
        assert rc == 2
        assert capsys.readouterr().err == "error [benchmark] seed must be >= 0, got -1\n"
        assert calls == []
        assert not (tmp_path / "seeded").exists()

    @pytest.mark.parametrize("command, flag", [("run", "--config"), ("report", "--report")])
    def test_malformed_json_named_by_its_path(self, tmp_path, capsys, command, flag):
        path = tmp_path / "bad.json"
        path.write_text('{"eta":\n}')
        assert main([command, flag, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not JSON: Expecting value")

    def test_config_file_not_a_mapping_refused(self, tmp_path, capsys):
        """The file is refused by name before an override merges into it."""
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--set", "eta=0",
                     "--set", f"output_dir={tmp_path / 'out'}"]) == 2
        assert capsys.readouterr().err == "error: config must be a mapping, got [1, 2]\n"
        assert not (tmp_path / "out").exists()

    def test_no_flag_mirrors_a_config_field(self):
        """Config fields, output paths included, are set through --config and
        --set only; the other flags set what a RunConfig does not hold."""
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        commands = next(a.choices for a in build_parser()._actions
                        if isinstance(a.choices, dict))
        mirrored = {(name, action.dest) for name, command in commands.items()
                    for action in command._actions if action.dest in fields}
        assert mirrored == set()
        flags = {name: sorted(s for action in command._actions for s in action.option_strings
                              if s != "-h" and s != "--help")
                 for name, command in commands.items()}
        assert flags == {"run": ["--config", "--set"],
                         "sweep": ["--axis", "--config", "--jobs", "--set"],
                         "report": ["--emit", "--report"]}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_flag_refused(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_output_root_env(self, cli_workspace, monkeypatch):
        tmp, cfg_path = cli_workspace
        root = tmp / "env_root"
        monkeypatch.setenv("REBQ_OUTPUT_ROOT", str(root))
        rc = main(["run", "--config", str(cfg_path), "--set", "output_dir=nested/run"])
        assert rc == 0
        assert (root / "nested" / "run" / "report.json").exists()

    def test_flag_beats_env(self, cli_workspace, monkeypatch):
        """An absolute output_dir is not rooted under $REBQ_OUTPUT_ROOT."""
        tmp, cfg_path = cli_workspace
        monkeypatch.setenv("REBQ_OUTPUT_ROOT", str(tmp / "ignored"))
        absolute = tmp / "absolute_out"
        rc = main(["run", "--config", str(cfg_path), "--set", f"output_dir={absolute}"])
        assert rc == 0
        assert (absolute / "report.json").exists()
        assert not (tmp / "ignored").exists()

    def test_root_seed_derives_streams(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        for i, run_dir in enumerate(("seeded_a", "seeded_b")):
            rc = main(["run", "--config", str(cfg_path), "--set", "seed=777",
                       "--set", f"output_dir={tmp / run_dir}"])
            assert rc == 0
        a = json.loads((tmp / "seeded_a" / "report.json").read_text())
        b = json.loads((tmp / "seeded_b" / "report.json").read_text())
        assert a["config"]["seed"] == b["config"]["seed"] == 777
        assert a["matrix"] == b["matrix"]


class TestSweep:
    def test_grid_and_summary(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                   "--set", f"output_dir={tmp / 'sweep'}"])
        assert rc == 0
        summary = (tmp / "sweep" / "sweep.csv").read_text().splitlines()
        assert summary[0] == "tag,eta,ap,fg,output_dir"
        assert [row.split(",")[:2] for row in summary[1:]] == [["eta0", "0"], ["eta50", "50"]]
        assert (tmp / "sweep" / "eta0" / "report.json").exists()
        assert (tmp / "sweep" / "eta50" / "report.json").exists()

    def test_unknown_axis_rejected(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "bogus=1",
                   "--set", f"output_dir={tmp / 'sweep2'}"])
        assert rc == 2


    def test_any_config_key_is_an_axis(self, cli_workspace, capsys):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path),
                   "--axis", "missing_case=text-missing,image-missing",
                   "--set", f"output_dir={tmp / 'sweep_case'}"])
        assert rc == 0
        for case in ("text-missing", "image-missing"):
            report = json.loads(
                (tmp / "sweep_case" / f"missing_case{case}" / "report.json").read_text())
            assert report["config"]["missing_case"] == case
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "output_dir=a,b",
                   "--set", f"output_dir={tmp / 'sweep_out'}"])
        assert rc == 2
        assert "unknown sweep axis 'output_dir'" in capsys.readouterr().err
        assert not (tmp / "sweep_out").exists()

    @pytest.mark.parametrize("values", [
        ['{"noise_token_prob": 0.1, "patch_noise_std": 0.3}'],
        ['{"noise_token_prob": 0.1, "patch_noise_std": 0.3}',
         '{"noise_token_prob": 0.3, "patch_noise_std": 0.1}']],
        ids=["one-mapping", "two-mappings"])
    def test_mapping_values_cut_at_top_level_commas(self, cli_workspace, values):
        """The commas inside a mapping do not cut the value list, and each
        mapping merges into the config's synth."""
        tmp, cfg_path = cli_workspace
        out = tmp / f"sweep_synth{len(values)}"
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "synth=" + ",".join(values),
                   "--set", f"output_dir={out}"])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [json.loads(r["synth"]) for r in rows] == [json.loads(v) for v in values]
        assert [r["tag"] for r in rows] == [f"synth{i}" for i in range(len(values))]
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", *(r["tag"] for r in rows)]
        for row, value in zip(rows, values):
            report = json.loads((Path(row["output_dir"]) / "report.json").read_text())
            assert report["config"]["synth"] == {**dataclasses.asdict(TINY_SYNTH),
                                                 **json.loads(value)}

    def test_variant_axis(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "variant=canonical,baseline",
                   "--set", f"output_dir={tmp / 'sweep_variant'}"])
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
                   "--set", f"output_dir={out}"])
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
                   "--set", f"output_dir={out}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error [{stage}] {axis} must" in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_any_run(self, cli_workspace, capsys, jobs):
        tmp, cfg_path = cli_workspace
        out = tmp / f"sweep_jobs{jobs}"
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0",
                   "--jobs", jobs, "--set", f"output_dir={out}"])
        assert rc == 2
        assert f"sweep: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_run_ends_the_sweep_with_its_stage_error(self, tmp_path, capsys, jobs):
        """The run's ExperimentError crosses back from its worker process."""
        cfg_path = write_config(tmp_path, samples_per_class=1)
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50", "--jobs", jobs])
        assert rc == 2
        assert capsys.readouterr().err == ("error [benchmark] session 0 has an empty test "
                                           "split; raise samples_per_class\n")
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_worker_pretrains_once(self, tmp_path, pretrain_calls):
        """The runs of one worker process share its frozen backbone."""
        cfg_path = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                     "--jobs", "1"]) == 0
        assert len(pretrain_calls()) == 1

    def test_failing_run_cancels_the_pending_runs(self, cli_workspace, capsys):
        """The first run's loss overflows; the sweep reports it before the
        last run of the grid starts."""
        tmp, cfg_path = cli_workspace
        out = tmp / "sweep_cancel"
        lrs = ",".join(["1e30", *(f"0.00{i}" for i in range(1, 9))])
        rc = main(["sweep", "--config", str(cfg_path), "--axis", f"lr={lrs}",
                   "--set", f"output_dir={out}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error [train] ")
        assert not (out / "lr0.008").exists() and not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("raw, values", [
        ("0,50", [0, 50]), (" 0, 50 ", [0, 50]), ("0,", [0]), ("", []), ("NaN", [float("nan")]),
        ("text-missing,image-missing", ["text-missing", "image-missing"]),
        ("x,,y,", ["x", "y"]), ("null,x", [None, "x"]), ('"x","b,c"', ["x", "b,c"]),
        ('[1,2],[3]', [[1, 2], [3]]), ('{"a":1,"b":2},{"a":3}', [{"a": 1, "b": 2}, {"a": 3}]),
        ('x,"b,c"', ["x", '"b', 'c"'])],
        ids=["numbers", "spaces", "trailing-comma", "empty", "nan", "bare-strings",
             "empty-items", "null-beside-string", "quoted-comma", "lists", "mappings",
             "bare-beside-quoted-comma"])
    def test_axis_list_read_as_json_else_cut_at_commas(self, raw, values):
        assert json.dumps(_axis_values(raw)) == json.dumps(values)  # NaN compares by text

    def test_jobs_share_the_cores(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                   "--jobs", "2", "--set", f"output_dir={tmp / 'sweep_jobs'}"])
        assert rc == 0
        for tag in ("eta0", "eta50"):
            report = json.loads((tmp / "sweep_jobs" / tag / "report.json").read_text())
            assert report["timing"]["threads"] == max(1, T.row_parts() // 2)

    def test_jobs_beyond_the_grid_start_one_worker_per_run(self, cli_workspace, monkeypatch):
        """The pool starts all its workers at once, so --jobs 64 over two runs
        asks for two, and the cores are split over those two."""
        tmp, cfg_path = cli_workspace
        pools = []

        class InProcessPool:  # records the pool's arguments, starts no process
            def __init__(self, max_workers, initializer, initargs):
                pools.append({"max_workers": max_workers, "initargs": initargs})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "eta=0,50",
                   "--jobs", "64", "--set", f"output_dir={tmp / 'sweep_jobs64'}"])
        assert rc == 0
        assert pools == [{"max_workers": 2, "initargs": (max(1, T.row_parts() // 2),)}]

    def test_seed_axis_derives_every_seed_stream(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "seed=1,2",
                   "--set", f"output_dir={tmp / 'sweep_seed'}"])
        assert rc == 0
        base = RunConfig.from_dict(json.loads(cfg_path.read_text()))
        for seed in (1, 2):
            config = json.loads(
                (tmp / "sweep_seed" / f"seed{seed}" / "report.json").read_text())["config"]
            assert config == {**dataclasses.replace(base, seed=seed).to_dict(),
                              "output_dir": str(tmp / "sweep_seed" / f"seed{seed}")}
        assert RunConfig.from_dict(config).seed_mask != base.seed_mask

    def test_seed_axis_summarised_per_other_combination(self, cli_workspace, capsys):
        tmp, cfg_path = cli_workspace
        capsys.readouterr()
        rc = main(["sweep", "--config", str(cfg_path), "--axis", "variant=canonical,baseline",
                   "--axis", "seed=1,2", "--set", f"output_dir={tmp / 'sweep_claims'}"])
        assert rc == 0
        with open(tmp / "sweep_claims" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["tag", "variant", "seed", "ap", "fg", "output_dir"]
        assert [(r["tag"], r["variant"], r["seed"]) for r in rows] == [
            ("variantcanonical_seed1", "canonical", "1"), ("variantcanonical_seed2", "canonical", "2"),
            ("variantbaseline_seed1", "baseline", "1"), ("variantbaseline_seed2", "baseline", "2")]
        out = capsys.readouterr().out
        assert "over seeds [1, 2], mean (min-max):" in out
        for variant in ("canonical", "baseline"):
            runs = [r for r in rows if r["variant"] == variant]
            for r in runs:
                report = json.loads((Path(r["output_dir"]) / "report.json").read_text())
                assert (float(r["ap"]), float(r["fg"])) == (report["ap"], report["fg"])
            stats = []
            for key in ("ap", "fg"):
                values = [float(r[key]) for r in runs]
                stats.append(f"{float(np.mean(values)):.4f} "
                             f"({min(values):.4f}-{max(values):.4f})")
            assert f"variant={variant}: AP={stats[0]} FG={stats[1]}\n" in out

    @pytest.mark.parametrize("axes, message", [
        (["--axis", "eta=0", "--axis", "eta=50"],
         "sweep axis eta is given twice, the second time as 'eta=50'"),
        (["--axis", "eta=0,0"], "sweep axis eta repeats the value 0"),
        (["--axis", "seed=1,2,1"], "sweep axis seed repeats the value 1")],
        ids=["repeated-axis", "repeated-value", "repeated-seed"])
    def test_repeated_axis_or_value_rejected_before_any_run(self, cli_workspace, capsys,
                                                            axes, message):
        """Otherwise one run is lost to the last axis given, or two runs share
        one directory and sweep.csv holds the same row twice."""
        tmp, cfg_path = cli_workspace
        out = tmp / "sweep_repeated"
        rc = main(["sweep", "--config", str(cfg_path), *axes, "--set", f"output_dir={out}"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--axis", "seed=1,2", "--axis", "seed_mask=3,4"],
         "error: unknown sweep axis 'seed_mask'"),
        (["--axis", "seed=1,-2"], "error [benchmark] seed must be >= 0, got -2"),
        (["--axis", "seed=1.5"], "error [benchmark] seed must be an integer, got 1.5"),
        (["--axis", "seed=true"], "error [benchmark] seed must be an integer, got True"),
        (["--axis", "seed=x"], "error [benchmark] seed must be an integer, got 'x'")],
        ids=["with-seed-axis", "negative", "float", "bool", "string"])
    def test_bad_seed_axis_rejected_before_any_run(self, cli_workspace, capsys, args,
                                                   message):
        """seed is an ordinary key: its values meet its field's rule, and the
        five streams it derives are no config keys."""
        tmp, cfg_path = cli_workspace
        out = tmp / "sweep_bad_seed"
        rc = main(["sweep", "--config", str(cfg_path), *args, "--set", f"output_dir={out}"])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_verify_round_trip(self, cli_workspace, capsys):
        tmp, cfg_path = cli_workspace
        assert main(["run", "--config", str(cfg_path), "--set", f"output_dir={tmp / 'rep'}"]) == 0
        rc = main(["report", "--report", str(tmp / "rep" / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "consistent" in out

    def test_tampered_report_flagged(self, cli_workspace):
        tmp, cfg_path = cli_workspace
        assert main(["run", "--config", str(cfg_path),
                     "--set", f"output_dir={tmp / 'tamper'}"]) == 0
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
         "report matrix[0][0] must be in [0, 1] from the diagonal on, got 1.5"),
        (lambda doc: {**doc, "config": {},
                      "per_session": [{**doc["per_session"][0], "session": 7}] * 3},
         "report config lacks keys ['backbone', 'batch_size',"),
        (lambda doc: {**doc, "config": without(doc["config"], "variant")},
         "report config lacks keys ['variant']"),
        (lambda doc: {**doc, "config": {**doc["config"],
                                        "synth": without(doc["config"]["synth"], "multi_label")}},
         "report config lacks keys ['synth.multi_label']"),
        (lambda doc: {**doc, "config": {**doc["config"], "bogus": 1}},
         "report config has unknown keys ['bogus']"),
        (lambda doc: {**doc, "config": {**doc["config"], "corpus_path": None}},
         "report config has unknown keys ['corpus_path']"),
        (lambda doc: {**doc, "config": {**doc["config"], "backbone_checkpoint": "b.rbqt"}},
         "report config has unknown keys ['backbone_checkpoint']"),
        (lambda doc: {**doc, "config": {
            **doc["config"], "warmup_frac": 0.1, "weight_decay": 0.01,
            "backbone": {**doc["config"]["backbone"], "activation": "relu", "ffn_mult": 2}}},
         "report config has unknown keys ['warmup_frac', 'weight_decay']"),
        (lambda doc: {**doc, "config": {**doc["config"], "backbone": {
            **doc["config"]["backbone"], "text_vocab_size": 64, "max_text_len": 8,
            "num_patches": 4, "patch_dim": 6}}},
         "report config key backbone has unknown keys "
         "['max_text_len', 'num_patches', 'patch_dim', 'text_vocab_size']"),
        (lambda doc: {**doc, "config": {**without(doc["config"], "seed"), "seed_corpus": 1,
                                        "seed_split": 2, "seed_mask": 3, "seed_train": 4,
                                        "seed_model": 5}},
         "report config has unknown keys ['seed_corpus', 'seed_mask', 'seed_model', "
         "'seed_split', 'seed_train']"),
        (lambda doc: {**doc, "config": {**doc["config"], "eta": 150}},
         "report config.eta must lie in [0, 100], got 150"),
        (lambda doc: {**doc, "config": {**doc["config"], "num_sessions": 3}},
         "report config.num_sessions is 3, but the matrix has 2 sessions"),
        (lambda doc: {**doc, "config": {**doc["config"], "prompted_layers": 100}},
         "report config.prompted_layers 100 exceeds backbone.num_layers 2"),
        (lambda doc: {**doc, "per_session": doc["per_session"] + doc["per_session"][1:]},
         "report per_session must number the sessions [0, 1] in order, got [0, 1, 1]"),
        (lambda doc: {**doc, "per_session": doc["per_session"][::-1]},
         "report per_session must number the sessions [0, 1] in order, got [1, 0]")],
        ids=["empty-object", "list", "extra-key", "ap-string", "fg-bool", "matrix-string",
             "matrix-not-square", "session-without-classes", "session-loss-string",
             "fg-null-two-sessions", "fg-one-session", "matrix-empty", "matrix-below-diagonal",
             "matrix-diagonal-none", "matrix-final-column-none", "matrix-above-one",
             "config-empty-sessions-seven", "config-without-variant",
             "config-without-nested-key", "config-unknown-key", "config-with-corpus-path",
             "config-with-backbone-checkpoint",
             "config-with-removed-keys", "config-with-removed-backbone-sizes",
             "config-with-seed-streams", "config-out-of-range",
             "config-session-count", "config-prompted-deeper-than-backbone",
             "per-session-extra", "per-session-order"])
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
        report reproduces the run's bytes; a report holds no training step,
        so no steps.csv is written."""
        run = cli_workspace[0] / "report_doc"
        assert main(["report", "--report", str(run / "report.json"),
                     "--emit", str(tmp_path / "again")]) == 0
        for name in ("matrix.csv", "trajectory.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (run / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "again").iterdir()) == [
            "matrix.csv", "report.json", "trajectory.csv"]

    def test_re_emit_names_the_directory_under_the_output_root(
            self, cli_workspace, report_doc, tmp_path, monkeypatch, capsys):
        run = cli_workspace[0] / "report_doc"
        monkeypatch.setenv("REBQ_OUTPUT_ROOT", str(tmp_path / "root"))
        capsys.readouterr()
        assert main(["report", "--report", str(run / "report.json"), "--emit", "again"]) == 0
        written = tmp_path / "root" / "again"
        assert (written / "matrix.csv").exists()
        assert capsys.readouterr().out.splitlines()[-1] == f"re-emitted CSVs to {written}"
