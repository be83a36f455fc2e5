import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq import runner
from rebq import tensor as T
from rebq.backbone import MultimodalBackbone
from rebq.reconstruct import export_query_embeddings
from rebq.runner import (ExperimentError, Report, RunConfig, emit_report, report_json_bytes,
                         run_experiment)

from conftest import TINY, TINY_SYNTH


def tiny_config(tmp_path, **overrides) -> RunConfig:
    cfg = RunConfig(
        backbone=TINY,
        backbone_checkpoint=str(tmp_path / "missing.rbqt"),
        synth=TINY_SYNTH,
        num_classes=4,
        samples_per_class=15,
        num_sessions=2,
        eta=50.0,
        missing_case="both-missing",
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
    return dataclasses.replace(cfg, **overrides)


def strip_timing(report_bytes: bytes) -> dict:
    d = json.loads(report_bytes)
    d.pop("timing", None)
    return d


@pytest.fixture(scope="module")
def tiny_run(tiny_backbone, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runner")
    cfg = tiny_config(tmp)
    report, artifacts = run_experiment(cfg, backbone=tiny_backbone)
    return cfg, report, artifacts


class TestRunExperiment:
    def test_matrix_shape(self, tiny_run):
        _, report, _ = tiny_run
        assert [[v is not None for v in row] for row in report.matrix] == [[True, True],
                                                                          [False, True]]
        assert all(0.0 <= v <= 1.0 for row in report.matrix for v in row if v is not None)

    def test_protocol_isolation(self, tiny_run):
        _, _, artifacts = tiny_run
        train_reads = [s for kind, s in artifacts.stream.access_log if kind == "train"]
        assert train_reads == sorted(train_reads), "training data revisited out of order"
        assert len(train_reads) == len(set(train_reads)), "a session was retrained"

    def test_backbone_unchanged(self, tiny_run, tiny_backbone):
        _, report, artifacts = tiny_run
        assert artifacts.model.backbone is tiny_backbone
        # run_experiment asserts byte-stability internally; re-verify here
        assert artifacts.model.backbone.frozen

    def test_report_recompute(self, tiny_run):
        _, report, _ = tiny_run
        ap, fg = report.recompute()
        assert abs(ap - report.ap) <= 1e-12
        assert abs(fg - report.fg) <= 1e-12

    def test_report_self_contained_round_trip(self, tiny_run):
        _, report, _ = tiny_run
        loaded = Report.from_dict(json.loads(report_json_bytes(report)))
        ap, fg = loaded.recompute()
        assert abs(ap - report.ap) <= 1e-12
        assert abs(fg - report.fg) <= 1e-12

    def test_missing_checkpoint_stage_tagged(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg)
        assert exc.value.stage == "backbone"

    @pytest.mark.parametrize("overrides, stage, needle", [
        ({"missing_case": "sideways"}, "benchmark", "sideways"),
        ({"variant": "not_a_variant"}, "model", "not_a_variant"),
        ({"batch_size": 0}, "train", "batch_size"),
        ({"batch_size": -1}, "train", "batch_size"),
        ({"eval_batch_size": -2}, "train", "batch_size"),
    ])
    def test_bad_input_stage_tagged(self, tiny_backbone, tmp_path, overrides, stage,
                                    needle):
        cfg = tiny_config(tmp_path, **overrides)
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg, backbone=tiny_backbone)
        assert exc.value.stage == stage
        assert needle in exc.value.cause

    @pytest.mark.parametrize("field, value, stage", [
        ("eta", 150.0, "benchmark"), ("eta", -0.5, "benchmark"),
        ("pool_size", 0, "model"), ("memory_pool_size", 0, "model"),
        ("prompt_len", -1, "model"), ("prompted_layers", -1, "model"),
        ("lam", -5.0, "model"), ("lam", "x", "model"), ("epochs", 0, "train"),
        ("num_classes", 1, "benchmark"), ("samples_per_class", 0, "benchmark"),
        ("num_sessions", -1, "benchmark"), ("num_sessions", 0, "benchmark"),
        ("eta", True, "benchmark"), ("eta", float("nan"), "benchmark"),
        ("missing_case", "sideways", "benchmark"), ("missing_case", 1, "benchmark"),
        ("seed", -1, "benchmark"), ("variant", "rebq", "model"),
        ("pool_size", 1.5, "model"), ("prompted_layers", False, "model"),
        ("seed", 2.0, "benchmark"), ("epochs", 1.5, "train"), ("lr", -1.0, "train"),
        ("lr", "x", "train"), ("lr", float("inf"), "train"), ("seed", None, "benchmark"),
        ("backbone_checkpoint", None, "backbone"),
        ("export_queries", 1, "emit"), ("export_queries", "yes", "emit"),
        ("output_dir", 5, "emit"), ("output_dir", None, "emit")])
    def test_out_of_range_refused_before_any_stage(self, tmp_path, field, value, stage):
        # the checkpoint is missing, so any stage that ran would fail first
        cfg = tiny_config(tmp_path, **{field: value})
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg)
        assert exc.value.stage == stage
        assert exc.value.cause.startswith(f"{field} must ")
        assert repr(value) in exc.value.cause

    def test_prompted_layers_deeper_than_backbone_refused_before_any_stage(self, tmp_path):
        RunConfig().check()  # the default prompts every layer of the default backbone
        with pytest.raises(ExperimentError, match=r"^\[model\] prompted_layers 3 exceeds "
                                                  r"backbone.num_layers 2$"):
            run_experiment(tiny_config(tmp_path, prompted_layers=TINY.num_layers + 1))

    @pytest.mark.parametrize("source", ["passed", "checkpoint"])
    def test_other_backbone_config_refused_naming_keys(self, tiny_backbone, tmp_path,
                                                       monkeypatch, source):
        """The report records config.backbone, so a backbone built from another
        config is refused before any stage reads it."""
        calls = []
        monkeypatch.setattr(runner, "build_stream", lambda *a, **k: calls.append(a))
        stated = dataclasses.replace(TINY, embed_dim=64, num_heads=4, pretrain_classes=5)
        cfg = tiny_config(tmp_path, backbone=stated,
                          backbone_checkpoint=str(tmp_path / "backbone.rbqt"))
        passed = tiny_backbone
        if source == "checkpoint":
            tiny_backbone.save_checkpoint(cfg.backbone_checkpoint)
            passed = None
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg, backbone=passed)
        assert exc.value.stage == "backbone"
        assert exc.value.cause.endswith(
            "differs from the config's backbone in embed_dim 32 (config 64), "
            "num_heads 2 (config 4), pretrain_classes 4 (config 5)")
        assert (source == "checkpoint") == ("backbone.rbqt" in exc.value.cause)
        assert calls == []

    def test_timing_records_threads(self, tiny_run):
        _, report, _ = tiny_run
        assert report.timing["threads"] == T.row_parts() >= 1

    @pytest.mark.parametrize("overrides", [{"batch_size": 0}, {"eval_batch_size": -2}])
    def test_batch_sizes_checked_before_training(self, tiny_backbone, tmp_path,
                                                 monkeypatch, overrides):
        calls = []
        monkeypatch.setattr(runner, "train_task", lambda *a, **k: calls.append(a))
        with pytest.raises(ExperimentError, match=r"\[train\] .*batch_size must be >= 1"):
            run_experiment(tiny_config(tmp_path, **overrides), backbone=tiny_backbone)
        assert calls == []

    def test_empty_split_refused_before_training(self, tiny_backbone, tmp_path,
                                                 monkeypatch):
        # one sample per class rounds to 1 training and 0 test samples in
        # every class, whatever the seed
        calls = []
        monkeypatch.setattr(runner, "train_task", lambda *a, **k: calls.append(a))
        cfg = tiny_config(tmp_path, samples_per_class=1)
        with pytest.raises(ExperimentError,
                           match=r"\[benchmark\] session 0 has an empty test split"):
            run_experiment(cfg, backbone=tiny_backbone)
        assert calls == []

    def test_indivisible_class_count_refused_before_training(self, tiny_backbone, tmp_path,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "train_task", lambda *a, **k: calls.append(a))
        with pytest.raises(ExperimentError, match=r"\[benchmark\] 5 classes do not split "
                                                  r"evenly into 2 sessions: 1 would be dropped"):
            run_experiment(tiny_config(tmp_path, num_classes=5), backbone=tiny_backbone)
        assert calls == []

    @pytest.mark.parametrize("field, value, misfit", [
        ("patch_dim", 5, "patch_dim 5 (the backbone needs 6)"),
        ("num_patches", 5, "num_patches 5 (the backbone needs 4)"),
        ("max_text_len", 12, "max_text_len 12 (the backbone reads at most 8)"),
        ("vocab_size", 200, "vocab_size 200 (the backbone reads at most 64)")])
    def test_corpus_the_backbone_cannot_read_refused(self, tmp_path, field, value, misfit):
        """RunConfig.check compares the sizes synth draws with before any stage:
        the checkpoint is missing, so a stage that ran would fail first."""
        synth = dataclasses.replace(TINY_SYNTH, **{field: value})
        cfg = tiny_config(tmp_path, synth=synth)
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg)
        assert exc.value.stage == "benchmark"
        assert exc.value.cause == f"the corpus does not fit the backbone: {misfit}"

    def test_determinism_modulo_timing(self, tiny_backbone, tmp_path):
        cfg = tiny_config(tmp_path)
        a, _ = run_experiment(cfg, backbone=tiny_backbone)
        b, _ = run_experiment(cfg, backbone=tiny_backbone)
        assert strip_timing(report_json_bytes(a)) == strip_timing(report_json_bytes(b))
        assert report_json_bytes(a) != b""  # sanity

    def test_per_session_losses_present(self, tiny_run):
        _, report, _ = tiny_run
        assert len(report.per_session) == 2
        for entry in report.per_session:
            assert set(entry) >= {"session", "mean_total", "mean_classification",
                                  "mean_reconstruction", "final_total"}



class TestSeed:
    @settings(max_examples=30, deadline=None)
    @given(root=st.integers(0, 2 ** 63))
    def test_streams_derive_from_the_root(self, root):
        cfg = RunConfig(seed=root)
        streams = [cfg.seed_corpus, cfg.seed_split, cfg.seed_mask, cfg.seed_train,
                   cfg.seed_model]
        assert streams == np.random.SeedSequence(root).generate_state(5).tolist()
        assert RunConfig().with_root_seed(root) == dataclasses.replace(RunConfig(), seed=root)


class TestProtocolProperties:
    @settings(max_examples=20, deadline=None)
    @given(sessions=st.integers(1, 3), eta=st.floats(0.0, 100.0),
           multi_label=st.booleans())
    def test_sessions_read_once_in_order_and_runs_repeat(self, tiny_backbone, sessions,
                                                         eta, multi_label):
        cfg = tiny_config(Path("unused"), num_classes=6, samples_per_class=12,
                          num_sessions=sessions, eta=eta, batch_size=8,
                          synth=dataclasses.replace(TINY_SYNTH, multi_label=multi_label))
        a, art = run_experiment(cfg, backbone=tiny_backbone)
        train_reads = [j for kind, j in art.stream.access_log if kind == "train"]
        assert train_reads == list(range(sessions))
        b, _ = run_experiment(cfg, backbone=tiny_backbone)
        assert strip_timing(report_json_bytes(a)) == strip_timing(report_json_bytes(b))


class TestEmit:
    def test_emit_files_and_shapes(self, tiny_run, tmp_path):
        cfg, report, artifacts = tiny_run
        out = tmp_path / "emit"
        assert emit_report(report, out, artifacts) is None
        assert {p.name for p in out.iterdir()} == {"report.json", "matrix.csv",
                                                  "trajectory.csv"}

        (a00, a01), (_, a11) = report.matrix
        assert (out / "matrix.csv").read_text() == f"{a00!r},{a01!r}\n{a11!r}\n"
        assert (out / "trajectory.csv").read_text() == \
            f"0,{a00!r}\n1,{float(np.mean([a01, a11]))!r}\n"
        assert Report.from_dict(json.loads((out / "report.json").read_text())) == report

    @pytest.mark.parametrize("taken", ["report.json", "trajectory.csv"])
    def test_write_failure_stage_tagged(self, tiny_run, tmp_path, taken):
        _, report, artifacts = tiny_run
        (tmp_path / taken).mkdir()
        with pytest.raises(ExperimentError, match=r"^\[emit\] .*" + taken) as exc:
            emit_report(report, tmp_path, artifacts)
        assert exc.value.stage == "emit"

    def test_output_path_taken_by_file(self, tiny_run, tmp_path):
        _, report, artifacts = tiny_run
        (tmp_path / "out").write_text("")
        with pytest.raises(ExperimentError, match=r"^\[emit\] "):
            emit_report(report, tmp_path / "out", artifacts)

    def test_query_export_opt_in(self, tiny_backbone, tmp_path):
        cfg = tiny_config(tmp_path, export_queries=True,
                          output_dir=str(tmp_path / "outq"))
        report, artifacts = run_experiment(cfg, backbone=tiny_backbone)
        emit_report(report, cfg.output_dir, artifacts)
        records = json.loads((tmp_path / "outq" / "queries.json").read_text())
        kinds = {r["kind"] for r in records}
        assert {"ground_truth", "unreconstructed", "reconstructed"} <= kinds


    def test_query_export_bounded_by_eval_batch_size(self, tiny_backbone, tmp_path,
                                                     monkeypatch):
        cfg = tiny_config(tmp_path, export_queries=True, eval_batch_size=5,
                          output_dir=str(tmp_path / "outq"))
        report, artifacts = run_experiment(cfg, backbone=tiny_backbone)
        forward, rows_seen = MultimodalBackbone.forward, []

        def recording(self, x, *args, **kwargs):
            rows_seen.append(x.shape[0])
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(MultimodalBackbone, "forward", recording)
        emit_report(report, cfg.output_dir, artifacts)
        monkeypatch.undo()
        assert rows_seen and max(rows_seen) <= 5
        records = json.loads((tmp_path / "outq" / "queries.json").read_text())

        test = [s for session in artifacts.stream.sessions for s in session.test]
        assert len(test) > 5
        whole = export_query_embeddings(test, artifacts.model.backbone, artifacts.model.memory,
                                        batch_size=len(test))
        assert [(r["id"], r["modality"], r["kind"]) for r in records] == \
            [(r["id"], r["modality"], r["kind"]) for r in whole]
        # float32 sums may round differently at another batch size; the
        # rows are layer-norm outputs of unit scale
        np.testing.assert_allclose([r["embedding"] for r in records],
                                   [r["embedding"] for r in whole], rtol=1e-6, atol=1e-6)
