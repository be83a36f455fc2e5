import copy
import dataclasses
import json

import numpy as np
import pytest

from rebq import runner
from rebq import tensor as T
from rebq.backbone import MultimodalBackbone
from rebq.metrics import EvalMatrix
from rebq.reconstruct import export_query_embeddings
from rebq.runner import (ExperimentError, ExperimentState, Report, RunConfig,
                         emit_report, report_json_bytes, run_experiment)

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
    import dataclasses
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
        _, report, artifacts = tiny_run
        t = artifacts.matrix.t
        assert t == 2
        filled = sum(1 for i in range(t) for j in range(i, t)
                     if not np.isnan(artifacts.matrix.values[i, j]))
        assert filled == t * (t + 1) // 2

    def test_protocol_isolation(self, tiny_run):
        _, _, artifacts = tiny_run
        train_reads = [s for kind, s in artifacts.stream.access_log if kind == "train"]
        assert train_reads == sorted(train_reads), "training data revisited out of order"
        assert len(train_reads) == len(set(train_reads)), "a session was retrained"

    def test_backbone_unchanged(self, tiny_run, tiny_backbone):
        _, report, artifacts = tiny_run
        assert artifacts.backbone is tiny_backbone
        # run_experiment asserts byte-stability internally; re-verify here
        assert artifacts.backbone.frozen

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
        ("lam", -5.0, "model"), ("lam", "x", "model"), ("epochs", 0, "train")])
    def test_out_of_range_refused_before_any_stage(self, tmp_path, field, value, stage):
        # the checkpoint is missing, so any stage that ran would fail first
        cfg = tiny_config(tmp_path, **{field: value})
        with pytest.raises(ExperimentError) as exc:
            run_experiment(cfg)
        assert exc.value.stage == stage
        assert exc.value.cause.startswith(f"{field} must ")
        assert repr(value) in exc.value.cause

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


class TestEmit:
    def test_emit_files_and_shapes(self, tiny_run, tmp_path):
        cfg, report, artifacts = tiny_run
        out = tmp_path / "emit"
        files = emit_report(report, out, artifacts)
        names = {f.split("/")[-1] for f in files}
        assert names == {"report.json", "matrix.csv", "trajectory.csv"}

        matrix_rows = (out / "matrix.csv").read_text().splitlines()
        assert len(matrix_rows) == 2
        assert len(matrix_rows[0].split(",")) == 2
        assert len(matrix_rows[1].split(",")) == 1

        traj_rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(traj_rows) == 2

        loaded = json.loads((out / "report.json").read_text())
        m = EvalMatrix.from_lists(loaded["matrix"])
        assert m.complete

    def test_query_export_opt_in(self, tiny_backbone, tmp_path):
        cfg = tiny_config(tmp_path, export_queries=True,
                          output_dir=str(tmp_path / "outq"))
        report, artifacts = run_experiment(cfg, backbone=tiny_backbone)
        files = emit_report(report, cfg.output_dir, artifacts)
        assert any(f.endswith("queries.json") for f in files)
        records = json.loads((tmp_path / "outq" / "queries.json").read_text())
        kinds = {r["kind"] for r in records}
        assert {"ground_truth", "unreconstructed", "reconstructed"} <= kinds


    def test_query_export_bounded_by_eval_batch_size(self, tiny_backbone, tmp_path,
                                                     monkeypatch):
        cfg = tiny_config(tmp_path, export_queries=True, eval_batch_size=5,
                          output_dir=str(tmp_path / "outq"))
        report, artifacts = run_experiment(cfg, backbone=tiny_backbone)
        forward, rows_seen = MultimodalBackbone.forward, []

        def recording(self, segments, *args, **kwargs):
            rows_seen.append(segments[0].shape[0])
            return forward(self, segments, *args, **kwargs)

        monkeypatch.setattr(MultimodalBackbone, "forward", recording)
        emit_report(report, cfg.output_dir, artifacts)
        monkeypatch.undo()
        assert rows_seen and max(rows_seen) <= 5
        records = json.loads((tmp_path / "outq" / "queries.json").read_text())

        test = [s for session in artifacts.stream.sessions for s in session.test]
        assert len(test) > 5
        whole = export_query_embeddings(test, artifacts.backbone, artifacts.model.memory,
                                        batch_size=len(test))
        assert [(r["id"], r["modality"], r["kind"]) for r in records] == \
            [(r["id"], r["modality"], r["kind"]) for r in whole]
        # float32 sums may round differently at another batch size; the
        # rows are layer-norm outputs of unit scale
        np.testing.assert_allclose([r["embedding"] for r in records],
                                   [r["embedding"] for r in whole], rtol=1e-6, atol=1e-6)


@pytest.fixture(scope="module")
def resumable(tiny_backbone, tmp_path_factory):
    """A config and the experiment checkpoint written after its first session."""
    tmp = tmp_path_factory.mktemp("resume")
    cfg = tiny_config(tmp, num_sessions=2, samples_per_class=12)
    states = []
    orig_save = ExperimentState.save
    ExperimentState.save = lambda self, path: states.append(copy.deepcopy(self))
    try:
        run_experiment(cfg, backbone=tiny_backbone, checkpoint_path=str(tmp / "s.rbqt"))
    finally:
        ExperimentState.save = orig_save
    return cfg, states[0]


class TestResume:
    def test_final_checkpoint_resume_is_noop_with_same_report(self, tiny_backbone,
                                                              tmp_path):
        cfg = tiny_config(tmp_path, num_sessions=3, samples_per_class=12)
        straight, _ = run_experiment(cfg, backbone=tiny_backbone)

        ckpt = tmp_path / "state.rbqt"
        run_experiment(cfg, backbone=tiny_backbone, checkpoint_path=str(ckpt))
        state = ExperimentState.load(ckpt)
        assert state.next_session == 3  # checkpoint advanced to the end
        resumed, _ = run_experiment(cfg, backbone=tiny_backbone, resume_state=state)
        assert strip_timing(report_json_bytes(resumed)) == \
            strip_timing(report_json_bytes(straight))

    def test_mid_stream_resume(self, tiny_backbone, tmp_path):
        cfg = tiny_config(tmp_path, num_sessions=2, samples_per_class=12)
        straight, _ = run_experiment(cfg, backbone=tiny_backbone)

        # capture the snapshot written after session 1, then resume from it
        ckpt = tmp_path / "s.rbqt"
        saved_states = []
        orig_save = ExperimentState.save

        def capture_save(self, path):
            saved_states.append(copy.deepcopy(self))
            orig_save(self, path)

        ExperimentState.save = capture_save
        try:
            run_experiment(cfg, backbone=tiny_backbone, checkpoint_path=str(ckpt))
        finally:
            ExperimentState.save = orig_save

        mid = saved_states[0]
        assert mid.next_session == 1
        resumed, _ = run_experiment(cfg, backbone=tiny_backbone, resume_state=mid)
        assert strip_timing(report_json_bytes(resumed)) == \
            strip_timing(report_json_bytes(straight))

    def test_state_round_trip(self, tiny_backbone, tmp_path):
        cfg = tiny_config(tmp_path)
        ckpt = tmp_path / "rt.rbqt"
        _, artifacts = run_experiment(cfg, backbone=tiny_backbone,
                                      checkpoint_path=str(ckpt))
        state = ExperimentState.load(ckpt)
        named = artifacts.model.named_parameters()
        assert set(state.params) == set(named)
        for k, t in named.items():
            assert state.params[k].dtype == np.float64
            assert state.params[k].astype(t.data.dtype).tobytes() == t.data.tobytes()

    def test_state_keeps_backbone_fingerprint(self, resumable, tiny_backbone, tmp_path):
        _, state = resumable
        assert state.backbone_sha256 == runner.backbone_fingerprint(tiny_backbone)
        state.save(tmp_path / "fp.rbqt")
        assert ExperimentState.load(tmp_path / "fp.rbqt").backbone_sha256 == \
            state.backbone_sha256

    def test_changed_config_refused_naming_keys(self, resumable, tiny_backbone, tmp_path):
        cfg, state = resumable
        changed = dataclasses.replace(cfg, lr=cfg.lr * 2, output_dir=str(tmp_path / "other"),
                                      backbone=dataclasses.replace(cfg.backbone,
                                                                   activation="gelu"))
        with pytest.raises(ExperimentError, match="resume") as err:
            run_experiment(changed, backbone=tiny_backbone,
                           resume_state=copy.deepcopy(state))
        assert err.value.stage == "resume"
        assert "'lr'" in err.value.cause and "'backbone.activation'" in err.value.cause
        assert "output_dir" not in err.value.cause

    def test_other_output_dir_resumes(self, resumable, tiny_backbone, tmp_path):
        cfg, state = resumable
        moved = dataclasses.replace(cfg, output_dir=str(tmp_path / "moved"))
        report, _ = run_experiment(moved, backbone=tiny_backbone,
                                   resume_state=copy.deepcopy(state))
        assert EvalMatrix.from_lists(report.matrix).complete

    def test_other_backbone_refused(self, resumable, tiny_backbone):
        cfg, state = resumable
        other = copy.deepcopy(tiny_backbone)
        other.params["lnf_b"].data[0] += 1.0
        with pytest.raises(ExperimentError, match="another backbone") as err:
            run_experiment(cfg, backbone=other, resume_state=copy.deepcopy(state))
        assert err.value.stage == "resume"

    def test_checkpoint_without_fingerprint_refused(self, resumable, tiny_backbone,
                                                    tmp_path):
        cfg, state = resumable
        old = dataclasses.replace(copy.deepcopy(state), backbone_sha256=None)
        old.save(tmp_path / "old.rbqt")
        with pytest.raises(ExperimentError, match="no backbone fingerprint") as err:
            run_experiment(cfg, backbone=tiny_backbone,
                           resume_state=ExperimentState.load(tmp_path / "old.rbqt"))
        assert err.value.stage == "resume"
