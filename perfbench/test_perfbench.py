"""Smoke run of the three workload shapes on the tiny test configs.

Runs each workload's set-up, one measured operation untraced and one traced,
on the TINY backbone and synth configs of ``tests/conftest.py``, and checks
the outputs, the per-layer split each workload was chosen for, and that the
tracer puts every original function back.
"""

import importlib.util
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

from rebq import pipeline, runner, tensor  # noqa: E402
from rebq.backbone import PretrainConfig  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402


def _load_test_configs():
    spec = importlib.util.spec_from_file_location("rebq_test_conftest",
                                                  ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TINY, module.TINY_SYNTH


TINY, TINY_SYNTH = _load_test_configs()
TINY_SCALE = W.Scale(backbone=TINY, synth=TINY_SYNTH,
                     pretrain=PretrainConfig(steps=400, batch_size=16, eval_every=50),
                     pretrain_samples_per_class=40, num_classes=4, num_sessions=2,
                     pool_size=8, prompt_len=2)
ONE_OP = 1e-9  # a run length that any single operation exceeds


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def context(request, tmp_path_factory):
    workload = W.WORKLOADS[request.param]
    return W.setup(TINY_SCALE, workload, seed=7, out_dir=tmp_path_factory.mktemp("out"))


def test_untraced_operation_passes_its_checks(context):
    m = W.measure(context, ONE_OP, tracing.NullTracer())
    assert len(m.ops) == 1
    assert m.failures == []
    assert m.samples > 0 and m.seconds > 0
    assert m.digest is not None
    assert math.isfinite(W.train_loss(context, m))
    if context.workload.train:
        assert m.ops[0].steps > 0 and m.ops[0].train_samples > 0
    else:
        assert m.ops[0].steps == 0 and m.ops[0].eval_samples == len(context.first_inputs)


def test_traced_run_separates_layers_and_restores_originals(context):
    originals = (runner.run_experiment, runner.train_task, pipeline.predict_batch,
                 pipeline.generate_queries_batch, tensor.backward, tensor.AdamW.step)
    plain = W.measure(context, ONE_OP, tracing.NullTracer())
    tracer = tracing.Tracer()
    tracing.install_measure(tracer)
    try:
        traced = W.measure(context, ONE_OP, tracer)
    finally:
        tracer.restore()
    assert originals == (runner.run_experiment, runner.train_task, pipeline.predict_batch,
                         pipeline.generate_queries_batch, tensor.backward,
                         tensor.AdamW.step)
    assert traced.failures == []
    assert traced.digest == plain.digest

    metrics = tracing.measure_metrics(tracer, traced.seconds)
    assert metrics["trace.accounted_pct"] == pytest.approx(100.0, abs=1.0)
    assert metrics["pipeline.predict_ms_per_sample"] > 0
    if context.workload.train:
        assert metrics["tensor.adamw_step_ms"] > 0 and metrics["tensor.backward_ms"] > 0
        assert metrics["tensor.adamw_scalars"] > 0
        assert metrics["reconstruct.query_repeat_share"] > 0
        assert metrics["runner.experiments"] == 1
    else:
        assert metrics["tensor.adamw_step_ms"] == 0 and metrics["tensor.backward_ms"] == 0
        assert metrics["reconstruct.query_repeat_share"] == 0
        assert metrics["pipeline.steps"] == 0


def test_failed_check_names_its_stage(context, monkeypatch):
    def invalid_classes(model, samples, batch_size=64):
        return [-1] * len(samples)

    monkeypatch.setattr(pipeline, "predict_batch", invalid_classes)
    m = W.measure(context, ONE_OP, tracing.NullTracer())
    assert [f.stage for f in m.failures] == ["predict"] * len(m.failures)
    assert m.failures


def test_program_error_is_a_failed_operation(context, monkeypatch):
    def broken(*args, **kwargs):
        raise runner.ExperimentError("train", "injected")

    monkeypatch.setattr(runner, "run_experiment", broken)
    monkeypatch.setattr(pipeline, "predict_batch", broken)
    m = W.measure(context, ONE_OP, tracing.NullTracer())
    expected = "train" if context.workload.train else "predict"
    assert [f.stage for f in m.failures] == [expected]


def _nan_loss(report, art):
    art.logs[0].steps[0].total = float("nan")


def _out_of_range_entry(report, art):
    report.matrix[0][0] = 1.5


def _stale_ap(report, art):
    report.ap += 0.5


@pytest.mark.parametrize("context", sorted(n for n, w in W.WORKLOADS.items() if w.train),
                         indirect=True)
@pytest.mark.parametrize("corrupt, stage", [(_nan_loss, "train"),
                                            (_out_of_range_entry, "metrics"),
                                            (_stale_ap, "report")])
def test_corrupted_training_result_fails_its_check(context, monkeypatch, corrupt, stage):
    original = runner.run_experiment

    def corrupted(*args, **kwargs):
        report, art = original(*args, **kwargs)
        corrupt(report, art)
        return report, art

    monkeypatch.setattr(runner, "run_experiment", corrupted)
    m = W.measure(context, ONE_OP, tracing.NullTracer())
    assert stage in {f.stage for f in m.failures}
