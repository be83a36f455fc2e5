"""Workloads of the benchmark: inputs from a seed, timed calls, output checks.

Every workload uses the program only through its public entry points:
``pretrain``, ``synth_generate``/``build_stream``, ``build_variant``,
``run_experiment`` + ``emit_report`` and ``predict_batch``. They are called
through their modules so that a traced run's wrappers see the calls.

Set-up is the work before the first measured call: pretraining the default
backbone from a fixed seed, then generating and masking the corpus of the
run's first operation and building its model. ``run_experiment`` rebuilds
its own corpus, stream and model inside the measured call; that costs
milliseconds against seconds of training.

One measured operation is one whole continual experiment (training
workloads) or one ``predict_batch`` call over a freshly generated masked set
(evaluation workload). Operations repeat, each from a root seed derived
from the run's seed, until their summed time reaches the slice of the run
length being measured. Each is checked after it returns, outside the timed
interval; a failed check is a failed operation that names its stage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rebq import backbone, bench, pipeline, runner
from rebq.backbone import BackboneConfig, PretrainConfig
from rebq.bench import SynthConfig
from rebq.metrics import performance

# a run is measured in this many slices, each running at least one operation
SLICES = 3

# the pretraining seed of the default RunConfig (seed_corpus=1), as the CLI derives it
PRETRAIN_SEED = int(np.random.SeedSequence([1, 97]).generate_state(1)[0])


@dataclass(frozen=True)
class Scale:
    """Model and corpus sizes shared by every workload."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    pretrain_samples_per_class: int = 100
    num_classes: int = 20
    num_sessions: int = 5
    pool_size: int = 128
    prompt_len: int = 8


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    batch_size: int   # training batch, or the predict_batch batch when not training
    eta: float
    samples_per_class: int
    epochs: int = 2

    def config(self, scale: Scale, root_seed: int) -> runner.RunConfig:
        cfg = runner.RunConfig(
            backbone=scale.backbone, synth=scale.synth, num_classes=scale.num_classes,
            samples_per_class=self.samples_per_class, num_sessions=scale.num_sessions,
            eta=self.eta, missing_case="both-missing", pool_size=scale.pool_size,
            memory_pool_size=scale.pool_size, prompt_len=scale.prompt_len,
            epochs=self.epochs, batch_size=self.batch_size,
            output_dir=f"perfbench/{self.name}")
        return cfg.with_root_seed(root_seed)


# Why these three: the canonical batch-4, eta=70 run spends about a third of a
# step in AdamW over the pools, so optimizer changes show there; at batch 32
# with every sample complete the unified and reconstruction passes cover 3B
# and 2B rows per step and the backbone dominates, so optimizer changes should
# not move it; evaluation has no backward, no AdamW and no repeated inputs,
# so it is the bypass for both.
WORKLOADS = {w.name: w for w in (
    Workload("train-b4-eta70", train=True, batch_size=4, eta=70.0, samples_per_class=5),
    Workload("train-b32-eta0", train=True, batch_size=32, eta=0.0, samples_per_class=10),
    Workload("eval-eta70", train=False, batch_size=64, eta=70.0, samples_per_class=16),
)}


def root_seed(seed: int, op: int) -> int:
    """Root seed of operation ``op``; operation 0 runs from the run's seed itself."""
    if op == 0:
        return seed
    return int(np.random.SeedSequence([seed, op]).generate_state(1)[0])


@dataclass
class Context:
    scale: Scale
    workload: Workload
    seed: int
    out_dir: Path
    backbone: backbone.MultimodalBackbone
    pretrain_losses: list[float]
    model: pipeline.RebQModel
    first_inputs: list[bench.Sample]


@dataclass
class Failure:
    op: int
    stage: str
    detail: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class OpResult:
    seconds: float = 0.0
    samples: int = 0
    train_samples: int = 0
    eval_samples: int = 0
    steps: int = 0
    losses: list[float] = field(default_factory=list)
    digest: str | None = None
    failures: list[Failure] = field(default_factory=list)


def _masked_inputs(cfg: runner.RunConfig, op: int):
    """The corpus of ``cfg`` split and masked; sample ids are unique to ``op``."""
    meta, samples = bench.synth_generate(cfg.num_classes, cfg.samples_per_class, cfg.synth,
                                         cfg.seed_corpus, id_prefix=f"op{op}.")
    stream = bench.build_stream(meta, samples, cfg.num_sessions, cfg.eta, cfg.missing_case,
                                cfg.seed_split, cfg.seed_mask)
    return meta, [s for session in stream.sessions for s in session.train + session.test]


def setup(scale: Scale, workload: Workload, seed: int, out_dir: Path) -> Context:
    corpus = bench.synth_generate(scale.backbone.pretrain_classes,
                                  scale.pretrain_samples_per_class, scale.synth,
                                  seed=PRETRAIN_SEED, id_prefix="p")
    frozen, report = backbone.pretrain(scale.backbone, corpus, seed=PRETRAIN_SEED,
                                       pcfg=scale.pretrain)
    if not report.usable:
        raise RuntimeError(f"[setup] pretrained backbone unusable (accuracy {report.accuracy})")
    cfg = workload.config(scale, seed)
    meta, inputs = _masked_inputs(cfg, 0)
    mcfg = pipeline.ModelConfig(num_classes=meta.num_classes, pool_size=cfg.pool_size,
                                memory_pool_size=cfg.memory_pool_size,
                                prompt_len=cfg.prompt_len,
                                prompted_layers=cfg.prompted_layers, lam=cfg.lam)
    model = pipeline.build_variant(cfg.variant, frozen, mcfg, cfg.seed_model)
    return Context(scale, workload, seed, out_dir, frozen, report.losses, model, inputs)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _invalid_predictions(preds: list, num_classes: int) -> int:
    return sum(1 for p in preds
               if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < num_classes)


def _train_op(ctx: Context, op: int, tracer) -> OpResult:
    cfg = ctx.workload.config(ctx.scale, root_seed(ctx.seed, op))
    res = OpResult()
    tracer.new_repeat_scope()
    start = time.perf_counter()
    try:
        report, art = runner.run_experiment(cfg, backbone=ctx.backbone)
        runner.emit_report(report, ctx.out_dir / ctx.workload.name, art)
    except Exception as exc:
        res.seconds = time.perf_counter() - start
        stage = getattr(exc, "stage", "run_experiment")
        res.failures.append(Failure(op, stage, traceback.format_exc()))
        return res
    res.seconds = time.perf_counter() - start

    def fail(stage: str, detail: str):
        res.failures.append(Failure(op, stage, detail))

    t = cfg.num_sessions
    sessions = art.stream.sessions
    res.train_samples = sum(len(s.train) for s in sessions) * cfg.epochs
    res.eval_samples = sum(len(sessions[i].test) for j in range(t) for i in range(j + 1))
    res.samples = res.train_samples + res.eval_samples
    steps = [s for log in art.logs for s in log.steps]
    res.steps = len(steps)
    res.losses = [s.total for s in steps]

    if not steps or not all(math.isfinite(v) for s in steps
                            for v in (s.total, s.classification, s.reconstruction)):
        fail("train", "missing or non-finite step loss")
    for i, row in enumerate(report.matrix):
        for j, v in enumerate(row):
            if j < i and v is not None:
                fail("metrics", f"matrix entry ({i}, {j}) below the diagonal is set")
            if j >= i and (v is None or not 0.0 <= v <= 1.0):
                fail("metrics", f"matrix entry ({i}, {j}) is {v}, not in [0, 1]")
    if res.failures:
        return res
    if report.recompute() != (report.ap, report.fg):
        fail("report", f"recomputed AP/FG {report.recompute()} != {(report.ap, report.fg)}")
    with tracer.paused():
        for i in range(t):
            test = sessions[i].test
            preds = pipeline.predict_batch(art.model, test, cfg.eval_batch_size)
            bad = _invalid_predictions(preds, art.model.mcfg.num_classes)
            if bad:
                fail("predict", f"session {i}: {bad} predictions are not a valid class")
            elif performance(preds, [s.label for s in test], "accuracy") != report.matrix[i][t - 1]:
                fail("predict", f"session {i}: final predictions disagree with the matrix")
    if op == 0:
        res.digest = _digest({k: v for k, v in report.to_dict().items() if k != "timing"})
    return res


def _eval_op(ctx: Context, op: int, tracer) -> OpResult:
    if op == 0:
        inputs = ctx.first_inputs
    else:
        _, inputs = _masked_inputs(ctx.workload.config(ctx.scale, root_seed(ctx.seed, op)), op)
    res = OpResult()
    start = time.perf_counter()
    try:
        preds = pipeline.predict_batch(ctx.model, inputs, ctx.workload.batch_size)
    except Exception as exc:
        res.seconds = time.perf_counter() - start
        res.failures.append(Failure(op, "predict", traceback.format_exc()))
        return res
    res.seconds = time.perf_counter() - start
    res.samples = res.eval_samples = len(inputs)
    if len(preds) != len(inputs):
        res.failures.append(Failure(op, "predict", f"{len(preds)} predictions for "
                                                   f"{len(inputs)} samples"))
    bad = _invalid_predictions(preds, ctx.model.mcfg.num_classes)
    if bad:
        res.failures.append(Failure(op, "predict", f"{bad} predictions are not a valid class"))
    if op == 0:
        res.digest = _digest(preds)
    return res


@dataclass
class Measurement:
    ops: list[OpResult] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.ops)

    @property
    def samples(self) -> int:
        return sum(o.samples for o in self.ops)

    @property
    def failures(self) -> list[Failure]:
        return [f for o in self.ops for f in o.failures]

    @property
    def digest(self) -> str | None:
        return self.ops[0].digest


def measure(ctx: Context, seconds: float, tracer, first_op: int = 0,
            max_ops: int | None = None) -> Measurement:
    """Run operations ``first_op, first_op + 1, ...`` until their summed time
    reaches ``seconds`` or ``max_ops`` have run."""
    run_op = _train_op if ctx.workload.train else _eval_op
    m = Measurement()
    busy = 0.0
    while busy < seconds and (max_ops is None or len(m.ops) < max_ops):
        m.ops.append(run_op(ctx, first_op + len(m.ops), tracer))
        busy += m.ops[-1].seconds
    return m


def train_loss(ctx: Context, m: Measurement) -> float:
    """Mean total loss over every step of the run's first ``SLICES`` operations.

    Every slice runs at least one operation and operation seeds derive from
    the run's seed alone, so the value repeats exactly for a seed however
    many operations fit in the run. The evaluation workload trains nothing;
    it reports the mean loss of pretraining its backbone, which exercises the
    same tensor arithmetic.
    """
    if not ctx.workload.train:
        return float(np.mean(ctx.pretrain_losses))
    return float(np.mean([v for o in m.ops[:SLICES] for v in o.losses]))
