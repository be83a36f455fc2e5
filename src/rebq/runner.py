"""Experiment orchestration: config, the continual protocol, and reports.

run_experiment takes the frozen backbone (loaded from its checkpoint when
none is passed), builds the benchmark stream, trains the chosen variant on
sessions 0..T-1 in one call, one session at a time (never revisiting
earlier sessions' training data), and fills the evaluation matrix column
by column; emit_report writes the self-contained report. Everything is
derived from explicit seeds, so identical configs reproduce identical
reports apart from wall-clock timing.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .backbone import BackboneConfig, MultimodalBackbone
from .bench import (MISSING_CASES, CmmlStream, CorpusMeta, SynthConfig, build_stream,
                    load_corpus, synth_generate)
from .metrics import EvalMatrix, average_forgetting, average_performance, performance
from .pipeline import (VARIANT_PRESETS, ModelConfig, OptimizerConfig, RebQModel,
                       TrainingLog, build_variant, predict_batch, train_task)
from .reconstruct import QueryCache, export_query_embeddings


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _at_least(low):
    return lambda v: v >= low, f"be >= {low}"


def _within(low, high):
    return lambda v: low <= v <= high, f"lie in [{low}, {high}]"


def _one_of(choices):
    return lambda v: v in choices, f"be one of {sorted(choices)}"


# (field, the stage that reads it, the test its value must pass, the rule) for
# every field but the nested configs; a field with no test is checked for kind only
_CHECKS = (
    ("backbone_checkpoint", "backbone", None, None),
    ("corpus_path", "benchmark", None, None),
    ("num_classes", "benchmark", *_at_least(2)),
    ("samples_per_class", "benchmark", *_at_least(1)),
    ("num_sessions", "benchmark", *_at_least(1)),
    ("eta", "benchmark", *_within(0, 100)),
    ("missing_case", "benchmark", *_one_of(MISSING_CASES)),
    ("seed_corpus", "benchmark", *_at_least(0)),
    ("seed_split", "benchmark", *_at_least(0)),
    ("seed_mask", "benchmark", *_at_least(0)),
    ("variant", "model", *_one_of(VARIANT_PRESETS)),
    ("pool_size", "model", *_at_least(1)),
    ("memory_pool_size", "model", *_at_least(1)),
    ("prompt_len", "model", *_at_least(1)),
    ("prompted_layers", "model", *_at_least(0)),
    ("lam", "model", *_at_least(0)),
    ("seed_model", "model", *_at_least(0)),
    ("epochs", "train", *_at_least(1)),
    ("batch_size", "train", *_at_least(1)),
    ("eval_batch_size", "train", *_at_least(1)),
    ("lr", "train", *_at_least(0)),
    ("warmup_frac", "train", *_within(0, 1)),
    ("weight_decay", "train", *_at_least(0)),
    ("seed_train", "train", *_at_least(0)),
    ("export_queries", "emit", None, None),
    ("output_dir", "emit", None, None),
)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _or_none(test):
    return lambda v: v is None or test(v)


def _list_of(test):
    return lambda v: isinstance(v, list) and all(test(e) for e in v)


# what a value must be, by its field's annotation: (test, description)
_KINDS = {
    "int": (_integer, "an integer"),
    "float": (_finite_number, "a finite number"),
    "float | None": (_or_none(_finite_number), "a finite number or None"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (_or_none(lambda v: isinstance(v, str)), "a string or None"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
    "list[int]": (_list_of(_integer), "a list of integers"),
    "list[dict]": (_list_of(lambda v: isinstance(v, dict)), "a list of mappings"),
    "list[list[float | None]]": (_list_of(_list_of(_or_none(_finite_number))),
                                 "a list of rows of finite numbers or None"),
}


def _kind_error(name: str, value, annotation: str) -> str | None:
    """Why value does not fit a field annotated annotation, or None when it does."""
    test, kind = _KINDS[annotation]
    return None if test(value) else f"{name} must be {kind}, got {value!r}"


@dataclass
class RunConfig:
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    backbone_checkpoint: str = "backbone.rbqt"
    corpus_path: str | None = None        # when unset, a synthetic corpus is generated
    synth: SynthConfig = field(default_factory=SynthConfig)
    num_classes: int = 20
    samples_per_class: int = 200
    num_sessions: int = 5
    eta: float = 70.0
    missing_case: str = "both-missing"
    pool_size: int = 128
    memory_pool_size: int = 128
    prompt_len: int = 8
    prompted_layers: int = 8
    lam: float = 0.01
    variant: str = "canonical"
    epochs: int = 3
    batch_size: int = 4
    lr: float = 1e-4
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    eval_batch_size: int = 64
    seed_corpus: int = 1
    seed_split: int = 2
    seed_mask: int = 3
    seed_train: int = 4
    seed_model: int = 5
    export_queries: bool = False
    output_dir: str = "runs/run"

    def check(self):
        """Refuse a setting of the wrong kind or out of range before any stage runs.

        A value must have its field's annotated kind: an int field takes an
        int, a real field an int or a finite float (a bool is neither), a
        path a string. The ExperimentError names the field and is tagged with
        the stage that reads it, the stage the value would otherwise fail in.
        """
        kinds = {f.name: f.type for f in dataclasses.fields(self)}
        for name, stage, test, rule in _CHECKS:
            value = getattr(self, name)
            wrong = _kind_error(name, value, kinds[name])
            if wrong:
                raise ExperimentError(stage, wrong)
            if test is not None and not test(value):
                raise ExperimentError(stage, f"{name} must {rule}, got {value!r}")

    def with_root_seed(self, root: int) -> "RunConfig":
        """Derive the five seed streams from one root seed."""
        states = np.random.SeedSequence(root).generate_state(5)
        return dataclasses.replace(
            self, seed_corpus=int(states[0]), seed_split=int(states[1]),
            seed_mask=int(states[2]), seed_train=int(states[3]),
            seed_model=int(states[4]))

    def to_dict(self) -> dict:
        return asdict(self)  # asdict recurses into backbone and synth

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        d = dict(_checked_keys(d, cls, "config"))
        for key, kind in (("backbone", BackboneConfig), ("synth", SynthConfig)):
            if key in d:
                fields = _checked_keys(d[key], kind, f"config key {key}")
                try:
                    d[key] = kind(**fields)
                except (TypeError, ValueError) as exc:  # a value __post_init__ refuses
                    raise ValueError(f"config key {key}: {exc}") from None
        return cls(**d)


def _checked_keys(d, kind, what: str, required: bool = False) -> dict:
    """d when it is a mapping whose keys are fields of the dataclass kind
    (all of them when required); otherwise a ValueError naming what."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    names = {f.name for f in dataclasses.fields(kind)}
    if set(d) - names:
        raise ValueError(f"{what} has unknown keys {sorted(set(d) - names)}")
    if required and names - set(d):
        raise ValueError(f"{what} lacks keys {sorted(names - set(d))}")
    return d


def _checked_fields(d, kind, what: str) -> dict:
    """d when it holds every field of the dataclass kind and nothing else,
    each value of its field's annotated kind; otherwise a ValueError naming
    what and the field."""
    _checked_keys(d, kind, what, required=True)
    for f in dataclasses.fields(kind):
        wrong = _kind_error(f.name, d[f.name], f.type)
        if wrong:
            raise ValueError(f"{what} {wrong}")
    return d


@dataclass
class SessionSummary:
    """One report.per_session entry: a session's classes and training losses."""
    session: int
    classes: list[int]
    steps: int
    mean_total: float
    mean_classification: float
    mean_reconstruction: float
    final_total: float


@dataclass
class Report:
    artifact_version: str
    config: dict
    matrix: list[list[float | None]]
    ap: float
    fg: float | None
    per_session: list[dict]
    timing: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        d = _checked_fields(d, cls, "report")
        sizes = [len(row) for row in d["matrix"]]
        if any(n != len(sizes) for n in sizes):
            raise ValueError(f"report matrix must be square, got rows of lengths {sizes}")
        for i, entry in enumerate(d["per_session"]):
            _checked_fields(entry, SessionSummary, f"report per_session[{i}]")
        return cls(**d)

    def recompute(self) -> tuple[float, float | None]:
        m = EvalMatrix.from_lists(self.matrix)
        ap = average_performance(m)
        fg = average_forgetting(m) if m.t >= 2 else None
        return ap, fg


@dataclass
class RunArtifacts:
    model: RebQModel
    stream: CmmlStream
    backbone: MultimodalBackbone
    logs: list[TrainingLog]
    matrix: EvalMatrix


def _load_backbone(config: RunConfig) -> MultimodalBackbone:
    path = Path(config.backbone_checkpoint)
    if not path.exists():
        raise ExperimentError("backbone", f"checkpoint {path} not found; run pretrain first")
    backbone, meta = MultimodalBackbone.load_checkpoint(path)
    if not meta.get("usable", True):
        raise ExperimentError("backbone", f"checkpoint {path} is flagged unusable "
                                          f"(accuracy {meta.get('accuracy')})")
    return backbone


def _build_corpus(config: RunConfig) -> tuple[CorpusMeta, list]:
    if config.corpus_path:
        return load_corpus(config.corpus_path)
    return synth_generate(config.num_classes, config.samples_per_class,
                          config.synth, config.seed_corpus)


def _session_seed(seed_train: int, session: int) -> int:
    return int(np.random.SeedSequence([seed_train, session]).generate_state(1)[0])


@contextmanager
def _stage(name: str):
    """Re-raise any failure in the block as an ExperimentError tagged name.

    An ExperimentError raised inside keeps its own stage.
    """
    try:
        yield
    except ExperimentError:
        raise
    except Exception as exc:
        raise ExperimentError(name, str(exc)) from exc


def run_experiment(config: RunConfig, backbone: MultimodalBackbone | None = None
                   ) -> tuple[Report, RunArtifacts]:
    started = time.time()
    config.check()
    with _stage("backbone"):
        source = "the passed backbone"
        if backbone is None:
            backbone, source = _load_backbone(config), f"checkpoint {config.backbone_checkpoint}"
        if not backbone.frozen:
            raise ExperimentError("backbone", "backbone must be frozen before fine-tuning")
        # the report records config.backbone, so it must be the backbone every pass uses
        used, stated = asdict(backbone.config), asdict(config.backbone)
        differ = [f"{k} {used[k]!r} (config {stated[k]!r})" for k in used if used[k] != stated[k]]
        if differ:
            raise ExperimentError("backbone", f"{source} differs from the config's backbone "
                                              f"in {', '.join(differ)}")
        backbone_bytes = backbone.parameter_bytes()

    with _stage("benchmark"):
        meta, samples = _build_corpus(config)
        if config.synth.multi_label and not config.corpus_path:
            meta.multi_label = True
        stream = build_stream(meta, samples, config.num_sessions, config.eta,
                              config.missing_case, config.seed_split, config.seed_mask)
        for j, session in enumerate(stream.sessions):
            for split in ("train", "test"):
                if not getattr(session, split):
                    raise ExperimentError("benchmark", f"session {j} has an empty {split} "
                                                       "split; raise samples_per_class")

    with _stage("model"):
        mcfg = ModelConfig(num_classes=meta.num_classes, pool_size=config.pool_size,
                           memory_pool_size=config.memory_pool_size,
                           prompt_len=config.prompt_len,
                           prompted_layers=config.prompted_layers, lam=config.lam,
                           multi_label=meta.multi_label)
        model = build_variant(config.variant, backbone, mcfg, config.seed_model)

    matrix = EvalMatrix(config.num_sessions)
    logs: list[TrainingLog] = []
    per_session: list[dict] = []
    opt_cfg = OptimizerConfig(base_lr=config.lr, warmup_frac=config.warmup_frac,
                              weight_decay=config.weight_decay,
                              batch_size=config.batch_size)
    mode = "f1_macro" if meta.multi_label else "accuracy"
    with _stage("train"):
        # the unified pass depends only on the frozen backbone and the row,
        # so one memo serves every epoch and evaluation of the experiment
        cache = QueryCache(backbone)
        for j in range(config.num_sessions):
            log = train_task(model, stream.train_data(j), config.epochs, opt_cfg,
                             _session_seed(config.seed_train, j), cache=cache)
            logs.append(log)
            if backbone.parameter_bytes() != backbone_bytes:
                raise ExperimentError("freeze", f"backbone changed during session {j}")
            for i in range(j + 1):
                test = stream.test_data(i)
                preds = predict_batch(model, test, config.eval_batch_size, cache=cache)
                truths = [s.label for s in test]
                matrix.set(i, j, performance(preds, truths, mode))
            per_session.append(asdict(SessionSummary(
                session=j,
                classes=stream.spec(j).classes,
                steps=len(log.steps),
                mean_total=log.mean("total"),
                mean_classification=log.mean("classification"),
                mean_reconstruction=log.mean("reconstruction"),
                final_total=log.steps[-1].total,
            )))

    with _stage("metrics"):
        ap = average_performance(matrix)
        fg = average_forgetting(matrix) if config.num_sessions >= 2 else None

    report = Report(
        artifact_version=__version__,
        config=config.to_dict(),
        matrix=matrix.to_lists(),
        ap=ap,
        fg=fg,
        per_session=per_session,
        timing={"wall_clock_s": time.time() - started,
                "started_at": started,
                "threads": T.row_parts()},
    )
    return report, RunArtifacts(model=model, stream=stream, backbone=backbone,
                                logs=logs, matrix=matrix)


# -- report emission ------------------------------------------------------------------------


def report_json_bytes(report: Report) -> bytes:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True).encode()


def emit_report(report: Report, out_dir, artifacts: RunArtifacts | None = None) -> list[str]:
    """Write report.json, matrix.csv, trajectory.csv and optional query export.

    Any failure to write, such as a file path taken by a directory, raises an
    ExperimentError tagged emit.
    """
    out = Path(out_dir)
    written = []
    with _stage("emit"):
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_bytes(report_json_bytes(report))
        written.append(str(report_path))

        matrix = EvalMatrix.from_lists(report.matrix)
        matrix_path = out / "matrix.csv"
        with open(matrix_path, "w") as fh:
            for row in matrix.rows():
                fh.write(",".join(repr(v) for v in row) + "\n")
        written.append(str(matrix_path))

        traj_path = out / "trajectory.csv"
        with open(traj_path, "w") as fh:
            for j in range(matrix.t):
                col = matrix.values[:j + 1, j]
                fh.write(f"{j},{repr(float(col.mean()))}\n")
        written.append(str(traj_path))

        if artifacts is not None and report.config.get("export_queries"):
            test_samples = []
            for i in range(artifacts.stream.num_sessions):
                test_samples.extend(artifacts.stream.sessions[i].test)
            queries_path = out / "queries.json"
            export_query_embeddings(test_samples, artifacts.backbone, artifacts.model.memory,
                                    path=queries_path,
                                    batch_size=report.config["eval_batch_size"])
            written.append(str(queries_path))
    return written
