"""Experiment orchestration: config, the continual protocol, and reports.

run_experiment takes the frozen backbone (loaded from its checkpoint when
none is passed), builds the benchmark stream, trains the chosen variant on
sessions 0..T-1 in one call, one session at a time (never revisiting
earlier sessions' training data), and fills the session matrix (the
report's list of lists, rebq.metrics) column by column; emit_report writes
the self-contained report and the CSVs derived from its matrix. Everything is
derived from explicit seeds, so identical configs reproduce identical
reports apart from wall-clock timing. Every RunConfig, SessionSummary and
Report field declares its rule next to itself (rebq.rules).
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, rules
from . import tensor as T
from .backbone import BackboneConfig, MultimodalBackbone
from .bench import (MISSING_CASES, CmmlStream, CorpusMeta, SynthConfig, build_stream,
                    load_corpus, synth_generate)
from .metrics import ap_fg, performance
from .pipeline import (VARIANT_PRESETS, ModelConfig, OptimizerConfig, RebQModel,
                       TrainingLog, build_variant, predict_batch, train_task)
from .reconstruct import QueryCache, export_query_embeddings
from .rules import rule


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunConfig:
    backbone: BackboneConfig = rule(factory=BackboneConfig, stage="backbone")
    backbone_checkpoint: str = rule("backbone.rbqt", stage="backbone")
    # None: a synthetic corpus, the only one samples_per_class, seed_corpus and
    # synth's generation fields shape; a corpus file's header must agree with
    # num_classes and synth.multi_label
    corpus_path: str | None = rule(None, stage="benchmark")
    synth: SynthConfig = rule(factory=SynthConfig, stage="benchmark")
    num_classes: int = rule(20, low=2, stage="benchmark")
    samples_per_class: int = rule(200, low=1, stage="benchmark")
    num_sessions: int = rule(5, low=1, stage="benchmark")
    eta: float = rule(70.0, low=0, high=100, stage="benchmark")
    missing_case: str = rule("both-missing", choices=MISSING_CASES, stage="benchmark")
    pool_size: int = rule(128, low=1, stage="model")
    memory_pool_size: int = rule(128, low=1, stage="model")
    prompt_len: int = rule(8, low=1, stage="model")
    prompted_layers: int = rule(8, low=0, stage="model")
    lam: float = rule(0.01, low=0, stage="model")
    variant: str = rule("canonical", choices=tuple(VARIANT_PRESETS), stage="model")
    epochs: int = rule(3, low=1, stage="train")
    batch_size: int = rule(4, low=1, stage="train")
    lr: float = rule(1e-4, low=0, stage="train")
    warmup_frac: float = rule(0.1, low=0, high=1, stage="train")
    weight_decay: float = rule(0.01, low=0, stage="train")
    eval_batch_size: int = rule(64, low=1, stage="train")
    seed_corpus: int = rule(1, low=0, stage="benchmark")
    seed_split: int = rule(2, low=0, stage="benchmark")
    seed_mask: int = rule(3, low=0, stage="benchmark")
    seed_train: int = rule(4, low=0, stage="train")
    seed_model: int = rule(5, low=0, stage="model")
    export_queries: bool = rule(False, stage="emit")
    output_dir: str = rule("runs/run", stage="emit")

    def check(self):
        """Refuse a value that breaks its field's declared rule before any stage runs.

        The ExperimentError names the field (backbone.* and synth.* by dotted
        path) and carries the stage its top-level field declares as its reader.
        """
        for f in dataclasses.fields(self):
            try:
                rules.check_field(self, f)
            except ValueError as exc:
                raise ExperimentError(f.metadata["rule"].stage, str(exc)) from None

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
        d = dict(rules.mapping(d, cls, "config"))
        for key, kind in (("backbone", BackboneConfig), ("synth", SynthConfig)):
            if key in d:
                fields = rules.mapping(d[key], kind, f"config key {key}")
                try:
                    d[key] = kind(**fields)
                except ValueError as exc:  # a value __post_init__ refuses
                    raise ValueError(f"config key {key}: {exc}") from None
        return cls(**d)


@dataclass
class SessionSummary:
    """One report.per_session entry: a session's classes and training losses."""
    session: int = rule(low=0)
    classes: list[int] = rule(low=1)
    steps: int = rule(low=1)
    mean_total: float = rule()
    mean_classification: float = rule()
    mean_reconstruction: float = rule()
    final_total: float = rule()


@dataclass
class Report:
    artifact_version: str = rule()
    config: dict = rule()
    matrix: list[list[float | None]] = rule(low=1)
    ap: float = rule()
    fg: float | None = rule()
    per_session: list[dict] = rule()
    timing: dict = rule()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        report = cls(**rules.mapping(d, cls, "report"))
        rules.check(report, "report ")
        sizes = [len(row) for row in report.matrix]
        if any(n != len(sizes) for n in sizes):
            raise ValueError(f"report matrix must be square, got rows of lengths {sizes}")
        if (report.fg is None) != (len(sizes) < 2):
            need = "None" if len(sizes) < 2 else "a finite number"
            raise ValueError(f"report fg must be {need} for a {len(sizes)}-session matrix, "
                             f"got {report.fg!r}")
        for i, row in enumerate(report.matrix):
            for j, v in enumerate(row):
                if (v is not None) if j < i else (v is None or not 0.0 <= v <= 1.0):
                    need = "None below the diagonal" if j < i else "in [0, 1] from the diagonal on"
                    raise ValueError(f"report matrix[{i}][{j}] must be {need}, got {v!r}")
        for i, entry in enumerate(report.per_session):
            what = f"report per_session[{i}]"
            rules.check(SessionSummary(**rules.mapping(entry, SessionSummary, what)), what + " ")
        return report

    def recompute(self) -> tuple[float, float | None]:
        return ap_fg(self.matrix)


@dataclass
class RunArtifacts:
    """What a run built besides its report: the trained model (whose backbone
    is the frozen one every pass used), the stream with its access log, and
    each session's training log. The session matrix is report.matrix."""
    model: RebQModel
    stream: CmmlStream
    logs: list[TrainingLog]


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
        differ = [f"{name} {have} (config {want})" for name, have, want in (
            ("num_classes", meta.num_classes, config.num_classes),
            ("multi_label", meta.multi_label, config.synth.multi_label)) if have != want]
        if differ:
            raise ExperimentError("benchmark", f"corpus {config.corpus_path} differs from "
                                               f"the config in {', '.join(differ)}")
        bb = config.backbone
        misfit = [f"{name} {have} (the backbone {rule} {want})" for name, have, rule, want in (
            ("patch_dim", meta.patch_dim, "needs", bb.patch_dim),
            ("num_patches", meta.num_patches, "needs", bb.num_patches),
            ("max_text_len", meta.max_text_len, "reads at most", bb.max_text_len),
            ("vocab_size", meta.vocab_size, "reads at most", bb.text_vocab_size))
            if (have != want if rule == "needs" else have > want)]
        if misfit:
            raise ExperimentError("benchmark", "the corpus does not fit the backbone: "
                                               + ", ".join(misfit))
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

    t = config.num_sessions
    matrix: list[list[float | None]] = [[None] * t for _ in range(t)]
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
        for j in range(t):
            log = train_task(model, stream.train_data(j), config.epochs, opt_cfg,
                             _session_seed(config.seed_train, j), cache=cache)
            logs.append(log)
            if backbone.parameter_bytes() != backbone_bytes:
                raise ExperimentError("freeze", f"backbone changed during session {j}")
            for i in range(j + 1):
                test = stream.test_data(i)
                preds = predict_batch(model, test, config.eval_batch_size, cache=cache)
                truths = [s.label for s in test]
                matrix[i][j] = performance(preds, truths, mode)
            per_session.append(asdict(SessionSummary(
                session=j,
                classes=stream.sessions[j].classes,
                steps=len(log.steps),
                mean_total=log.mean("total"),
                mean_classification=log.mean("classification"),
                mean_reconstruction=log.mean("reconstruction"),
                final_total=log.steps[-1].total,
            )))

    with _stage("metrics"):
        ap, fg = ap_fg(matrix)

    report = Report(
        artifact_version=__version__,
        config=config.to_dict(),
        matrix=matrix,
        ap=ap,
        fg=fg,
        per_session=per_session,
        timing={"wall_clock_s": time.time() - started,
                "started_at": started,
                "threads": T.row_parts()},
    )
    return report, RunArtifacts(model=model, stream=stream, logs=logs)


# -- report emission ------------------------------------------------------------------------


def report_json_bytes(report: Report) -> bytes:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True).encode()


def emit_report(report: Report, out_dir, artifacts: RunArtifacts | None = None) -> None:
    """Write report.json, and from report.matrix matrix.csv (row i holds
    a[i][i..T-1]) and trajectory.csv (j, the mean of column j over sessions
    0..j); with artifacts and the config's export_queries, queries.json too.

    Any failure to write, such as a file path taken by a directory, raises an
    ExperimentError tagged emit.
    """
    out = Path(out_dir)
    with _stage("emit"):
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(report_json_bytes(report))
        matrix = report.matrix
        with open(out / "matrix.csv", "w") as fh:
            for i, row in enumerate(matrix):
                fh.write(",".join(repr(float(v)) for v in row[i:]) + "\n")
        with open(out / "trajectory.csv", "w") as fh:
            for j in range(len(matrix)):
                fh.write(f"{j},{float(np.mean([row[j] for row in matrix[:j + 1]]))!r}\n")
        if artifacts is not None and report.config.get("export_queries"):
            test_samples = [s for session in artifacts.stream.sessions for s in session.test]
            export_query_embeddings(test_samples, artifacts.model.backbone,
                                    artifacts.model.memory, path=out / "queries.json",
                                    batch_size=report.config["eval_batch_size"])
