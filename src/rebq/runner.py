"""Experiment orchestration: config, the continual protocol, and reports.

run_experiment takes the frozen backbone (loaded from its checkpoint when
none is passed), builds the benchmark stream, trains the chosen variant on
sessions 0..T-1 in one call, one session at a time (never revisiting
earlier sessions' training data), and fills the session matrix (the
report's list of lists, rebq.metrics) column by column; emit_report writes
the self-contained report and the CSVs derived from its matrix. Every random
draw comes from one of five streams (corpus, split, mask, training, model)
that RunConfig derives from its one root seed, so identical configs
reproduce identical reports apart from wall-clock timing. Every RunConfig,
SessionSummary and Report field declares its rule next to itself
(rebq.rules).
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
from .bench import MISSING_CASES, CmmlStream, SynthConfig, build_stream, synth_generate
from .metrics import ap_fg, performance
from .pipeline import (VARIANT_PRESETS, ModelConfig, RebQModel, TrainingLog, build_variant,
                       predict_batch, train_task)
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
    synth: SynthConfig = rule(factory=SynthConfig, stage="benchmark")
    num_classes: int = rule(20, low=2, stage="benchmark")
    samples_per_class: int = rule(200, low=1, stage="benchmark")
    num_sessions: int = rule(5, low=1, stage="benchmark")
    eta: float = rule(70.0, low=0, high=100, stage="benchmark")
    missing_case: str = rule("both-missing", choices=MISSING_CASES, stage="benchmark")
    pool_size: int = rule(128, low=1, stage="model")
    memory_pool_size: int = rule(128, low=1, stage="model")
    prompt_len: int = rule(8, low=1, stage="model")
    prompted_layers: int | None = rule(None, low=0, stage="model")  # None: every layer
    lam: float = rule(0.01, low=0, stage="model")
    variant: str = rule("canonical", choices=tuple(VARIANT_PRESETS), stage="model")
    epochs: int = rule(3, low=1, stage="train")
    batch_size: int = rule(4, low=1, stage="train")
    lr: float = rule(1e-4, low=0, stage="train")
    eval_batch_size: int = rule(64, low=1, stage="train")
    seed: int = rule(1, low=0, stage="benchmark")  # root of the seed_* streams below
    export_queries: bool = rule(False, stage="emit")
    output_dir: str = rule("runs/run", stage="emit")

    def check(self):
        """Refuse a value that breaks its field's declared rule before any stage runs.

        The ExperimentError names the field (backbone.* and synth.* by dotted
        path) and carries the stage its top-level field declares as its reader.
        Then a prompted_layers that is set may not exceed backbone.num_layers,
        and the corpus synth describes must fit what the backbone reads.
        """
        for f in dataclasses.fields(self):
            try:
                rules.check_field(self, f)
            except ValueError as exc:
                raise ExperimentError(f.metadata["rule"].stage, str(exc)) from None
        if (self.prompted_layers or 0) > self.backbone.num_layers:
            raise ExperimentError("model", f"prompted_layers {self.prompted_layers} exceeds "
                                           f"backbone.num_layers {self.backbone.num_layers}")
        sy, bb = self.synth, self.backbone
        misfit = [f"{name} {have} (the backbone {rule} {want})" for name, have, rule, want in (
            ("patch_dim", sy.patch_dim, "needs", bb.patch_dim),
            ("num_patches", sy.num_patches, "needs", bb.num_patches),
            ("max_text_len", sy.max_text_len, "reads at most", bb.max_text_len),
            ("vocab_size", sy.vocab_size, "reads at most", bb.text_vocab_size))
            if (have != want if rule == "needs" else have > want)]
        if misfit:
            raise ExperimentError("benchmark", "the corpus does not fit the backbone: "
                                               + ", ".join(misfit))

    def _stream(self, i: int) -> int:
        return int(np.random.SeedSequence(self.seed).generate_state(5)[i])

    # the five seed streams a run draws from, each derived from seed alone
    seed_corpus = property(lambda self: self._stream(0))
    seed_split = property(lambda self: self._stream(1))
    seed_mask = property(lambda self: self._stream(2))
    seed_train = property(lambda self: self._stream(3))
    seed_model = property(lambda self: self._stream(4))

    def with_root_seed(self, root: int) -> "RunConfig":
        return dataclasses.replace(self, seed=root)

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


def _lacking(full: dict, given: dict, prefix: str = "") -> list[str]:
    """The dotted keys of full, nested mappings included, that given lacks."""
    lacking = []
    for key, value in full.items():
        if key not in given:
            lacking.append(prefix + key)
        elif isinstance(value, dict):
            lacking += _lacking(value, given[key], f"{prefix}{key}.")
    return lacking


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
        """A report read from outside, refused unless it agrees with itself:
        every field keeps its rule, the matrix is square with None below the
        diagonal and values in [0, 1] from it on, fg is None exactly for one
        session, config is a whole RunConfig that passes RunConfig.check and
        whose num_sessions is the matrix size, and per_session numbers the
        sessions 0..T-1 in order."""
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
        try:
            config = RunConfig.from_dict(report.config)
            config.check()
        except ValueError as exc:
            raise ValueError(f"report {exc}") from None
        except ExperimentError as exc:
            raise ValueError(f"report config.{exc.cause}") from None
        lacking = sorted(_lacking(config.to_dict(), report.config))
        if lacking:
            raise ValueError(f"report config lacks keys {lacking}")
        if config.num_sessions != len(sizes):
            raise ValueError(f"report config.num_sessions is {config.num_sessions}, "
                             f"but the matrix has {len(sizes)} sessions")
        numbers = [entry["session"] for entry in report.per_session]
        if numbers != list(range(len(sizes))):
            raise ValueError(f"report per_session must number the sessions "
                             f"{list(range(len(sizes)))} in order, got {numbers}")
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
        meta, samples = synth_generate(config.num_classes, config.samples_per_class,
                                       config.synth, config.seed_corpus)
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
    mode = "f1_macro" if meta.multi_label else "accuracy"
    with _stage("train"):
        # the unified pass depends only on the frozen backbone and the row,
        # so one memo serves every epoch and evaluation of the experiment
        cache = QueryCache(backbone)
        for j in range(t):
            log = train_task(model, stream.train_data(j), config.epochs, config.batch_size,
                             config.lr, _session_seed(config.seed_train, j), cache=cache)
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
