"""Experiment orchestration: config, the continual protocol, and reports.

run_experiment builds the benchmark stream, trains the chosen variant one
session at a time (never revisiting earlier sessions' training data), fills
the evaluation matrix column by column, and emits a self-contained report.
Everything is derived from explicit seeds, so identical configs reproduce
identical reports apart from wall-clock timing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, serialize
from . import tensor as T
from .backbone import BackboneConfig, MultimodalBackbone
from .bench import (CmmlStream, CorpusMeta, SynthConfig, build_stream, load_corpus,
                    synth_generate)
from .metrics import EvalMatrix, average_forgetting, average_performance, performance
from .pipeline import (ModelConfig, OptimizerConfig, RebQModel, TrainingLog,
                       VariantSpec, build_variant, predict_batch, train_task,
                       variant_from_name)
from .reconstruct import QueryCache, export_query_embeddings


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


# (field, the stage that reads it, the test its value must pass, the rule)
_RANGES = (
    ("eta", "benchmark", lambda v: 0 <= v <= 100, "lie in [0, 100]"),
    ("pool_size", "model", lambda v: v >= 1, "be >= 1"),
    ("memory_pool_size", "model", lambda v: v >= 1, "be >= 1"),
    ("prompt_len", "model", lambda v: v >= 1, "be >= 1"),
    ("prompted_layers", "model", lambda v: v >= 0, "be >= 0"),
    ("lam", "model", lambda v: v >= 0, "be >= 0"),
    ("epochs", "train", lambda v: v >= 1, "be >= 1"),
    ("batch_size", "train", lambda v: v >= 1, "be >= 1"),
    ("eval_batch_size", "train", lambda v: v >= 1, "be >= 1"),
)


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
        """Refuse an out-of-range setting before any stage runs.

        The ExperimentError names the field and is tagged with the stage
        that reads it, the stage the value would otherwise fail in.
        """
        for name, stage, test, rule in _RANGES:
            value = getattr(self, name)
            try:
                ok = bool(test(value))
            except TypeError:  # a value of the wrong kind, e.g. from --set
                ok = False
            if not ok:
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
                d[key] = kind(**_checked_keys(d[key], kind, f"config key {key}"))
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
        return cls(**_checked_keys(d, cls, "report", required=True))

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


def _variant_spec(config: RunConfig) -> VariantSpec:
    return variant_from_name(config.variant)


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


def run_experiment(config: RunConfig, backbone: MultimodalBackbone | None = None,
                   resume_state: "ExperimentState | None" = None,
                   checkpoint_path: str | None = None) -> tuple[Report, RunArtifacts]:
    started = time.time()
    config.check()
    with _stage("backbone"):
        if backbone is None:
            backbone = _load_backbone(config)
        if not backbone.frozen:
            raise ExperimentError("backbone", "backbone must be frozen before fine-tuning")
        backbone_bytes = backbone.parameter_bytes()

    with _stage("benchmark"):
        meta, samples = _build_corpus(config)
        if config.synth.multi_label and not config.corpus_path:
            meta.multi_label = True
        stream = build_stream(meta, samples, config.num_sessions, config.eta,
                              config.missing_case, config.seed_split, config.seed_mask)

    with _stage("model"):
        mcfg = ModelConfig(num_classes=meta.num_classes, pool_size=config.pool_size,
                           memory_pool_size=config.memory_pool_size,
                           prompt_len=config.prompt_len,
                           prompted_layers=config.prompted_layers, lam=config.lam,
                           multi_label=meta.multi_label)
        model = build_variant(_variant_spec(config), backbone, mcfg, config.seed_model)

    matrix = EvalMatrix(config.num_sessions)
    logs: list[TrainingLog] = []
    per_session: list[dict] = []
    start_session = 0
    if resume_state is not None:
        with _stage("resume"):
            resume_state.check_matches(config, backbone)
            resume_state.restore_into(model, matrix)
        per_session = list(resume_state.per_session)
        start_session = resume_state.next_session

    opt_cfg = OptimizerConfig(base_lr=config.lr, warmup_frac=config.warmup_frac,
                              weight_decay=config.weight_decay,
                              batch_size=config.batch_size)
    mode = "f1_macro" if meta.multi_label else "accuracy"
    with _stage("train"):
        # the unified pass depends only on the frozen backbone and the row,
        # so one memo serves every epoch and evaluation of the experiment
        cache = QueryCache(backbone)
        for j in range(start_session, config.num_sessions):
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
            per_session.append({
                "session": j,
                "classes": stream.spec(j).classes,
                "steps": len(log.steps),
                "mean_total": log.mean("total"),
                "mean_classification": log.mean("classification"),
                "mean_reconstruction": log.mean("reconstruction"),
                "final_total": log.steps[-1].total,
            })
            if checkpoint_path is not None:
                ExperimentState.capture(model, matrix, j + 1, per_session,
                                        config).save(checkpoint_path)

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


# -- experiment checkpoint ---------------------------------------------------------------


def backbone_fingerprint(backbone: MultimodalBackbone) -> str:
    """SHA-256 of the backbone's parameter bytes."""
    return hashlib.sha256(backbone.parameter_bytes()).hexdigest()


def _differing_keys(a: dict, b: dict, prefix: str = "") -> list[str]:
    keys = []
    for k in sorted(set(a) | set(b)):
        if isinstance(a.get(k), dict) and isinstance(b.get(k), dict):
            keys += _differing_keys(a[k], b[k], f"{prefix}{k}.")
        elif k not in a or k not in b or a[k] != b[k]:
            keys.append(prefix + k)
    return keys


@dataclass
class ExperimentState:
    """Session-boundary snapshot: enough to resume the remaining stream.

    Optimizers and data RNG streams are re-derived from the config seeds at
    each session boundary, so the snapshot carries the trained parameters,
    the filled matrix columns and the session cursor, plus the config and
    the backbone fingerprint a resume must match.
    """

    params: dict[str, np.ndarray]
    matrix_rows: list[list[float | None]]
    next_session: int
    per_session: list[dict]
    config: dict
    backbone_sha256: str | None = None

    @classmethod
    def capture(cls, model: RebQModel, matrix: EvalMatrix, next_session: int,
                per_session: list[dict], config: RunConfig) -> "ExperimentState":
        return cls(params={k: v.data.copy() for k, v in model.named_parameters().items()},
                   matrix_rows=matrix.to_lists(),
                   next_session=next_session,
                   per_session=[dict(p) for p in per_session],
                   config=config.to_dict(),
                   backbone_sha256=backbone_fingerprint(model.backbone))

    def check_matches(self, config: RunConfig, backbone: MultimodalBackbone):
        """Refuse a resume under another config (output_dir aside) or backbone."""
        keys = [k for k in _differing_keys(self.config, config.to_dict()) if k != "output_dir"]
        if keys:
            raise ExperimentError("resume", f"checkpoint config differs in {keys}")
        if self.backbone_sha256 is None:
            raise ExperimentError("resume", "checkpoint has no backbone fingerprint; "
                                            "it cannot be checked against this backbone")
        if self.backbone_sha256 != backbone_fingerprint(backbone):
            raise ExperimentError("resume", "checkpoint was trained on another backbone "
                                            "(fingerprints differ)")

    def restore_into(self, model: RebQModel, matrix: EvalMatrix):
        named = model.named_parameters()
        if set(named) != set(self.params):
            raise ValueError("experiment state does not match the model's parameter set")
        for k, t in named.items():
            t.data = np.array(self.params[k], dtype=t.data.dtype)
        restored = EvalMatrix.from_lists(self.matrix_rows)
        matrix.values[:] = restored.values

    def save(self, path):
        meta = {"next_session": self.next_session,
                "per_session": self.per_session,
                "config": self.config,
                "matrix": self.matrix_rows,
                "backbone_sha256": self.backbone_sha256}
        serialize.save_container(path, "experiment", meta, self.params)

    @classmethod
    def load(cls, path) -> "ExperimentState":
        kind, meta, arrays = serialize.load_container(path)
        if kind != "experiment":
            raise serialize.ContainerError(f"{path}: not an experiment checkpoint")
        return cls(params=arrays, matrix_rows=meta["matrix"],
                   next_session=meta["next_session"],
                   per_session=meta["per_session"], config=meta["config"],
                   backbone_sha256=meta.get("backbone_sha256"))


# -- report emission ------------------------------------------------------------------------


def report_json_bytes(report: Report) -> bytes:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True).encode()


def emit_report(report: Report, out_dir, artifacts: RunArtifacts | None = None) -> list[str]:
    """Write report.json, matrix.csv, trajectory.csv and optional query export."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ExperimentError("emit", f"output directory {out} not writable: {exc}")

    written = []
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
