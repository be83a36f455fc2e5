"""Missing-query reconstruction through the frozen backbone.

A first (untracked) forward over the unified layout yields both modality
queries and the joint memory query for every sample. For a sample missing
one modality, prompts selected from the memory pool by the joint query are
injected into a second forward over the compact [cls, text, visual]
layout; the cls output of that pass is the reconstructed query for the
absent modality. The reconstruction loss trains the memory pool to pull
those reconstructions toward the queries the complete sample would have
produced (ground truth is gradient-detached).

The unified pass reads only the frozen backbone and a row's text tokens
and patches, and each of its output rows depends on its own input row
alone. A QueryCache therefore memoizes it for one experiment: rows are
keyed by content (tokens plus patch bytes), so a masked copy and each
masked counterpart of a sample get their own entries, and only rows not
seen before go through the pass. The cached rows are bit-identical to a
fresh pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .backbone import MultimodalBackbone, build_injection, unified_positions
from .bench import DUMMY_TEXT, Sample, dummy_patches
from .tensor import Tensor


@dataclass
class BatchQueries:
    """Raw per-position outputs of the unified pass, one row per sample."""

    q_text: Tensor    # (B, D)
    q_visual: Tensor  # (B, D)
    memory: Tensor    # (B, D)


class QueryCache:
    """Unified-pass (text, visual, memory) query rows of one frozen backbone,
    one (3, D) array per distinct row content seen."""

    def __init__(self, backbone: MultimodalBackbone):
        if not backbone.frozen:
            raise ValueError("QueryCache needs a frozen backbone")
        self.backbone = backbone
        self.rows: dict[tuple, np.ndarray] = {}

    @staticmethod
    def key(sample: Sample) -> tuple:
        patches = np.asarray(sample.patches)
        return (tuple(sample.text_tokens), patches.dtype.str, patches.shape,
                patches.tobytes())


def generate_queries_batch(samples: list[Sample], backbone: MultimodalBackbone,
                           emb=None, cache: QueryCache | None = None) -> BatchQueries:
    """One untracked unified forward; raw queries regardless of presence flags.

    With a cache, only the rows it does not hold yet go through the pass,
    in one batch, and every row of the result is read from the cache.
    """
    if cache is None:
        rows = _unified_pass(samples, backbone, emb)
    else:
        if cache.backbone is not backbone:
            raise ValueError("generate_queries_batch: the cache belongs to another backbone")
        keys = [QueryCache.key(s) for s in samples]
        misses: dict[tuple, int] = {}
        for i, k in enumerate(keys):
            if k not in cache.rows:
                misses.setdefault(k, i)
        if misses:
            idx = list(misses.values())
            fresh = _unified_pass([samples[i] for i in idx], backbone,
                                  None if emb is None else emb.rows(idx))
            cache.rows.update(zip(misses, fresh))
        rows = np.stack([cache.rows[k] for k in keys])
    return BatchQueries(q_text=Tensor(rows[:, 0]), q_visual=Tensor(rows[:, 1]),
                        memory=Tensor(rows[:, 2]))


def _unified_pass(samples: list[Sample], backbone: MultimodalBackbone,
                  emb=None) -> np.ndarray:
    """(B, 3, D) text, visual and memory queries of one unified forward."""
    pos = unified_positions(backbone.config)
    with T.no_grad():
        if emb is None:
            emb = backbone.embed_batch(samples)
        return backbone.forward(backbone.unified_segments(emb), positions=[
            pos["text_cls"], pos["visual_cls"], pos["joint"]]).data


def reconstruct_batch(samples: list[Sample], memory_queries: Tensor, memory_source,
                      backbone: MultimodalBackbone,
                      num_prompted_layers: int | None = None, emb=None) -> Tensor:
    """Tracked reconstruction pass; returns one (B, D) query matrix.

    Rows may mix text-only and image-only samples: the layout is identical,
    only the dummy contents differ, and the cls output is the reconstruction
    for whichever modality the row lacks.
    """
    block = memory_source.select(memory_queries)
    # an attention block prompts its own layer count, clamped to
    # num_prompted_layers; an input block prompts no layers
    layers = block.shape[1]
    if num_prompted_layers is not None:
        layers = min(layers, num_prompted_layers)
    inj = build_injection([(memory_source.mode, block)], layers)
    if emb is None:
        emb = backbone.embed_batch(samples)
    return backbone.forward(backbone.recon_segments(emb), inj, positions=[0])[:, 0]


def counterparts(sample: Sample, num_patches: int, patch_dim: int) -> tuple[Sample, Sample]:
    """(text-only, image-only) masked versions of a complete sample."""
    text_only = replace(sample, has_visual=False,
                        patches=dummy_patches(num_patches, patch_dim))
    image_only = replace(sample, has_text=False, text_tokens=list(DUMMY_TEXT))
    return text_only, image_only


def reconstruction_loss_from_queries(q_text: Tensor, q_hat_text: Tensor,
                                     q_visual: Tensor, q_hat_visual: Tensor) -> Tensor:
    """Mean over samples of both squared-norm reconstruction residuals."""
    if q_text.shape != q_hat_text.shape or q_visual.shape != q_hat_visual.shape:
        raise T.ShapeError("reconstruction loss: query shape mismatch")
    n = 1 if q_text.ndim == 1 else q_text.shape[0]
    total = T.add(T.tsum(T.square(T.sub(q_text, q_hat_text))),
                  T.tsum(T.square(T.sub(q_visual, q_hat_visual))))
    return T.scale(total, 1.0 / n)


def reconstruction_loss(samples: list[Sample], memory_source,
                        backbone: MultimodalBackbone,
                        num_prompted_layers: int | None = None) -> Tensor:
    """Reconstruction objective over a batch of modality-complete samples.

    Ground-truth queries come from the unified pass on the original samples
    and are constants: gradient flows only into the memory source through
    the reconstructed counterpart queries.
    """
    for s in samples:
        if s.missing_type != "complete":
            raise ValueError(f"reconstruction loss needs complete samples, got {s.id}")
    return reconstruction_loss_from_queries(*_reconstruct_counterparts(
        samples, memory_source, backbone, num_prompted_layers))


def _reconstruct_counterparts(samples: list[Sample], memory_source,
                              backbone: MultimodalBackbone, num_prompted_layers):
    """(q_text, q_hat_text, q_visual, q_hat_visual) of complete samples.

    The ground truth comes from the samples, each reconstruction from the
    counterpart that lacks its modality. Samples and counterparts embed in
    one call and share one unified pass.
    """
    cfg = backbone.config
    pairs = [counterparts(s, cfg.num_patches, cfg.patch_dim) for s in samples]
    rows = list(samples) + [p[0] for p in pairs] + [p[1] for p in pairs]
    n = len(samples)
    with T.no_grad():
        emb = backbone.embed_batch(rows)
    queries = generate_queries_batch(rows, backbone, emb=emb)
    recon = reconstruct_batch(rows[n:], Tensor(queries.memory.data[n:]), memory_source,
                              backbone, num_prompted_layers, emb=emb.rows(slice(n, None)))
    # text-only rows reconstruct the visual query, image-only rows the text
    return (Tensor(queries.q_text.data[:n]), recon[n:],
            Tensor(queries.q_visual.data[:n]), recon[:n])


def export_query_embeddings(samples: list[Sample], backbone: MultimodalBackbone,
                            memory_source=None, path=None,
                            num_prompted_layers: int | None = None,
                            batch_size: int = 64) -> list[dict]:
    """JSON-ready query embeddings for external visualization.

    Complete samples contribute ground-truth queries; incomplete samples
    contribute the raw dummy-contaminated query (kind "unreconstructed")
    and, when a memory source is supplied, the reconstructed one. Samples
    go through the backbone batch_size at a time.
    """
    if batch_size < 1:
        raise ValueError(f"export_query_embeddings: batch_size must be >= 1, got {batch_size}")
    records: list[dict] = []
    for start in range(0, len(samples), batch_size):
        records += _query_records(samples[start:start + batch_size], backbone,
                                  memory_source, num_prompted_layers)
    if path is not None:
        with open(path, "w") as fh:
            json.dump(records, fh)
    return records


def _query_records(samples: list[Sample], backbone: MultimodalBackbone, memory_source,
                   num_prompted_layers: int | None) -> list[dict]:
    """The export records of one batch, in sample order."""
    records: list[dict] = []
    with T.no_grad():
        emb = backbone.embed_batch(samples)
    raw = generate_queries_batch(samples, backbone, emb=emb)
    incomplete = [i for i, s in enumerate(samples) if s.missing_type != "complete"]
    recon_by_index: dict[int, np.ndarray] = {}
    if memory_source is not None and incomplete:
        rows = [samples[i] for i in incomplete]
        mem = Tensor(raw.memory.data[incomplete])
        with T.no_grad():
            rec = reconstruct_batch(rows, mem, memory_source, backbone,
                                    num_prompted_layers, emb=emb.rows(incomplete))
        recon_by_index = {i: rec.data[j] for j, i in enumerate(incomplete)}

    for i, s in enumerate(samples):
        label = s.label if isinstance(s.label, int) else list(s.label)
        for modality, present, rows in (("text", s.has_text, raw.q_text),
                                        ("visual", s.has_visual, raw.q_visual)):
            records.append({"id": s.id, "label": label, "modality": modality,
                            "kind": "ground_truth" if present else "unreconstructed",
                            "embedding": rows.data[i].tolist()})
        if i in recon_by_index:
            records.append({"id": s.id, "label": label,
                            "modality": "text" if not s.has_text else "visual",
                            "kind": "reconstructed",
                            "embedding": recon_by_index[i].tolist()})
    return records


def mean_reconstruction_cosine(samples: list[Sample], memory_source,
                               backbone: MultimodalBackbone,
                               num_prompted_layers: int | None = None) -> float:
    """Mean cosine between reconstructed and ground-truth queries.

    Samples must be modality-complete; each is masked both ways and both
    reconstructions are scored against the queries of the intact sample.
    """
    with T.no_grad():
        q_text, q_hat_text, q_visual, q_hat_visual = _reconstruct_counterparts(
            samples, memory_source, backbone, num_prompted_layers)
    sims = []
    for i in range(len(samples)):
        sims.append(_cos(q_hat_visual.data[i], q_visual.data[i]))
        sims.append(_cos(q_hat_text.data[i], q_text.data[i]))
    return float(np.mean(sims))


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + T.COSINE_EPS))
