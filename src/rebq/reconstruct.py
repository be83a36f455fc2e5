"""Missing-query reconstruction through the frozen backbone.

A first (untracked) forward over the unified layout yields both modality
queries and the joint memory query for every sample. For a sample missing
one modality, prompts selected from the memory pool by the joint query are
injected into a second forward over the compact [cls, text, visual]
layout; the cls output of that pass is the reconstructed query for the
absent modality. The reconstruction loss trains the memory pool to pull
those reconstructions toward the queries the complete sample would have
produced (ground truth is gradient-detached).
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


def generate_queries_batch(samples: list[Sample], backbone: MultimodalBackbone,
                           emb=None) -> BatchQueries:
    """One untracked unified forward; raw queries regardless of presence flags."""
    pos = unified_positions(backbone.config)
    with T.no_grad():
        if emb is None:
            emb = backbone.embed_batch(samples)
        out = backbone.forward(backbone.unified_segments(emb))
    return BatchQueries(
        q_text=out[:, pos["text_cls"]],
        q_visual=out[:, pos["visual_cls"]],
        memory=out[:, pos["joint"]],
    )


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
    out = backbone.forward(backbone.recon_segments(emb), inj)
    return out[:, 0]


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
    cfg = backbone.config
    gt = generate_queries_batch(samples, backbone)

    text_only, image_only = [], []
    for s in samples:
        t_only, i_only = counterparts(s, cfg.num_patches, cfg.patch_dim)
        text_only.append(t_only)
        image_only.append(i_only)

    counterpart_rows = text_only + image_only
    mem = generate_queries_batch(counterpart_rows, backbone).memory
    recon = reconstruct_batch(counterpart_rows, mem, memory_source, backbone,
                              num_prompted_layers)
    n = len(samples)
    q_hat_visual = recon[:n]   # text-only rows reconstruct the visual query
    q_hat_text = recon[n:]
    return reconstruction_loss_from_queries(gt.q_text, q_hat_text,
                                            gt.q_visual, q_hat_visual)


def export_query_embeddings(samples: list[Sample], backbone: MultimodalBackbone,
                            memory_source=None, path=None,
                            num_prompted_layers: int | None = None) -> list[dict]:
    """JSON-ready query embeddings for external visualization.

    Complete samples contribute ground-truth queries; incomplete samples
    contribute the raw dummy-contaminated query (kind "unreconstructed")
    and, when a memory source is supplied, the reconstructed one.
    """
    records: list[dict] = []
    raw = generate_queries_batch(samples, backbone)
    incomplete = [i for i, s in enumerate(samples) if s.missing_type != "complete"]
    recon_by_index: dict[int, np.ndarray] = {}
    if memory_source is not None and incomplete:
        rows = [samples[i] for i in incomplete]
        mem = Tensor(raw.memory.data[incomplete])
        with T.no_grad():
            rec = reconstruct_batch(rows, mem, memory_source, backbone,
                                    num_prompted_layers)
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
    if path is not None:
        with open(path, "w") as fh:
            json.dump(records, fh)
    return records


def mean_reconstruction_cosine(samples: list[Sample], memory_source,
                               backbone: MultimodalBackbone,
                               num_prompted_layers: int | None = None) -> float:
    """Mean cosine between reconstructed and ground-truth queries.

    Samples must be modality-complete; each is masked both ways and both
    reconstructions are scored against the queries of the intact sample.
    """
    cfg = backbone.config
    gt = generate_queries_batch(samples, backbone)
    text_only, image_only = [], []
    for s in samples:
        t_only, i_only = counterparts(s, cfg.num_patches, cfg.patch_dim)
        text_only.append(t_only)
        image_only.append(i_only)
    rows = text_only + image_only
    with T.no_grad():
        mem = generate_queries_batch(rows, backbone).memory
        rec = reconstruct_batch(rows, mem, memory_source, backbone,
                                num_prompted_layers).data
    n = len(samples)
    sims = []
    for i in range(n):
        sims.append(_cos(rec[i], gt.q_visual.data[i]))
        sims.append(_cos(rec[n + i], gt.q_text.data[i]))
    return float(np.mean(sims))


def _cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + T.COSINE_EPS))
