"""Missing-query reconstruction through the frozen backbone.

Both passes read one embed_batch sequence. A first (untracked) forward
over the unified layout yields both modality queries and the joint memory
query for every sample; generate_queries_batch returns them as one
(B, 3, D) array whose columns are the text, visual and memory queries. For
a sample missing one modality, prompts selected from the memory pool by
the joint query are prefixed to a second forward over the compact [cls,
text, visual] rows of the same sequence (recon_positions); the cls output
of that pass is the reconstructed query for the absent modality. The
reconstruction loss (reconstruction_loss_from_queries) trains the memory pool to pull those
reconstructions toward the queries the complete sample would have produced
(ground truth is gradient-detached); pipeline.forward_batch computes it
over the complete samples' masked counterparts, which counterparts makes
with Sample.without.

The unified pass reads only the frozen backbone and a row's text tokens
and patches, and each of its output rows depends on its own input row
alone. A QueryCache therefore memoizes it for one experiment: rows are
keyed by content (tokens plus patch bytes), so a masked copy and each
masked counterpart of a sample get their own entries, and only rows not
seen before go through the pass. The cached rows are bit-identical to a
fresh pass. A key holds a SHA-256 digest of the patch bytes, not the bytes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import tensor as T
from .backbone import MultimodalBackbone, recon_positions, unified_positions
from .bench import Sample
from .tensor import Tensor


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
                hashlib.sha256(patches.tobytes()).digest())


def generate_queries_batch(samples: list[Sample], backbone: MultimodalBackbone,
                           emb=None, cache: QueryCache | None = None) -> np.ndarray:
    """One untracked unified forward; raw queries regardless of presence flags.

    Returns a (B, 3, D) array whose columns are the text, visual and memory
    (joint) queries of each row. emb is the samples' embed_batch sequence,
    embedded here when not given.

    With a cache, only the rows it does not hold yet go through the pass,
    in one batch, and every row of the result is read from the cache.
    """
    if cache is None:
        return _unified_pass(samples, backbone, emb)
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
                              None if emb is None else emb[idx])
        cache.rows.update(zip(misses, fresh))
    return np.stack([cache.rows[k] for k in keys])


def _unified_pass(samples: list[Sample], backbone: MultimodalBackbone,
                  emb=None) -> np.ndarray:
    """(B, 3, D) text, visual and memory queries of one unified forward."""
    pos = unified_positions(backbone)
    with T.no_grad():
        if emb is None:
            emb = backbone.embed_batch(samples)
        return backbone.forward(emb, positions=[
            pos["text_cls"], pos["visual_cls"], pos["joint"]]).data


def reconstruct_batch(samples: list[Sample], prefix: Tensor,
                      backbone: MultimodalBackbone, emb=None) -> Tensor:
    """Tracked reconstruction pass; returns one (B, D) query matrix.

    Rows may mix text-only and image-only samples: the layout is identical,
    only the dummy contents differ, and the cls output is the reconstruction
    for whichever modality the row lacks. prefix is the samples' memory
    block, selected by their memory queries (memory_source.select); it
    prompts as many layers as the memory source was built with. The pass
    reads the recon_positions rows of emb, the samples' embed_batch sequence.
    """
    if emb is None:
        emb = backbone.embed_batch(samples)
    return backbone.forward(emb[:, recon_positions(backbone)], prefix,
                            positions=[0])[:, 0]


def counterparts(sample: Sample) -> tuple[Sample, Sample]:
    """(text-only, image-only) masked copies of a complete sample (Sample.without)."""
    return sample.without("visual"), sample.without("text")


def reconstruction_loss_from_queries(q_text: Tensor, q_hat_text: Tensor,
                                     q_visual: Tensor, q_hat_visual: Tensor) -> Tensor:
    """Mean over the N samples of both squared-norm reconstruction residuals;
    all four queries are (N, D)."""
    shapes = [q.shape for q in (q_text, q_hat_text, q_visual, q_hat_visual)]
    if len(shapes[0]) != 2 or len(set(shapes)) != 1:
        raise T.ShapeError(f"reconstruction loss: need four matching (N, D) queries, "
                           f"got shapes {shapes}")
    total = T.add(T.tsum(T.square(T.sub(q_text, q_hat_text))),
                  T.tsum(T.square(T.sub(q_visual, q_hat_visual))))
    return T.scale(total, 1.0 / shapes[0][0])


def export_query_embeddings(samples: list[Sample], backbone: MultimodalBackbone,
                            memory_source=None, path=None,
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
                                  memory_source)
    if path is not None:
        with open(path, "w") as fh:
            json.dump(records, fh)
    return records


def _query_records(samples: list[Sample], backbone: MultimodalBackbone,
                   memory_source) -> list[dict]:
    """The export records of one batch, in sample order."""
    records: list[dict] = []
    with T.no_grad():
        emb = backbone.embed_batch(samples)
    raw = generate_queries_batch(samples, backbone, emb=emb)
    incomplete = [i for i, s in enumerate(samples) if s.missing_type != "complete"]
    recon_by_index: dict[int, np.ndarray] = {}
    if memory_source is not None and incomplete:
        rows = [samples[i] for i in incomplete]
        with T.no_grad():
            rec = reconstruct_batch(rows, memory_source.select(Tensor(raw[incomplete, 2])),
                                    backbone, emb=emb[incomplete])
        recon_by_index = {i: rec.data[j] for j, i in enumerate(incomplete)}

    for i, s in enumerate(samples):
        label = s.label if isinstance(s.label, int) else list(s.label)
        for col, (modality, present) in enumerate((("text", s.has_text),
                                                   ("visual", s.has_visual))):
            records.append({"id": s.id, "label": label, "modality": modality,
                            "kind": "ground_truth" if present else "unreconstructed",
                            "embedding": raw[i, col].tolist()})
        if i in recon_by_index:
            records.append({"id": s.id, "label": label,
                            "modality": "text" if not s.has_text else "visual",
                            "kind": "reconstructed",
                            "embedding": recon_by_index[i].tolist()})
    return records

