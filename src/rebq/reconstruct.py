"""Missing-query reconstruction through the frozen backbone.

Both passes read one embed_batch sequence. A first (untracked) forward
over the unified layout yields both modality queries and the joint memory
query for every sample; generate_queries_batch returns them as one
(B, 3, D) array whose columns are the text, visual and memory queries. For
a sample missing one modality, prompts selected from the memory pool by
the joint query are prefixed to a second forward over the compact [cls,
text, visual] rows of the same sequence (recon_positions); the cls output
of that pass is the reconstructed query for the absent modality. The
reconstruction loss L_r trains the memory pool to pull those
reconstructions toward the queries the complete sample would have
produced (ground truth is gradient-detached): it is the summed squared
residual of the 2N masked counterparts (Sample.without) of N complete
samples, divided by N, and pipeline._reconstruct says how it is computed.
forward_batch is the one caller of both passes, in training and
evaluation alike.

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
