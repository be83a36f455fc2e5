"""The reconstruction loss L_r over complete samples, assembled outside the
training path.

pipeline.forward_batch computes L_r with the masked counterparts of a
batch's complete samples riding along in its two backbone passes. This
oracle builds the same quantity from the public pieces (counterparts, one
unified pass, one memory-prefixed reconstruction pass and
reconstruction_loss_from_queries), so tests can compare the two.
"""

import numpy as np

from rebq import tensor as T
from rebq.reconstruct import (counterparts, generate_queries_batch, reconstruct_batch,
                              reconstruction_loss_from_queries)
from rebq.tensor import Tensor


def reconstruct_counterparts(samples, memory_source, backbone):
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
                              backbone, emb=emb.rows(slice(n, None)))
    # text-only rows reconstruct the visual query, image-only rows the text
    return (Tensor(queries.q_text.data[:n]), recon[n:],
            Tensor(queries.q_visual.data[:n]), recon[:n])


def reconstruction_loss(samples, memory_source, backbone) -> Tensor:
    """L_r over modality-complete samples; the ground truth is constant, so
    gradient reaches only the memory source."""
    return reconstruction_loss_from_queries(
        *reconstruct_counterparts(samples, memory_source, backbone))


def mean_reconstruction_cosine(samples, memory_source, backbone) -> float:
    """Mean cosine between reconstructed and ground-truth queries, both ways
    of masking each complete sample."""
    with T.no_grad():
        q_text, q_hat_text, q_visual, q_hat_visual = reconstruct_counterparts(
            samples, memory_source, backbone)
    sims = []
    for gt, rec in ((q_visual, q_hat_visual), (q_text, q_hat_text)):
        a, b = rec.data.astype(np.float64), gt.data.astype(np.float64)
        sims += list((a * b).sum(axis=1)
                     / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)))
    return float(np.mean(sims))
