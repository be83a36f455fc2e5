"""The reconstruction loss L_r over complete samples, assembled outside the
training path.

pipeline.forward_batch computes L_r with the masked counterparts of a
batch's complete samples riding along in its two backbone passes, in
chunks, as one residual summed over all counterpart rows. This oracle
builds the same quantity from the public pieces (Sample.without, one
unified pass, one memory-prefixed reconstruction pass) and its own
formula, reconstruction_loss_from_queries, which sums the text and visual
residuals apart, so tests can compare the two. The formulas add in
another order, so they agree to rounding, not bit for bit.
"""

import numpy as np

from rebq import tensor as T
from rebq.reconstruct import generate_queries_batch, reconstruct_batch
from rebq.tensor import Tensor


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


def reconstruct_counterparts(samples, memory_source, backbone):
    """(q_text, q_hat_text, q_visual, q_hat_visual) of complete samples.

    The ground truth comes from the samples, each reconstruction from the
    counterpart that lacks its modality. Samples and counterparts embed in
    one call and share one unified pass.
    """
    rows = (list(samples) + [s.without("visual") for s in samples]
            + [s.without("text") for s in samples])
    n = len(samples)
    with T.no_grad():
        emb = backbone.embed_batch(rows)
    queries = generate_queries_batch(rows, backbone, emb=emb)
    recon = reconstruct_batch(rows[n:], memory_source.select(Tensor(queries[n:, 2])),
                              backbone, emb=emb[n:])
    # text-only rows reconstruct the visual query, image-only rows the text
    return (Tensor(queries[:n, 0]), recon[n:], Tensor(queries[:n, 1]), recon[:n])


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
