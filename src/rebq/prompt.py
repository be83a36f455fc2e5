"""Decomposed prompt pools addressed by cosine key-query weighting.

A pool holds K components plus per-component keys and attention vectors.
A query q weights component k by cos(q * A_k, K_k); the selected prompt is
the plain weighted sum of all components. The same contract serves the
text pool (Folder), the visual pool (Album) and the reconstruction pool
(Memory); they differ only in which queries address them. Queries come as
a (B, D) batch, and every selection returns a (B, layers, 2, N_p, D)
prompt block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class PromptPool:
    attention: Tensor   # (D, K)
    keys: Tensor        # (D, K)
    components: Tensor  # (K, layers, 2, N_p, D)

    @property
    def dim(self) -> int:
        return self.attention.shape[0]

    @property
    def pool_size(self) -> int:
        return self.attention.shape[1]

    def parameters(self) -> list[Tensor]:
        return [self.attention, self.keys, self.components]

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.attention": self.attention,
                f"{prefix}.keys": self.keys,
                f"{prefix}.components": self.components}

    def select(self, query: Tensor) -> Tensor:
        return select_prompt(query, self)


@dataclass
class PromptVector:
    """A single learnable prompt block; selection ignores the query."""

    block: Tensor  # (layers, 2, N_p, D)

    def parameters(self) -> list[Tensor]:
        return [self.block]

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.block": self.block}

    def select(self, query: Tensor) -> Tensor:
        flat = T.reshape(self.block, (1,) + self.block.shape)
        return T.broadcast_to(flat, (query.shape[0],) + self.block.shape)


def init_pool(rng: np.random.Generator, dim: int, pool_size: int, prompt_len: int,
              num_layers: int) -> PromptPool:
    """Uniform init in [-1/sqrt(D), 1/sqrt(D)] for keys, attention and components."""
    bound = 1.0 / np.sqrt(dim)
    return PromptPool(
        attention=T.uniform_init(rng, (dim, pool_size), -bound, bound),
        keys=T.uniform_init(rng, (dim, pool_size), -bound, bound),
        components=T.uniform_init(rng, (pool_size, num_layers, 2, prompt_len, dim),
                                  -bound, bound),
    )


def init_vector(rng: np.random.Generator, dim: int, prompt_len: int,
                num_layers: int) -> PromptVector:
    bound = 1.0 / np.sqrt(dim)
    return PromptVector(block=T.uniform_init(rng, (num_layers, 2, prompt_len, dim),
                                             -bound, bound))


def compute_weights(query: Tensor, pool: PromptPool) -> Tensor:
    """Cosine of the attention-modulated query against each component key.

    Maps a (B, D) query batch to (B, K) weights, raw cosines in [-1, 1]
    with an epsilon denominator so a zero query yields zeros. Both sums
    over D are matrix products, so no (B, D, K) array is built:
    q . (A_k * K_k) is q @ (A * K), and |q * A_k|^2 is q^2 @ A^2. Their float32
    rows round with the row count, so the parts of a selection split by rows
    differ in the last bits from the whole; only backbone passes are split.
    """
    if query.shape[-1] != pool.dim:
        raise T.ShapeError(
            f"query width {query.shape[-1]} does not match pool width {pool.dim}")
    dots = T.matmul(query, T.mul(pool.attention, pool.keys))                 # (B, K)
    qnorm = T.sqrt(T.matmul(T.square(query), T.square(pool.attention)))      # (B, K)
    knorm = T.sqrt(T.tsum(T.square(pool.keys), axis=0))                      # (K,)
    denom = T.shift(T.mul(qnorm, knorm), T.COSINE_EPS)
    return T.div(dots, denom)


def aggregate(weights: Tensor, pool: PromptPool) -> Tensor:
    """Weighted sum of all pool components; linear in the weights.

    Maps (B, K) weights to a (B, layers, 2, N_p, D) block by one matrix
    product, whose float32 rows round with the row count (compute_weights)."""
    if weights.shape[-1] != pool.pool_size:
        raise T.ShapeError(
            f"weight length {weights.shape[-1]} does not match pool size {pool.pool_size}")
    flat = T.reshape(pool.components, (pool.pool_size, -1))
    block = T.matmul(weights, flat)
    return T.reshape(block, (weights.shape[0],) + pool.components.shape[1:])


def select_prompt(query: Tensor, pool: PromptPool) -> Tensor:
    """compute_weights followed by aggregate."""
    return aggregate(compute_weights(query, pool), pool)
