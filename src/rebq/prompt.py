"""Decomposed prompt pools addressed by cosine key-query weighting.

A pool holds K components plus per-component keys and attention vectors.
A query q weights component k by cos(q * A_k, K_k); the selected prompt is
the plain weighted sum of all components. The same contract serves the
text pool (Folder), the visual pool (Album) and the reconstruction pool
(Memory); they differ only in which queries address them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

MODALITIES = ("text", "visual", "memory", "unified")
MODES = ("attention", "input")


@dataclass
class PromptPool:
    attention: Tensor   # (D, K)
    keys: Tensor        # (D, K)
    components: Tensor  # (K, layers, 2, N_p, D) attention mode; (K, N_p, D) input mode
    modality: str
    mode: str = "attention"

    @property
    def dim(self) -> int:
        return self.attention.shape[0]

    @property
    def pool_size(self) -> int:
        return self.attention.shape[1]

    @property
    def prompt_len(self) -> int:
        return self.components.shape[-2]

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

    block: Tensor  # (layers, 2, N_p, D) attention mode; (N_p, D) input mode
    modality: str
    mode: str = "attention"

    @property
    def prompt_len(self) -> int:
        return self.block.shape[-2]

    def parameters(self) -> list[Tensor]:
        return [self.block]

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.block": self.block}

    def select(self, query: Tensor) -> Tensor:
        batch = 1 if query.ndim == 1 else query.shape[0]
        flat = T.reshape(self.block, (1,) + self.block.shape)
        return T.broadcast_to(flat, (batch,) + self.block.shape)


@dataclass
class PromptWeights:
    w: Tensor  # (K,) for a single query, (B, K) for a batch; cosines in [-1, 1]


def init_pool(rng: np.random.Generator, dim: int, pool_size: int, prompt_len: int,
              num_layers: int, modality: str, mode: str = "attention") -> PromptPool:
    """Uniform init in [-1/sqrt(D), 1/sqrt(D)] for keys, attention and components."""
    bound = 1.0 / np.sqrt(dim)
    if mode == "attention":
        comp_shape = (pool_size, num_layers, 2, prompt_len, dim)
    elif mode == "input":
        comp_shape = (pool_size, prompt_len, dim)
    else:
        raise ValueError(f"unknown injection mode {mode!r}")
    return PromptPool(
        attention=T.uniform_init(rng, (dim, pool_size), -bound, bound),
        keys=T.uniform_init(rng, (dim, pool_size), -bound, bound),
        components=T.uniform_init(rng, comp_shape, -bound, bound),
        modality=modality,
        mode=mode,
    )


def init_vector(rng: np.random.Generator, dim: int, prompt_len: int, num_layers: int,
                modality: str, mode: str = "attention") -> PromptVector:
    bound = 1.0 / np.sqrt(dim)
    if mode == "attention":
        shape = (num_layers, 2, prompt_len, dim)
    else:
        shape = (prompt_len, dim)
    return PromptVector(block=T.uniform_init(rng, shape, -bound, bound),
                        modality=modality, mode=mode)


def compute_weights(query: Tensor, pool: PromptPool) -> PromptWeights:
    """Cosine of the attention-modulated query against each component key.

    Accepts a (D,) query or a (B, D) batch; weights are raw cosines in
    [-1, 1], with an epsilon denominator so a zero query yields zeros.
    Both sums over D are matrix products, so no (B, D, K) array is built:
    q . (A_k * K_k) is q @ (A * K), and |q * A_k|^2 is q^2 @ A^2.
    """
    single = query.ndim == 1
    if query.shape[-1] != pool.dim:
        raise T.ShapeError(
            f"query width {query.shape[-1]} does not match pool width {pool.dim}")
    q = T.reshape(query, (1, pool.dim)) if single else query
    dots = T.matmul(q, T.mul(pool.attention, pool.keys))                     # (B, K)
    qnorm = T.sqrt(T.matmul(T.square(q), T.square(pool.attention)))          # (B, K)
    knorm = T.sqrt(T.tsum(T.square(pool.keys), axis=0))                      # (K,)
    denom = T.shift(T.mul(qnorm, knorm), T.COSINE_EPS)
    w = T.div(dots, denom)
    if single:
        w = T.reshape(w, (pool.pool_size,))
    return PromptWeights(w=w)


def aggregate(weights: PromptWeights, pool: PromptPool) -> Tensor:
    """Weighted sum of all pool components; linear in the weights.

    Returns a block with a leading batch axis: (B, layers, 2, N_p, D) in
    attention mode or (B, N_p, D) in input mode (B=1 for a single query).
    """
    w = weights.w
    single = w.ndim == 1
    if w.shape[-1] != pool.pool_size:
        raise T.ShapeError(
            f"weight length {w.shape[-1]} does not match pool size {pool.pool_size}")
    wb = T.reshape(w, (1, pool.pool_size)) if single else w
    comp_shape = pool.components.shape
    flat = T.reshape(pool.components, (pool.pool_size, -1))
    block = T.matmul(wb, flat)
    return T.reshape(block, (wb.shape[0],) + comp_shape[1:])


def select_prompt(query: Tensor, pool: PromptPool) -> Tensor:
    """compute_weights followed by aggregate."""
    return aggregate(compute_weights(query, pool), pool)
