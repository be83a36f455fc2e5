"""Tape operations that only the tests use.

The fused attention node (tensor.attention) replaced a chain of per-op
records: head split and merge by transpose, and softmax over the key axis.
This module keeps those two operations, built on the tape's own record
helpers, as the reference that the attention and tensor tests compare
against.
"""

import numpy as np

from rebq import tensor as T
from rebq.tensor import ShapeError, Tensor


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out, links = T._output(a.data.transpose(axes), a)
    if links is not None:
        inv = tuple(np.argsort(axes))
        out._node = T._Node(links, lambda g: (g.transpose(inv),))
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if a.shape[-1] < 1:
        raise ShapeError("softmax_rows: last dimension must be >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    res = e / e.sum(axis=-1, keepdims=True)
    out, links = T._output(res, a)
    if links is not None:
        def bwd(g):
            dot = (g * res).sum(axis=-1, keepdims=True)
            return ((g - dot) * res,)
        out._node = T._Node(links, bwd)
    return out
