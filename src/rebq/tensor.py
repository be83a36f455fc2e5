"""Dense float32 tensors with tape-based reverse-mode differentiation.

Every value in the library is a :class:`Tensor` wrapping a numpy array.
Every float array the library creates is float32 (:data:`DTYPE`), while a
float ndarray passed in keeps its dtype, so a graph built from float64
arrays computes in float64 throughout. Operations record a backward
closure on the result when (and only when) some input participates in
differentiation, so forward passes through frozen parameters cost barely
more than raw numpy. Calling :func:`backward` on a scalar replays the recorded
tape in reverse topological order and deposits gradients on trainable leaf
tensors. Multi-head attention (:func:`attention`) is one fused record with a
closed-form backward, so a transformer block adds a handful of records to the
tape rather than one per slice, reshape and transpose.

The module also houses the loss functions, parameter initializers and the
AdamW optimizer with a linear-warmup / cosine-annealing schedule. AdamW
updates each parameter in cache-sized chunks (:data:`ADAMW_CHUNK`) with one
chunk of scratch per dtype.

Importing it sets two process-wide policies: numpy's bundled OpenBLAS runs
on one thread, and where the C library has ``mallopt`` (glibc), memory that
a released tape frees stays in the process for the next step instead of
going back to the kernel. The trade-off of the latter: the resident set
stays at its high-water mark between steps.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

Array = np.ndarray

# the compute precision of every array the library creates
DTYPE = np.float32


def _openblas_function(name: str):
    """``openblas_<name>`` of the OpenBLAS bundled with numpy, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _use_one_blas_thread():
    """Run the OpenBLAS bundled with numpy on one thread.

    The library's products are small (a few thousand rows by 64 columns).
    A second BLAS thread does not make them faster, but it spins on a
    second core between calls, and each product waits for the slower of
    the two cores, so any other load on the machine slows every pass.
    A numpy built against another BLAS is left as it is.
    """
    set_threads = _openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads(1)


_use_one_blas_thread()


def _libc_mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = [ctypes.c_int, ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def _keep_freed_memory():
    """Keep the memory a released tape frees inside the process.

    A training step allocates tens of megabytes of activations and
    gradients and frees them when its graph is dropped. By default glibc
    gives large blocks back to the kernel (through munmap, or by trimming
    the top of the heap), so the next step takes every page again as a
    page fault. With blocks below 32 MiB served from the heap and the heap
    trimmed only past 1 GiB of free space, the next step reuses the same
    memory. The cost is that the resident set stays at its high-water mark
    between steps; the peak itself does not move.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's ceiling for the dynamic one
        mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


_keep_freed_memory()

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    __slots__ = ("data", "grad", "trainable", "_parents", "_backward")

    def __init__(self, data, trainable: bool = False):
        if not (isinstance(data, np.ndarray) and data.dtype.kind == "f"):
            data = np.asarray(data, dtype=DTYPE)
        self.data = data
        self.grad: Array | None = None
        self.trainable = trainable
        self._parents: tuple[Tensor, ...] | None = None
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _wrap(data: Array, parents, backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.trainable = False
        out._parents = parents
        out._backward = backward_fn
        return out

    # -- introspection ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A tensor sharing this one's values but cut from the tape."""
        return Tensor._wrap(self.data, None, None)

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), trainable=self.trainable)
        return t

    def __repr__(self) -> str:
        flag = ", trainable" if self.trainable else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self):
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs(t: Tensor) -> bool:
    return t.trainable or t._parents is not None


def _make(data: Array, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled and any(_needs(p) for p in parents):
        return Tensor._wrap(data, parents, backward_fn)
    return Tensor._wrap(data, None, None)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


# -- elementwise arithmetic -----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = _make(a.data + b.data, (a, b), None)
    if out._parents is not None:
        def bwd(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
        out._backward = bwd
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = _make(a.data - b.data, (a, b), None)
    if out._parents is not None:
        def bwd(g):
            return (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))
        out._backward = bwd
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    _check_broadcast(a, b, "mul")
    out = _make(a.data * b.data, (a, b), None)
    if out._parents is not None:
        ad, bd = a.data, b.data
        def bwd(g):
            return (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape))
        out._backward = bwd
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    out = _make(a.data / b.data, (a, b), None)
    if out._parents is not None:
        ad, bd = a.data, b.data
        def bwd(g):
            return (
                _unbroadcast(g / bd, a.shape),
                _unbroadcast(-g * ad / (bd * bd), b.shape),
            )
        out._backward = bwd
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out = _make(a.data * c, (a,), None)
    if out._parents is not None:
        out._backward = lambda g: (g * c,)
    return out


def shift(a: Tensor, c: float) -> Tensor:
    """a + c for a Python scalar c, which takes the dtype of a."""
    out = _make(a.data + c, (a,), None)
    if out._parents is not None:
        out._backward = lambda g: (g,)
    return out


def neg(a: Tensor) -> Tensor:
    out = _make(-a.data, (a,), None)
    if out._parents is not None:
        out._backward = lambda g: (-g,)
    return out


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data, (a, b), None)
    if out._parents is not None:
        ad, bd = a.data, b.data
        need_a, need_b = _needs(a), _needs(b)
        def bwd(g):
            ga = gb = None
            if need_a:
                ga = _unbroadcast(g @ bd.swapaxes(-1, -2), a.shape)
            if need_b:
                if bd.ndim == 2 and ad.ndim > 2:
                    gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape)
            return (ga, gb)
        out._backward = bwd
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one tape record; b broadcasts over the leading axes."""
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"affine: inner dimensions disagree, {x.shape} @ {w.shape}")
    data = x.data @ w.data
    data += b.data
    out = _make(data, (x, w, b), None)
    if out._parents is not None:
        xd, wd = x.data, w.data
        need_x, need_w, need_b = _needs(x), _needs(w), _needs(b)
        def bwd(g):
            gx = gw = gb = None
            if need_x:
                gx = g @ wd.swapaxes(-1, -2)
            if need_w:
                gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            if need_b:
                gb = _unbroadcast(g, b.shape)
            return (gx, gw, gb)
        out._backward = bwd
    return out


# -- shape manipulation -------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _make(a.data.reshape(shape), (a,), None)
    if out._parents is not None:
        orig = a.shape
        out._backward = lambda g: (g.reshape(orig),)
    return out


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = _make(a.data.transpose(axes), (a,), None)
    if out._parents is not None:
        inv = tuple(np.argsort(axes))
        out._backward = lambda g: (g.transpose(inv),)
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    out = _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, None)
    if out._parents is not None:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            return tuple(np.split(g, splits, axis=axis))
        out._backward = bwd
    return out


def getitem(a: Tensor, key) -> Tensor:
    out = _make(a.data[key], (a,), None)
    if out._parents is not None:
        shape = a.shape
        def bwd(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[key] = g
            return (full,)
        out._backward = bwd
    return out


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _make(np.broadcast_to(a.data, shape).copy(), (a,), None)
    if out._parents is not None:
        orig = a.shape
        out._backward = lambda g: (_unbroadcast(g, orig),)
    return out


# -- reductions ------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), None)
    if out._parents is not None:
        shape = a.shape
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)
        out._backward = bwd
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else (
        np.prod([a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
    )
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# -- pointwise nonlinearities -------------------------------------------------------------


def square(a: Tensor) -> Tensor:
    out = _make(a.data * a.data, (a,), None)
    if out._parents is not None:
        ad = a.data
        out._backward = lambda g: (2.0 * ad * g,)
    return out


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; its gradient at 0 is taken as 0.

    The library's norms sit under an epsilon denominator, which keeps the
    forward total at a zero vector; the zero gradient keeps the backward
    finite there instead of multiplying an infinite slope by zero.
    """
    res = np.sqrt(a.data)
    out = _make(res, (a,), None)
    if out._parents is not None:
        def bwd(g):
            return (np.divide(0.5, res, out=np.zeros_like(res), where=res > 0.0) * g,)
        out._backward = bwd
    return out


def log(a: Tensor) -> Tensor:
    out = _make(np.log(a.data), (a,), None)
    if out._parents is not None:
        ad = a.data
        out._backward = lambda g: (g / ad,)
    return out


def relu(a: Tensor) -> Tensor:
    res = np.maximum(a.data, 0.0)
    out = _make(res, (a,), None)
    if out._parents is not None:
        mask = a.data > 0.0
        out._backward = lambda g: (g * mask,)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    res = 0.5 * x * (1.0 + t)
    out = _make(res, (a,), None)
    if out._parents is not None:
        def bwd(g):
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            return (g * d,)
        out._backward = bwd
    return out


def sigmoid(a: Tensor) -> Tensor:
    res = 1.0 / (1.0 + np.exp(-a.data))
    out = _make(res, (a,), None)
    if out._parents is not None:
        out._backward = lambda g: (g * res * (1.0 - res),)
    return out


# -- softmax family ------------------------------------------------------------------------


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if a.shape[-1] < 1:
        raise ShapeError("softmax_rows: last dimension must be >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    res = e / e.sum(axis=-1, keepdims=True)
    out = _make(res, (a,), None)
    if out._parents is not None:
        def bwd(g):
            dot = (g * res).sum(axis=-1, keepdims=True)
            return ((g - dot) * res,)
        out._backward = bwd
    return out


def log_softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    res = shifted - lse
    out = _make(res, (a,), None)
    if out._parents is not None:
        sm = np.exp(res)
        def bwd(g):
            return (g - sm * g.sum(axis=-1, keepdims=True),)
        out._backward = bwd
    return out


def attention(qkv: Tensor, heads: int, prefix: Tensor | None = None, rows=None) -> Tensor:
    """Multi-head scaled dot-product attention in one tape record.

    qkv is the packed (B, S, 3D) query/key/value projection. prefix, when
    given, is a (B, 2, N_p, D) key/value block that precedes the S keys and
    values. rows lists the query positions to compute (None for all S), and
    the result is the head-merged (B, len(rows) or S, D) output. The forward
    rounds exactly like the unfused chain: slice and concat, split heads,
    QK^T, scale, max-shifted softmax, att @ V, merge heads. The backward is
    closed-form (FlashAttention, arXiv 2205.14135): dV = P^T dO and
    dS = P * (dP - rowsum(dP * P)) * scale. dQ, dK and dV go straight into
    one gradient of the packed projection, and the prefix gets one block.
    """
    if qkv.ndim != 3 or qkv.shape[-1] % 3 or (qkv.shape[-1] // 3) % heads:
        raise ShapeError(f"attention: qkv {qkv.shape} is not (B, S, 3D) with D % {heads} == 0")
    b, s, d3 = qkv.shape
    d = d3 // 3
    dh, n_p = d // heads, 0
    data = qkv.data
    qrows = slice(None) if rows is None else rows
    qd = data[:, qrows, :d]
    kd, vd = data[:, :, d:2 * d], data[:, :, 2 * d:]
    if prefix is not None:
        if prefix.ndim != 4 or prefix.shape[:2] != (b, 2) or prefix.shape[3] != d:
            raise ShapeError(f"attention: prefix {prefix.shape} is not ({b}, 2, N_p, {d})")
        n_p = prefix.shape[2]
        kd = np.concatenate([prefix.data[:, 0], kd], axis=1)
        vd = np.concatenate([prefix.data[:, 1], vd], axis=1)
    sq, skv = qd.shape[1], kd.shape[1]
    q = qd.reshape(b, sq, heads, dh).transpose(0, 2, 1, 3)
    k = kd.reshape(b, skv, heads, dh).transpose(0, 2, 1, 3)
    v = vd.reshape(b, skv, heads, dh).transpose(0, 2, 1, 3)
    c = 1.0 / math.sqrt(dh)
    p = q @ k.transpose(0, 1, 3, 2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    res = (p @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
    out = _make(res, (qkv,) if prefix is None else (qkv, prefix), None)
    if out._parents is not None:
        need_qkv = _needs(qkv)
        need_prefix = prefix is not None and _needs(prefix)
        def bwd(g):
            do = g.reshape(b, sq, heads, dh).transpose(0, 2, 1, 3)
            dv = p.swapaxes(-1, -2) @ do
            ds = do @ v.swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= c
            dk = (q.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)
            gqkv = gprefix = None
            if need_qkv:
                # query positions outside rows get a zero gradient
                gqkv = (np.empty if rows is None else np.zeros)(qkv.shape, dtype=g.dtype)
                parts = gqkv.reshape(b, s, 3, heads, dh)
                parts[:, qrows, 0] = (ds @ k).transpose(0, 2, 1, 3)
                parts[:, :, 1] = dk[:, :, n_p:].transpose(0, 2, 1, 3)
                parts[:, :, 2] = dv[:, :, n_p:].transpose(0, 2, 1, 3)
            if need_prefix:
                gprefix = np.empty(prefix.shape, dtype=g.dtype)
                blocks = gprefix.reshape(b, 2, n_p, heads, dh)
                blocks[:, 0] = dk[:, :, :n_p].transpose(0, 2, 1, 3)
                blocks[:, 1] = dv[:, :, :n_p].transpose(0, 2, 1, 3)
            return (gqkv,) if prefix is None else (gqkv, gprefix)
        out._backward = bwd
    return out


def _mean_last(a: Array, n) -> Array:
    """``a.mean(axis=-1, keepdims=True)`` without numpy's wrapper: the same sum,
    then the same division by the integer count."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(out, n, out=out)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = np.intp(x.shape[-1])
    xhat = x.data - _mean_last(x.data, n)
    var = _mean_last(xhat * xhat, n)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    res = xhat * gamma.data
    res += beta.data
    out = _make(res, (x, gamma, beta), None)
    if out._parents is not None:
        gd = gamma.data
        lead = tuple(range(x.ndim - 1))
        need_x = _needs(x)
        def bwd(g):
            dx = dgamma = dbeta = None
            if _needs(gamma):
                dgamma = (g * xhat).sum(axis=lead)
            if _needs(beta):
                dbeta = g.sum(axis=lead)
            if need_x:
                # inv * (dy - mean(dy) - xhat * mean(dy * xhat)), rounded in that order
                dx = g * gd
                proj = dx * xhat
                mean_proj = _mean_last(proj, n)
                dx -= _mean_last(dx, n)
                dx -= np.multiply(xhat, mean_proj, out=proj)
                dx *= inv
            return (dx, dgamma, dbeta)
        out._backward = bwd
    return out


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row lookup into an embedding table; ids is an integer numpy array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding: token id out of range [0, {table.shape[0]}), "
            f"got min={ids.min()} max={ids.max()}"
        )
    out = _make(table.data[ids], (table,), None)
    if out._parents is not None:
        shape = table.shape
        def bwd(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, ids.ravel(), g.reshape(-1, shape[-1]))
            return (full,)
        out._backward = bwd
    return out


# -- similarity ----------------------------------------------------------------------------

COSINE_EPS = 1e-12


def cosine_similarity(a: Tensor, b: Tensor, eps: float = COSINE_EPS) -> Tensor:
    """Cosine similarity of two equal-length vectors.

    The epsilon in the denominator makes the both-zero case total and
    deterministic (result 0).
    """
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: need equal-length vectors, got {a.shape}, {b.shape}")
    dot = tsum(mul(a, b))
    na = sqrt(tsum(square(a)))
    nb = sqrt(tsum(square(b)))
    return div(dot, shift(mul(na, nb), eps))


# -- losses --------------------------------------------------------------------------------


def one_hot(index, num_classes: int) -> Array:
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
        raise ValueError(f"label index out of class range [0, {num_classes}): {index}")
    eye = np.zeros(idx.shape + (num_classes,), dtype=DTYPE)
    np.put_along_axis(eye, idx[..., None], 1.0, axis=-1)
    return eye


def cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Mean softmax cross-entropy; target rows are one-hot (or a distribution)."""
    if logits.shape != target.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs target {target.shape}")
    logp = log_softmax_rows(logits)
    rows = 1 if logits.ndim == 1 else int(np.prod(logits.shape[:-1]))
    return scale(tsum(mul(logp, target)), -1.0 / rows)


def binary_cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Mean sigmoid binary cross-entropy, computed in the stable logit form."""
    if logits.shape != target.shape:
        raise ShapeError(f"binary_cross_entropy: logits {logits.shape} vs target {target.shape}")
    z, t = logits.data, target.data
    vals = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = _make(np.asarray(vals.mean()), (logits, target), None)
    if out._parents is not None:
        n = z.size
        def bwd(g):
            s = 1.0 / (1.0 + np.exp(-z))
            return (g * (s - t) / n, None)
        out._backward = bwd
    return out


# -- reverse pass --------------------------------------------------------------------------


def backward(loss_tensor: Tensor):
    """Replay the tape from a scalar and deposit grads on trainable leaves.

    Non-trainable tensors are never written to; interior accumulators live
    only in a transient table that is dropped when the call returns, and the
    tape itself is discarded with the graph once the caller releases it.
    """
    if loss_tensor.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss_tensor.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss_tensor, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._parents is not None:
            for p in node._parents:
                if id(p) not in seen and _needs(p):
                    stack.append((p, False))

    grads: dict[int, Array] = {id(loss_tensor): np.ones_like(loss_tensor.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.trainable:
            node.grad = g if node.grad is None else node.grad + g
        if node._parents is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not _needs(parent):
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# -- initializers --------------------------------------------------------------------------


def uniform_init(rng: np.random.Generator, shape, low: float, high: float,
                 trainable: bool = True) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape).astype(DTYPE), trainable=trainable)


def normal_init(rng: np.random.Generator, shape, std: float = 0.02,
                trainable: bool = True) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape).astype(DTYPE), trainable=trainable)


def zeros(shape, trainable: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DTYPE), trainable=trainable)


def ones(shape, trainable: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DTYPE), trainable=trainable)


# -- optimizer -----------------------------------------------------------------------------

# elements per chunk of an AdamW step: 64K float32 values are 256 KB per array,
# so a chunk's values, gradient, two moments and scratch (about 1.3 MB) fit in
# a 2 MiB per-core L2 cache
ADAMW_CHUNK = 1 << 16


def warmup_cosine_lr(step: int, base_lr: float, total_steps: int,
                     warmup_frac: float = 0.1) -> float:
    """Linear ramp over the warmup window, cosine decay to zero after it.

    `step` counts from 0; the rate is exactly `base_lr` at the end of
    warmup and exactly 0 at `total_steps`.
    """
    warmup = int(round(warmup_frac * total_steps))
    if warmup > 0 and step < warmup:
        return base_lr * step / warmup
    if total_steps <= warmup:
        return base_lr
    progress = (step - warmup) / (total_steps - warmup)
    progress = min(max(progress, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight-decay Adam over an explicit parameter list.

    Moments are kept per parameter slot, in the parameter's dtype;
    gradients are only read, since they may alias each other. Each step
    reads the scheduled learning rate at the current counter, applies the
    update to every parameter that has a gradient, and clears those
    gradients. Calling step when no parameter has a gradient is a usage
    error.

    The update is elementwise, so a step walks each parameter in chunks of
    :data:`ADAMW_CHUNK` elements and runs the whole update sequence on one
    chunk before the next. A chunk's moments, values, gradient and scratch
    then stay in the core's cache across the sequence instead of streaming
    from memory once per operation, and the optimizer holds one chunk of
    scratch per dtype rather than one parameter-sized buffer per slot.
    """

    def __init__(self, params, base_lr: float = 1e-4, total_steps: int = 1,
                 warmup_frac: float = 0.1, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = list(params)
        for p in self.params:
            if not p.trainable:
                raise ValueError("AdamW: received a non-trainable parameter")
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_frac = warmup_frac
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        # C order, so that each moment's flat view walks it in place
        self.m = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        sizes: dict[np.dtype, int] = {}
        for p in self.params:
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), min(p.size, ADAMW_CHUNK))
        self._scratch = {dt: np.empty(n, dt) for dt, n in sizes.items()}

    def current_lr(self) -> float:
        return warmup_cosine_lr(self.step_count, self.base_lr,
                                self.total_steps, self.warmup_frac)

    def step(self):
        if all(p.grad is None for p in self.params):
            raise RuntimeError("optimizer step with no gradients populated")
        lr = self.current_lr()
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1, 1.0 - b2
        root_bc2 = math.sqrt(1.0 - b2 ** t)
        bc1_over_lr = (1.0 - b1 ** t) / lr if lr != 0.0 else 0.0
        decay = lr * self.weight_decay
        eps = self.eps
        for p, m_all, v_all in zip(self.params, self.m, self.v):
            g_all = p.grad
            if g_all is None:
                continue
            # a flat view where the layout allows one; otherwise a copy,
            # written back below
            data = p.data.reshape(-1)
            grad = g_all.reshape(-1)
            m_flat, v_flat = m_all.reshape(-1), v_all.reshape(-1)
            scratch = self._scratch[m_all.dtype]
            for lo in range(0, data.size, ADAMW_CHUNK):
                hi = lo + ADAMW_CHUNK
                x, g, m, v = data[lo:hi], grad[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
                s = scratch[:x.size]
                m *= b1
                np.multiply(g, c1, out=s)
                m += s
                np.multiply(g, g, out=s)
                s *= c2
                v *= b2
                v += s
                if lr != 0.0:
                    np.sqrt(v, out=s)
                    s /= root_bc2
                    s += eps
                    s *= bc1_over_lr
                    np.divide(m, s, out=s)
                    # x - m / denom - (lr * wd) * x, rounded in that order
                    np.subtract(x, s, out=s)
                    x *= decay
                    np.subtract(s, x, out=x)
            if not np.may_share_memory(data, p.data):
                p.data[...] = data.reshape(p.shape)
            p.grad = None
