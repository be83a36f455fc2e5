"""Dense float32 tensors with tape-based reverse-mode differentiation.

Every value in the library is a :class:`Tensor` wrapping a numpy array.
Every float array the library creates is float32 (:data:`DTYPE`), while a
float ndarray passed in keeps its dtype, so a graph built from float64
arrays computes in float64 throughout.

An operation gives its result a tape record (``_Node``) when (and only
when) some input participates in differentiation, so forward passes through
frozen parameters cost barely more than raw numpy. A record holds one link
per input (the input's own record, the input itself when it is a trainable
leaf, or None for a constant) and a backward closure that keeps only the
shapes and arrays that backward reads, never an input Tensor, and never a
view that pins a larger array than it reads. A value no backward reads is
freed as soon as the caller drops its Tensor: an affine behind a frozen
weight keeps the weight but not its input, and add, reshape or relu keep no
input value at all. Calling :func:`backward` on a
scalar walks the records in reverse topological order, deposits gradients
on trainable leaf tensors and releases each record as it goes, so no graph
outlives its backward; a second backward through a released record raises
RuntimeError. Multi-head attention (:func:`attention`) is one fused record
with a closed-form backward, so a transformer block adds a handful of
records to the tape rather than one per slice, reshape and transpose.
:func:`attach` carries an earlier backward's gradient into a later graph, so
one loss term can be back-propagated and released before the rest records.

The module also houses the loss functions, parameter initializers and the
AdamW optimizer with a linear-warmup / cosine-annealing schedule. AdamW
updates each parameter in cache-sized chunks (:data:`ADAMW_CHUNK`) with one
chunk of scratch per dtype.

Importing it sets process-wide policies: numpy's bundled OpenBLAS runs on
one thread; and where the C library has ``mallopt`` (glibc), memory that a
released tape frees stays in the process for the next step instead of going
back to the kernel (the resident set stays at its high-water mark between
steps), and every thread allocates from one arena, so the workers of
:func:`split_rows` keep no high-water mark of their own.

:func:`split_rows` spreads the rows of an untracked pass over the cores
the process may run on (:func:`row_parts`): the calling thread computes one
contiguous part and a small worker pool, created on first use and dropped
in a forked child, computes the rest. Importing the module starts no
thread.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
    gradients and frees them as its backward releases the graph. By default
    glibc gives large blocks back to the kernel (through munmap, or by
    trimming the top of the heap), so the next step takes every page again
    as a page fault. With blocks below 32 MiB served from the heap and the heap
    trimmed only past 1 GiB of free space, the next step reuses the same
    memory. The cost is that the resident set stays at its high-water mark
    between steps; the peak itself does not move.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's ceiling for the dynamic one
        mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
        # M_ARENA_MAX: a split_rows worker thread would otherwise get an arena
        # of its own, which keeps its own high-water mark next to the main one
        mallopt(-8, 1)


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


def recording(*tensors) -> bool:
    """Whether an operation on these tensors (None entries skipped) would
    record a tape node."""
    return _grad_enabled and any(t is not None and _link(t) is not None for t in tensors)


# -- row-parallel untracked passes ------------------------------------------------

# the fewest rows one part of a split holds: below it, handing the interpreter
# lock back and forth between short numpy operations costs more than the
# second core saves (forward timings at the default sizes are in CHANGES.md)
PARALLEL_MIN_ROWS = 20

_parts_limit: int | None = None  # None: the cores this process may run on
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def row_parts() -> int:
    """The most parts :func:`split_rows` divides rows into."""
    if _parts_limit is not None:
        return _parts_limit
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity masks
        return os.cpu_count() or 1


def set_row_parts(parts: int | None):
    """Limit :func:`split_rows` to parts (>= 1); None restores the core count."""
    global _parts_limit
    if parts is not None and parts < 1:
        raise ValueError(f"set_row_parts: parts must be >= 1, got {parts}")
    _parts_limit = parts


def _workers() -> ThreadPoolExecutor:
    """The worker pool, created on first use; it starts a thread only when
    no idle one is left, so it holds as many as the widest split needed."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(thread_name_prefix="rebq-rows")
        return _pool


def _drop_pool():
    """Forget the parent's pool in a forked child: its threads did not fork,
    yet the child's copy of the executor would count them as idle and never
    start a thread for new work."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def split_rows(fn, n: int) -> list:
    """``fn(lo, hi)`` over contiguous parts of ``range(n)``, results in order.

    The rows divide into at most :func:`row_parts` parts of at least
    :data:`PARALLEL_MIN_ROWS` rows, as equal as possible; the calling thread
    runs the first part and the worker pool the others. fn must record
    nothing on the tape and make no row depend on another part's rows. With
    one part, ``fn(0, n)`` runs inline and nothing touches the pool.
    """
    parts = min(row_parts(), n // PARALLEL_MIN_ROWS)
    if parts <= 1:
        return [fn(0, n)]
    bounds = [n * i // parts for i in range(parts + 1)]
    pool = _workers()
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        first = fn(bounds[0], bounds[1])
    finally:
        wait(futures)  # no part outlives the call, even when the first one fails
    return [first] + [f.result() for f in futures]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


_RELEASED = "backward: this graph was released by an earlier backward"


class _Node:
    """One tape record: a link per input and the backward closure.

    A link is the input's own record, the input itself when it is a
    trainable leaf, or None for a constant. The closure maps the result's
    gradient to one gradient per input (None where nothing reads it) and
    holds only the shapes and arrays it reads, never an input Tensor.
    """

    __slots__ = ("inputs", "backward")

    def __init__(self, inputs: tuple, backward):
        self.inputs = inputs
        self.backward = backward


def _released(g):
    raise RuntimeError(_RELEASED)


class Tensor:
    __slots__ = ("data", "grad", "trainable", "_node")

    def __init__(self, data, trainable: bool = False):
        if not (isinstance(data, np.ndarray) and data.dtype.kind == "f"):
            data = np.asarray(data, dtype=DTYPE)
        self.data = data
        self.grad: Array | None = None
        self.trainable = trainable
        self._node: _Node | None = None

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

    def __repr__(self) -> str:
        flag = ", trainable" if self.trainable else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __getitem__(self, key):
        return getitem(self, key)

    def backward(self):
        backward(self)


def _link(t: Tensor):
    """t's tape link: its record, t itself when a trainable leaf, else None."""
    if t._node is not None:
        return t._node
    return t if t.trainable else None


def _output(data: Array, *inputs: Tensor) -> tuple[Tensor, tuple | None]:
    """The result Tensor of an operation on inputs, with no record yet, and
    the inputs' links: None when the operation records nothing."""
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out.trainable, out._node = data, None, False, None
    if not _grad_enabled:
        return out, None
    links = tuple(map(_link, inputs))
    return out, (links if any(link is not None for link in links) else None)


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
    out, links = _output(a.data + b.data, a, b)
    if links is not None:
        sa, sb = a.shape, b.shape
        out._node = _Node(links, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out, links = _output(a.data - b.data, a, b)
    if links is not None:
        sa, sb = a.shape, b.shape
        out._node = _Node(links, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    _check_broadcast(a, b, "mul")
    out, links = _output(a.data * b.data, a, b)
    if links is not None:
        sa, sb = a.shape, b.shape
        # each operand's gradient reads the other operand's value
        ad = a.data if links[1] is not None else None
        bd = b.data if links[0] is not None else None
        def bwd(g):
            return (None if bd is None else _unbroadcast(g * bd, sa),
                    None if ad is None else _unbroadcast(g * ad, sb))
        out._node = _Node(links, bwd)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    out, links = _output(a.data / b.data, a, b)
    if links is not None:
        sa, sb = a.shape, b.shape
        need_a, need_b = links[0] is not None, links[1] is not None
        ad, bd = a.data if need_b else None, b.data
        def bwd(g):
            return (_unbroadcast(g / bd, sa) if need_a else None,
                    _unbroadcast(-g * ad / (bd * bd), sb) if need_b else None)
        out._node = _Node(links, bwd)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    out, links = _output(a.data * c, a)
    if links is not None:
        out._node = _Node(links, lambda g: (g * c,))
    return out


def attach(scalar: Tensor, x: Tensor, grad: Array, seed: float) -> Tensor:
    """scalar's value, linked to x alone (scalar's records may be released).

    grad is what x got from a backward that seeded scalar's gradient with
    seed, as backward(scale(scalar, seed)) does; the record hands x
    grad * (g / seed), which is grad, bit for bit, when g is seed."""
    if scalar.size != 1 or grad.shape != x.shape:
        raise ShapeError(f"attach: scalar {scalar.shape}, x {x.shape}, grad {grad.shape}")
    out, links = _output(scalar.data, x)
    if links is not None:
        out._node = _Node(links, lambda g: (grad * (g / seed),))
    return out


def shift(a: Tensor, c: float) -> Tensor:
    """a + c for a Python scalar c, which takes the dtype of a."""
    out, links = _output(a.data + c, a)
    if links is not None:
        out._node = _Node(links, lambda g: (g,))
    return out


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    out, links = _output(a.data @ b.data, a, b)
    if links is not None:
        sa, sb = a.shape, b.shape
        need_a, need_b = links[0] is not None, links[1] is not None
        # an operand's value is kept only for the other operand's gradient
        ad = a.data if need_b else None
        bd = b.data if need_a else None
        flat_b = b.ndim == 2 and a.ndim > 2
        def bwd(g):
            ga = gb = None
            if need_a:
                ga = _unbroadcast(g @ bd.swapaxes(-1, -2), sa)
            if need_b:
                if flat_b:
                    gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, sb)
            return (ga, gb)
        out._node = _Node(links, bwd)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one tape record; b broadcasts over the leading axes.

    The record keeps w's value only when x needs a gradient and x's only
    when w does, so an affine behind a frozen weight keeps w but not x.
    """
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"affine: inner dimensions disagree, {x.shape} @ {w.shape}")
    data = x.data @ w.data
    data += b.data
    out, links = _output(data, x, w, b)
    if links is not None:
        need_x, need_w, need_b = (link is not None for link in links)
        wd = w.data if need_x else None
        xd = x.data if need_w else None
        sb = b.shape
        def bwd(g):
            gx = gw = gb = None
            if need_x:
                gx = g @ wd.swapaxes(-1, -2)
            if need_w:
                gw = xd.reshape(-1, xd.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            if need_b:
                gb = _unbroadcast(g, sb)
            return (gx, gw, gb)
        out._node = _Node(links, bwd)
    return out


# -- shape manipulation -------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out, links = _output(a.data.reshape(shape), a)
    if links is not None:
        orig = a.shape
        out._node = _Node(links, lambda g: (g.reshape(orig),))
    return out


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    out, links = _output(a.data.transpose(axes), a)
    if links is not None:
        inv = tuple(np.argsort(axes))
        out._node = _Node(links, lambda g: (g.transpose(inv),))
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    """The tensors joined along axis; a lone tensor is returned as it is."""
    tensors = tuple(tensors)
    if len(tensors) == 1:
        return tensors[0]
    out, links = _output(np.concatenate([t.data for t in tensors], axis=axis), *tensors)
    if links is not None:
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]
        def bwd(g):
            return tuple(np.split(g, splits, axis=axis))
        out._node = _Node(links, bwd)
    return out


def getitem(a: Tensor, key) -> Tensor:
    out, links = _output(a.data[key], a)
    if links is not None:
        shape = a.shape
        def bwd(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[key] = g
            return (full,)
        out._node = _Node(links, bwd)
    return out


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out, links = _output(np.broadcast_to(a.data, shape).copy(), a)
    if links is not None:
        orig = a.shape
        out._node = _Node(links, lambda g: (_unbroadcast(g, orig),))
    return out


# -- reductions ------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out, links = _output(a.data.sum(axis=axis, keepdims=keepdims), a)
    if links is not None:
        shape = a.shape
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)
        out._node = _Node(links, bwd)
    return out


# -- pointwise nonlinearities -------------------------------------------------------------


def square(a: Tensor) -> Tensor:
    ad = a.data
    out, links = _output(ad * ad, a)
    if links is not None:
        out._node = _Node(links, lambda g: (2.0 * ad * g,))
    return out


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; its gradient at 0 is taken as 0.

    The library's norms sit under an epsilon denominator, which keeps the
    forward total at a zero vector; the zero gradient keeps the backward
    finite there instead of multiplying an infinite slope by zero.
    """
    res = np.sqrt(a.data)
    out, links = _output(res, a)
    if links is not None:
        def bwd(g):
            return (np.divide(0.5, res, out=np.zeros_like(res), where=res > 0.0) * g,)
        out._node = _Node(links, bwd)
    return out


def relu(a: Tensor) -> Tensor:
    out, links = _output(np.maximum(a.data, 0.0), a)
    if links is not None:
        mask = a.data > 0.0
        out._node = _Node(links, lambda g: (g * mask,))
    return out


# -- softmax family ------------------------------------------------------------------------


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if a.shape[-1] < 1:
        raise ShapeError("softmax_rows: last dimension must be >= 1")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    res = e / e.sum(axis=-1, keepdims=True)
    out, links = _output(res, a)
    if links is not None:
        def bwd(g):
            dot = (g * res).sum(axis=-1, keepdims=True)
            return ((g - dot) * res,)
        out._node = _Node(links, bwd)
    return out


def log_softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    res = shifted - lse
    out, links = _output(res, a)
    if links is not None:
        sm = np.exp(res)
        out._node = _Node(links, lambda g: (g - sm * g.sum(axis=-1, keepdims=True),))
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
    The record keeps its own arrays, never a view that pins a larger one:
    with a prefix the keys and values are concatenated copies, so it keeps a
    copy of the query rows too, and the projection is freed with the
    caller's Tensor; without one, q, k and v all view the projection.
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
    out, links = _output(res, qkv) if prefix is None else _output(res, qkv, prefix)
    if links is not None:
        need_qkv = links[0] is not None
        need_prefix = prefix is not None and links[1] is not None
        qkv_shape = qkv.shape
        prefix_shape = None if prefix is None else prefix.shape
        if not need_qkv:
            k = None  # only dQ reads the keys
        if prefix is not None and rows is None:  # k and v are copies already
            q = qd.copy().reshape(b, sq, heads, dh).transpose(0, 2, 1, 3)
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
                gqkv = (np.empty if rows is None else np.zeros)(qkv_shape, dtype=g.dtype)
                parts = gqkv.reshape(b, s, 3, heads, dh)
                parts[:, qrows, 0] = (ds @ k).transpose(0, 2, 1, 3)
                parts[:, :, 1] = dk[:, :, n_p:].transpose(0, 2, 1, 3)
                parts[:, :, 2] = dv[:, :, n_p:].transpose(0, 2, 1, 3)
            if need_prefix:
                gprefix = np.empty(prefix_shape, dtype=g.dtype)
                blocks = gprefix.reshape(b, 2, n_p, heads, dh)
                blocks[:, 0] = dk[:, :, :n_p].transpose(0, 2, 1, 3)
                blocks[:, 1] = dv[:, :, :n_p].transpose(0, 2, 1, 3)
            return (gqkv, gprefix)
        out._node = _Node(links, bwd)
    return out


def _mean_last(a: Array, n) -> Array:
    """``a.mean(axis=-1, keepdims=True)`` without numpy's wrapper: the same sum,
    then the same division by the integer count."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(out, n, out=out)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    n = np.intp(x.shape[-1])
    xhat = x.data - _mean_last(x.data, n)
    var = _mean_last(xhat * xhat, n)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    res = xhat * gamma.data
    res += beta.data
    out, links = _output(res, x, gamma, beta)
    if links is not None:
        need_x, need_gamma, need_beta = (link is not None for link in links)
        gd = gamma.data
        lead = tuple(range(x.ndim - 1))
        def bwd(g):
            dx = dgamma = dbeta = None
            if need_gamma:
                dgamma = (g * xhat).sum(axis=lead)
            if need_beta:
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
        out._node = _Node(links, bwd)
    return out


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row lookup into an embedding table; ids is an integer numpy array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding: token id out of range [0, {table.shape[0]}), "
            f"got min={ids.min()} max={ids.max()}"
        )
    out, links = _output(table.data[ids], table)
    if links is not None:
        shape = table.shape
        def bwd(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, ids.ravel(), g.reshape(-1, shape[-1]))
            return (full,)
        out._node = _Node(links, bwd)
    return out


# the epsilon under every cosine denominator: it makes a zero vector's cosine
# total and deterministic (0)
COSINE_EPS = 1e-12


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
    out, links = _output(np.asarray(vals.mean()), logits, target)
    if links is not None:
        n = z.size
        def bwd(g):
            s = 1.0 / (1.0 + np.exp(-z))
            return (g * (s - t) / n, None)
        out._node = _Node(links, bwd)
    return out


# -- reverse pass --------------------------------------------------------------------------


def backward(loss_tensor: Tensor):
    """Walk the tape back from a scalar and deposit grads on trainable leaves.

    The records reachable from the scalar are ordered first, so a record
    that an earlier backward released raises RuntimeError before any
    gradient is computed. The walk then pops each record in reverse
    topological order, runs its closure if a gradient reached it, and
    releases it: the closure, and with it every array it kept, is replaced
    by one that raises, and its links are dropped. No graph outlives its backward, and a second
    backward through any of its records fails instead of adding the
    gradients twice. Non-trainable tensors are never written to; interior
    accumulators live only in a transient table.
    """
    if loss_tensor.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss_tensor.shape}")
    root = _link(loss_tensor)
    if root is None:
        return

    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, False)]
    while stack:
        link, done = stack.pop()
        if done:
            order.append(link)
            continue
        if id(link) in seen:
            continue
        seen.add(id(link))
        stack.append((link, True))
        if type(link) is _Node:
            if link.backward is _released:
                raise RuntimeError(_RELEASED)
            for p in link.inputs:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    grads: dict[int, Array] = {id(root): np.ones_like(loss_tensor.data)}
    while order:
        link = order.pop()
        g = grads.pop(id(link), None)
        if type(link) is Tensor:
            if g is not None:
                link.grad = g if link.grad is None else link.grad + g
            continue
        fn, inputs = link.backward, link.inputs
        link.backward, link.inputs = _released, ()
        if g is None:
            continue
        for p, pg in zip(inputs, fn(g)):
            if pg is None or p is None:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# -- initializers --------------------------------------------------------------------------


def uniform_init(rng: np.random.Generator, shape, low: float, high: float) -> Tensor:
    return Tensor(rng.uniform(low, high, size=shape).astype(DTYPE), trainable=True)


def normal_init(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 0.02, size=shape).astype(DTYPE), trainable=True)


def zeros(shape, trainable: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DTYPE), trainable=trainable)


def ones(shape, trainable: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DTYPE), trainable=trainable)


# -- optimizer -----------------------------------------------------------------------------

# elements per chunk of an AdamW step: 64K float32 values are 256 KB per array,
# so a chunk's values, gradient, two moments and scratch (about 1.3 MB) fit in
# a 2 MiB per-core L2 cache
ADAMW_CHUNK = 1 << 16

# the lab's one schedule and AdamW setting: 10% linear warmup, then cosine decay
WARMUP_FRAC = 0.1
BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 0.01


def warmup_cosine_lr(step: int, base_lr: float, total_steps: int) -> float:
    """Linear ramp over the first WARMUP_FRAC of the steps, cosine decay to zero after it.

    `step` counts from 0; the rate is exactly `base_lr` at the end of
    warmup and exactly 0 at `total_steps`.
    """
    warmup = int(round(WARMUP_FRAC * total_steps))
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

    The schedule, betas, epsilon and weight decay are the module constants
    WARMUP_FRAC, BETAS, EPS and WEIGHT_DECAY.
    """

    def __init__(self, params, base_lr: float, total_steps: int):
        self.params = list(params)
        for p in self.params:
            if not p.trainable:
                raise ValueError("AdamW: received a non-trainable parameter")
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.step_count = 0
        # C order, so that each moment's flat view walks it in place
        self.m = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, p.data.dtype) for p in self.params]
        sizes: dict[np.dtype, int] = {}
        for p in self.params:
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), min(p.size, ADAMW_CHUNK))
        self._scratch = {dt: np.empty(n, dt) for dt, n in sizes.items()}

    def current_lr(self) -> float:
        return warmup_cosine_lr(self.step_count, self.base_lr, self.total_steps)

    def step(self):
        if all(p.grad is None for p in self.params):
            raise RuntimeError("optimizer step with no gradients populated")
        lr = self.current_lr()
        self.step_count += 1
        t = self.step_count
        b1, b2 = BETAS
        c1, c2 = 1.0 - b1, 1.0 - b2
        root_bc2 = math.sqrt(1.0 - b2 ** t)
        bc1_over_lr = (1.0 - b1 ** t) / lr if lr != 0.0 else 0.0
        decay = lr * WEIGHT_DECAY
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
                    s += EPS
                    s *= bc1_over_lr
                    np.divide(m, s, out=s)
                    # x - m / denom - (lr * wd) * x, rounded in that order
                    np.subtract(x, s, out=s)
                    x *= decay
                    np.subtract(s, x, out=x)
            if not np.may_share_memory(data, p.data):
                p.data[...] = data.reshape(p.shape)
            p.grad = None
