import ctypes
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq import tensor as T
from rebq.prompt import PromptPool, compute_weights
from rebq.tensor import AdamW, ShapeError, Tensor, warmup_cosine_lr


def finite_diff_grad(build_loss, param: Tensor, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of build_loss() w.r.t. param.data."""
    base = param.data
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = build_loss().item()
        flat[i] = orig - step
        lo = build_loss().item()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4):
    denom = np.maximum(np.abs(numeric), 1.0)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rtol, f"max relative error {rel.max():.3e}"


def rand(rng, *shape, trainable=True):
    return Tensor(rng.standard_normal(shape), trainable=trainable)


class TestElementwise:
    def test_multiply_hand_values(self):
        out = T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_add_identity(self):
        x = Tensor([1.5, -2.0, 0.25])
        out = T.add(x, T.zeros(3))
        np.testing.assert_array_equal(out.data, x.data)

    def test_multiply_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 3, 4)
        b = rand(rng, 3, 4, trainable=False)
        loss = T.tsum(T.mul(a, b))
        loss.backward()
        # closed form: d/da sum(a*b) = b
        assert_grad_close(a.grad, b.data, rtol=1e-12)
        numeric = finite_diff_grad(lambda: T.tsum(T.mul(a, b)), a)
        assert_grad_close(a.grad, numeric)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_scalar_operand_broadcasts(self):
        out = T.scale(Tensor([1.0, 2.0]), 2.5)
        np.testing.assert_array_equal(out.data, [2.5, 5.0])


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 4)))
        out = T.matmul(Tensor(np.eye(4)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_values(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        a = rand(rng, 3, 4)
        b = rand(rng, 4, 2)
        loss = T.tsum(T.square(T.matmul(a, b)))
        loss.backward()
        assert_grad_close(a.grad, finite_diff_grad(lambda: T.tsum(T.square(T.matmul(a, b))), a))
        assert_grad_close(b.grad, finite_diff_grad(lambda: T.tsum(T.square(T.matmul(a, b))), b))

    def test_batched_gradient(self):
        rng = np.random.default_rng(3)
        a = rand(rng, 2, 3, 4)
        w = rand(rng, 4, 5)
        def build():
            return T.tsum(T.square(T.matmul(a, w)))
        build().backward()
        assert_grad_close(a.grad, finite_diff_grad(build, a))
        assert_grad_close(w.grad, finite_diff_grad(build, w))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        row = rng.standard_normal(6)
        a = T.softmax_rows(Tensor(row))
        b = T.softmax_rows(Tensor(row + 123.456))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_hand_values(self):
        out = T.softmax_rows(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((8, 7)) * 20)
        out = T.softmax_rows(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(8), atol=1e-9)
        assert (out.data >= 0).all()

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = rand(rng, 2, 5)
        c = Tensor(rng.standard_normal((2, 5)))
        def build():
            return T.tsum(T.mul(T.softmax_rows(x), c))
        build().backward()
        assert_grad_close(x.grad, finite_diff_grad(build, x))


def cosine(a, b) -> float:
    """The library's one cosine, prompt.compute_weights, between a and b: the
    weight of query a for a one-key pool with key b and unit modulation."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    pool = PromptPool(attention=Tensor(np.ones((b.size, 1))), keys=Tensor(b[:, None]),
                      components=Tensor(np.zeros((1, 1, 2, 1, b.size))))
    return float(compute_weights(Tensor(a[None]), pool).data[0, 0])


class TestCosine:
    """The cosine and its epsilon denominator (T.COSINE_EPS)."""

    def test_self_similarity(self):
        v = np.random.default_rng(7).standard_normal(6)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_vectors_defined(self):
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            c = float(rng.uniform(0.01, 100.0))
            assert abs(cosine(a, b) - cosine(a * c, b)) < 1e-10


class TestLosses:
    def test_ce_uniform_logits(self):
        for c in (2, 5, 9):
            logits = Tensor(np.zeros(c))
            target = Tensor(T.one_hot(0, c))
            assert T.cross_entropy(logits, target).item() == pytest.approx(math.log(c), abs=1e-12)

    def test_ce_gradient_is_softmax_minus_target(self):
        rng = np.random.default_rng(9)
        logits = rand(rng, 6)
        target = Tensor(T.one_hot(2, 6))
        T.cross_entropy(logits, target).backward()
        expected = T.softmax_rows(Tensor(logits.data)).data - target.data
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            T.one_hot(7, 5)

    def test_bce_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rand(rng, 4, 3)
        target = Tensor((rng.uniform(size=(4, 3)) > 0.5).astype(float))
        def build():
            return T.binary_cross_entropy(logits, target)
        build().backward()
        assert_grad_close(logits.grad, finite_diff_grad(build, logits))


class TestBackward:
    def test_sum_of_squares_closed_form(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 5)
        T.tsum(T.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_composite_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        w = rand(rng, 4, 3)
        x = Tensor(rng.standard_normal((3, 2)))
        def build():
            return T.tsum(T.softmax_rows(T.transpose(T.matmul(w, x), (1, 0))))
        build().backward()
        assert_grad_close(w.grad, finite_diff_grad(build, w))

    def test_frozen_graph_writes_no_gradients(self):
        x = Tensor([1.0, 2.0], trainable=False)
        loss = T.tsum(T.square(x))
        loss.backward()
        assert x.grad is None

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            T.backward(Tensor([1.0, 2.0]))

    def test_reuse_accumulates_within_one_graph(self):
        x = Tensor([2.0], trainable=True)
        loss = T.tsum(T.add(T.square(x), T.square(x)))
        loss.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([3.0], trainable=True)
        T.tsum(T.square(x)).backward()
        T.tsum(T.square(x)).backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_detach_blocks_flow(self):
        """A value rewrapped in a new Tensor is a constant: it carries no tape."""
        x = Tensor([1.0, 2.0], trainable=True)
        y = Tensor(T.square(x).data)
        loss = T.tsum(T.mul(y, Tensor([1.0, 1.0])))
        loss.backward()
        assert x.grad is None

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(13)
        x = rand(rng, 3, 6)
        gamma = Tensor(rng.standard_normal(6), trainable=True)
        beta = Tensor(rng.standard_normal(6), trainable=True)
        def build():
            return T.tsum(T.square(T.layer_norm(x, gamma, beta)))
        build().backward()
        assert_grad_close(x.grad, finite_diff_grad(build, x))
        assert_grad_close(gamma.grad, finite_diff_grad(build, gamma))
        assert_grad_close(beta.grad, finite_diff_grad(build, beta))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 6), (4, 1, 64), (2, 7, 64), (1, 1, 8), (5,)])
    def test_layer_norm_matches_mean_formula_bytes(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        x = Tensor(rng.standard_normal(shape).astype(dtype), trainable=True)
        gamma = Tensor(rng.standard_normal(shape[-1]).astype(dtype), trainable=True)
        beta = Tensor(rng.standard_normal(shape[-1]).astype(dtype), trainable=True)
        g = rng.standard_normal(shape).astype(dtype)
        out = T.layer_norm(x, gamma, beta)
        T.tsum(T.mul(out, Tensor(g))).backward()
        ref, dx, dgamma, dbeta = reference_layer_norm(x.data, gamma.data, beta.data, g)
        for got, want in ((out.data, ref), (x.grad, dx), (gamma.grad, dgamma),
                          (beta.grad, dbeta)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_relu_embedding_concat_getitem_gradients(self):
        rng = np.random.default_rng(14)
        table = rand(rng, 7, 4)
        ids = np.array([[1, 3], [6, 1]])
        other = rand(rng, 2, 2, 4)
        def build():
            emb = T.embedding(table, ids)
            seq = T.concat([T.relu(emb), other], axis=1)
            return T.tsum(T.square(seq[:, 1:3]))
        build().backward()
        assert_grad_close(table.grad, finite_diff_grad(build, table))
        assert_grad_close(other.grad, finite_diff_grad(build, other))

    def test_concat_of_one_tensor_is_that_tensor(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), trainable=True)
        assert T.concat([x], axis=1) is x
        T.tsum(T.square(T.concat([x], axis=0))).backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_no_grad_skips_tape(self):
        x = Tensor([1.0], trainable=True)
        with T.no_grad():
            y = T.square(x)
        assert y._node is None


class TestRelease:
    """A record keeps only what its backward reads, and backward releases it."""

    @pytest.mark.parametrize("make", [
        lambda x: T.add(x, x),
        T.relu,
        lambda x: T.layer_norm(x, T.ones(3), T.zeros(3))],
        ids=["add", "relu", "layer_norm"])
    def test_value_no_backward_reads_dies_with_its_tensor(self, make):
        """Behind a frozen-weight affine nothing reads the intermediate's value,
        so it is freed once the caller drops the tensor, graph still alive."""
        rng = np.random.default_rng(30)
        x = rand(rng, 4, 3)
        h = make(x)
        value = weakref.ref(h.data)
        loss = T.tsum(T.affine(h, Tensor(rng.standard_normal((3, 2))), T.zeros(2)))
        del h
        assert value() is None
        loss.backward()
        assert x.grad.shape == x.shape

    def test_backward_frees_the_graph(self):
        """The loss stays referenced, yet after its backward only the gradient
        remains of everything its forward allocated."""
        rng = np.random.default_rng(31)
        width = 64
        frozen = [(Tensor(rng.standard_normal((width, width)).astype(np.float32)),
                   T.zeros(width)) for _ in range(4)]
        gamma, beta = T.ones(width), T.zeros(width)
        p = Tensor(rng.standard_normal((256, width)).astype(np.float32), trainable=True)

        def build():
            x = p
            for w, b in frozen:
                x = T.add(x, T.relu(T.affine(T.layer_norm(x, gamma, beta), w, b)))
            return T.tsum(T.square(x))

        build().backward()  # numpy's first calls allocate caches of their own
        p.grad = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = build()
            graph = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            after = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert graph >= 4 * p.data.nbytes
        # a few KB of Python objects besides the gradient
        assert after <= p.grad.nbytes + 8192

    @pytest.mark.parametrize("n_p", [3, None], ids=["prefix", "no-prefix"])
    def test_attention_record_pins_no_projection_it_does_not_view(self, n_p):
        """With a prefix the keys and values are concatenated copies, so the
        record keeps its own query rows and the packed projection dies with
        the caller's Tensor. Without one, q, k and v all view the projection
        and the record copies nothing. Either way the gradients are the
        float64 unfused chain's."""
        from test_attention import case, run, unfused_attention
        rng = np.random.default_rng(32)
        qkv_data, pre_data, coeff = case(rng, 2, 6, 2, 4, n_p, None)
        x = Tensor(qkv_data.copy(), trainable=True)
        prefix = None if n_p is None else Tensor(pre_data.copy(), trainable=True)
        qkv = T.scale(x, 1.0)  # a projection no other record keeps
        out = T.attention(qkv, 2, prefix)
        kept = [cell.cell_contents for cell in out._node.backward.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        views = sum(np.shares_memory(a, qkv.data) for a in kept)
        loss = T.tsum(T.mul(out, Tensor(coeff)))
        projection = weakref.ref(qkv.data)
        del qkv, out
        if n_p is None:
            assert views == 3 and projection() is not None
        else:
            assert views == 0 and projection() is None
        loss.backward()
        _, want_qkv, want_prefix = run(unfused_attention, qkv_data, 2, pre_data, None, coeff)
        np.testing.assert_allclose(x.grad, want_qkv, rtol=0, atol=1e-12)
        if n_p is not None:
            np.testing.assert_allclose(prefix.grad, want_prefix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shared", [False, True], ids=["same-loss", "shared-record"])
    def test_second_backward_through_released_records_raises(self, shared):
        x = Tensor([3.0], trainable=True)
        y = T.square(x)
        loss = T.tsum(y)
        loss.backward()
        again = T.tsum(T.scale(y, 2.0)) if shared else loss
        with pytest.raises(RuntimeError,
                           match="backward: this graph was released by an earlier backward"):
            again.backward()
        np.testing.assert_array_equal(x.grad, [6.0])


class TestAttach:
    """attach carries a gradient an earlier backward computed into a later graph."""

    def lr_term(self, rng, lam):
        """A scalar whose backward at weight lam already ran, the leaf it reached,
        and what that leaf got."""
        leaf = Tensor(rng.standard_normal((3, 4)).astype(np.float32), trainable=True)
        loss = T.tsum(T.square(leaf))
        T.backward(T.scale(loss, lam))
        return loss, leaf.grad

    def test_value_unchanged(self):
        rng = np.random.default_rng(40)
        loss, grad = self.lr_term(rng, 0.01)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), trainable=True)
        out = T.attach(loss, x, grad, 0.01)
        assert out.data.tobytes() == loss.data.tobytes()
        assert out.data.dtype == np.float32

    @pytest.mark.parametrize("lam", [0.01, 1.0, 0.37])
    def test_gradient_delivered_exactly(self, lam):
        """In other + lam * term, x gets the earlier backward's gradient bit
        for bit, through whatever records lie between x and its leaves."""
        rng = np.random.default_rng(41)
        loss, grad = self.lr_term(rng, lam)
        p = Tensor(rng.standard_normal((3, 4)).astype(np.float32), trainable=True)
        coeff = rng.standard_normal((3, 4)).astype(np.float32)
        x = T.reshape(T.reshape(p, (12,)), (3, 4))
        other = T.tsum(T.mul(p, Tensor(coeff)))
        T.add(other, T.scale(T.attach(loss, x, grad, lam), lam)).backward()
        assert p.grad.tobytes() == (grad + coeff).tobytes()

    def test_gradient_scales_with_the_incoming_gradient(self):
        rng = np.random.default_rng(42)
        loss, grad = self.lr_term(rng, 0.5)
        x = Tensor(np.zeros((3, 4), np.float32), trainable=True)
        T.scale(T.attach(loss, x, grad, 0.5), 3.0).backward()
        np.testing.assert_allclose(x.grad, grad * 6.0, rtol=1e-6)

    def test_backward_releases_the_record(self):
        rng = np.random.default_rng(43)
        loss, grad = self.lr_term(rng, 1.0)
        x = Tensor(np.zeros((3, 4), np.float32), trainable=True)
        out = T.attach(loss, x, grad, 1.0)
        out.backward()
        with pytest.raises(RuntimeError,
                           match="backward: this graph was released by an earlier backward"):
            out.backward()
        assert x.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("scalar_shape, grad_shape", [((), (4, 3)), ((), (3,)),
                                                          ((2,), (3, 4))],
                             ids=["transposed-grad", "short-grad", "non-scalar"])
    def test_shape_mismatch_refused(self, scalar_shape, grad_shape):
        x = Tensor(np.zeros((3, 4), np.float32), trainable=True)
        with pytest.raises(ShapeError, match="attach"):
            T.attach(Tensor(np.zeros(scalar_shape, np.float32)), x,
                     np.zeros(grad_shape, np.float32), 1.0)

    def test_no_record_without_grad(self):
        rng = np.random.default_rng(44)
        loss, grad = self.lr_term(rng, 1.0)
        x = Tensor(np.zeros((3, 4), np.float32), trainable=True)
        with T.no_grad():
            assert T.attach(loss, x, grad, 1.0)._node is None


class TestDeterminism:
    def test_seeded_init_bit_identical(self):
        a = T.uniform_init(np.random.default_rng(42), (5, 5), -1.0, 1.0)
        b = T.uniform_init(np.random.default_rng(42), (5, 5), -1.0, 1.0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_op_sequence_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            x = T.normal_init(rng, (4, 4))
            y = T.softmax_rows(T.matmul(x, x))
            return y.data.tobytes()
        assert run() == run()


def reference_adamw_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.01):
    """The AdamW update in the operation order AdamW.step has always used."""
    m[:] = m * b1 + (1.0 - b1) * g
    v[:] = v * b2 + (1.0 - b2) * (g * g)
    if lr != 0.0:
        denom = (np.sqrt(v) / math.sqrt(1.0 - b2 ** t) + eps) * ((1.0 - b1 ** t) / lr)
        p[:] = p - m / denom - (lr * wd) * p


def reference_layer_norm(x, gamma, beta, g, eps=1e-5):
    """Layer norm and its gradients for upstream g, in np.mean form."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    lead = tuple(range(x.ndim - 1))
    dy = g * gamma
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                - xhat * (dy * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma + beta, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


@st.composite
def adamw_cases(draw):
    """Parameters around the chunk boundaries, mixed dtypes and layouts, and
    for each step which gradients are present."""
    c = T.ADAMW_CHUNK
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([1, c - 1, c, c + 1, 2 * c + 7]),
                          min_size=n, max_size=n))
    dtypes = draw(st.lists(st.sampled_from([np.float32, np.float64]), min_size=n, max_size=n))
    strided = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    steps = draw(st.integers(3, 5))
    present = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n)
                            .filter(any), min_size=steps, max_size=steps))
    return sizes, dtypes, strided, present, draw(st.integers(0, 2 ** 32 - 1))


class TestOptimizer:
    def test_schedule_endpoints(self):
        base, total = 1e-4, 200
        assert warmup_cosine_lr(0, base, total) == 0.0
        assert warmup_cosine_lr(20, base, total) == base
        assert warmup_cosine_lr(total, base, total) == pytest.approx(0.0, abs=1e-20)
        for s in range(0, total + 1):
            assert warmup_cosine_lr(s, base, total) >= 0.0

    def test_zero_lr_step_keeps_parameters(self):
        p = Tensor([1.0, 2.0], trainable=True)
        opt = AdamW([p], base_lr=1e-2, total_steps=100)
        p.grad = np.array([1.0, 1.0])
        before = p.data.copy()
        opt.step()  # step 0 of warmup: lr == 0
        np.testing.assert_array_equal(p.data, before)

    def test_step_without_gradients_rejected(self):
        p = Tensor([1.0], trainable=True)
        opt = AdamW([p], base_lr=1e-3, total_steps=10)
        with pytest.raises(RuntimeError):
            opt.step()

    def test_step_moves_parameters_and_clears_grads(self):
        rng = np.random.default_rng(15)
        p = rand(rng, 3)
        # at 5 steps or fewer the 10% warmup rounds to none, so step 0 moves
        opt = AdamW([p], base_lr=1e-3, total_steps=5)
        p.grad = np.ones(3)
        before = p.data.copy()
        opt.step()
        assert not np.array_equal(p.data, before)
        assert p.grad is None

    def test_non_trainable_param_rejected(self):
        with pytest.raises(ValueError):
            AdamW([Tensor([1.0])], base_lr=1e-3, total_steps=10)

    def test_decoupled_weight_decay_single_step(self):
        # one step from zero moments has a closed form
        p = Tensor([2.0], trainable=True)
        opt = AdamW([p], base_lr=0.1, total_steps=1)
        p.grad = np.array([0.5])
        opt.step()
        mhat = 0.5
        vhat = 0.25
        expected = 2.0 - 0.1 * (mhat / (math.sqrt(vhat) + 1e-8) + 0.01 * 2.0)
        np.testing.assert_allclose(p.data, [expected], atol=1e-12)

    def test_float64_step_equals_reference_formula(self):
        rng = np.random.default_rng(16)
        params = [rand(rng, 4, 5), rand(rng, 3)]
        ref = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(r) for r in ref]
        ref_v = [np.zeros_like(r) for r in ref]
        opt = AdamW(params, base_lr=1e-2, total_steps=8)
        for step in range(8):
            lr = opt.current_lr()
            for i, p in enumerate(params):
                g = rng.standard_normal(p.shape)
                p.grad = g.copy()
                reference_adamw_step(ref[i], g, ref_m[i], ref_v[i], step + 1, lr)
            opt.step()
            for i, p in enumerate(params):
                assert np.array_equal(p.data, ref[i])
                assert np.array_equal(opt.m[i], ref_m[i])
                assert np.array_equal(opt.v[i], ref_v[i])

    @settings(max_examples=25, deadline=None)
    @given(adamw_cases())
    def test_chunked_step_equals_reference_bytes(self, case):
        sizes, dtypes, strided, present, seed = case
        rng = np.random.default_rng(seed)
        params, bases = [], []
        for n, dt, is_strided in zip(sizes, dtypes, strided):
            # a strided parameter is every other element of a larger array
            base = rng.standard_normal(2 * n if is_strided else n).astype(dt)
            bases.append(base)
            params.append(Tensor(base[::2] if is_strided else base, trainable=True))
        ref = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(r) for r in ref]
        ref_v = [np.zeros_like(r) for r in ref]
        # 10% of 10 steps is one warmup step, so step 0 runs at lr == 0
        opt = AdamW(params, base_lr=1e-2, total_steps=10)
        for step, mask in enumerate(present):
            lr = opt.current_lr()
            if step == 0:
                assert lr == 0.0
            for i, p in enumerate(params):
                p.grad = None
                if mask[i]:
                    g = rng.standard_normal(p.shape).astype(dtypes[i])
                    p.grad = g.copy()
                    reference_adamw_step(ref[i], g, ref_m[i], ref_v[i], step + 1, lr)
            opt.step()
            for i, p in enumerate(params):
                assert p.grad is None
                assert p.data.tobytes() == ref[i].tobytes()
                assert opt.m[i].tobytes() == ref_m[i].tobytes()
                assert opt.v[i].tobytes() == ref_v[i].tobytes()
        for base, is_strided, r in zip(bases, strided, ref):
            if is_strided:
                assert base[::2].tobytes() == r.tobytes()

    def test_transposed_parameter_is_updated_in_place(self):
        rng = np.random.default_rng(19)
        base = rng.standard_normal((300, 500)).astype(np.float32)
        p = Tensor(base.T, trainable=True)
        ref, g = base.T.copy(), rng.standard_normal((500, 300)).astype(np.float32)
        opt = AdamW([p], base_lr=1e-2, total_steps=4)
        reference_adamw_step(ref, g, np.zeros_like(ref), np.zeros_like(ref), 1,
                             opt.current_lr())
        p.grad = g
        opt.step()
        assert p.data.base is base
        assert p.data.tobytes() == ref.tobytes()

    def test_scratch_is_at_most_one_chunk_per_dtype(self):
        c = T.ADAMW_CHUNK
        rng = np.random.default_rng(18)
        params = [Tensor(rng.standard_normal(n).astype(dt), trainable=True)
                  for n, dt in ((3 * c + 5, np.float32), (c - 1, np.float32),
                                (2 * c, np.float64), (7, np.float64))]
        moments = 2 * sum(p.data.nbytes for p in params)
        chunks = c * (4 + 8)
        tracemalloc.start()
        try:
            opt = AdamW(params, base_lr=1e-2, total_steps=4)
            held = tracemalloc.get_traced_memory()[0]
            for p in params:
                p.grad = np.ones_like(p.data)
            before_step = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            opt.step()
            step_peak = tracemalloc.get_traced_memory()[1] - before_step
        finally:
            tracemalloc.stop()
        # a few KB of Python objects besides the arrays
        assert held <= moments + chunks + 8192
        assert step_peak <= 8192

    def test_aliased_gradients_update_each_parameter(self):
        rng = np.random.default_rng(17)
        a, b = rand(rng, 3), rand(rng, 3)
        c = Tensor(rng.standard_normal(3))
        T.tsum(T.mul(T.add(a, b), c)).backward()
        # add hands both operands one gradient array and backward keeps it
        assert a.grad is b.grad
        copies = [Tensor(a.data.copy(), trainable=True), Tensor(b.data.copy(), trainable=True)]
        for q in copies:
            q.grad = c.data.copy()
        opt = AdamW([a, b], base_lr=1e-2, total_steps=4)
        ref_opt = AdamW(copies, base_lr=1e-2, total_steps=4)
        opt.step()
        ref_opt.step()
        assert np.array_equal(a.data, copies[0].data)
        assert np.array_equal(b.data, copies[1].data)


class TestGradientSuite:
    """Finite-difference checks on random instances with dims <= 8."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_small_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rand(rng, 4, 6)
        b = rand(rng, 6, 5)
        c = rand(rng, 5)
        def build():
            h = T.relu(T.matmul(a, b))
            h = T.add(h, c)
            p = T.softmax_rows(h)
            return T.scale(T.tsum(T.sqrt(T.add(T.square(p), Tensor(1.0)))), 1.0 / p.size)
        build().backward()
        for p in (a, b, c):
            assert_grad_close(p.grad, finite_diff_grad(build, p))


class TestBlas:
    def test_bundled_openblas_runs_on_one_thread(self):
        get_threads = T._openblas_function("get_num_threads")
        if get_threads is None:
            pytest.skip("numpy bundles no OpenBLAS")
        get_threads.restype = ctypes.c_int
        assert get_threads() == 1


class TestAllocator:
    @pytest.mark.skipif(T._libc_mallopt() is None, reason="the C library has no mallopt")
    def test_freed_tape_memory_is_reused(self):
        """A tracked pass reuses the memory the previous pass's tape freed.

        Each pass allocates about 16 MB of activations and gradients in 512 KB
        arrays and frees them with its graph. A C library that hands them back
        to the kernel takes every page again as a minor fault on the next pass
        (about 900 per pass with glibc's defaults).
        """
        import resource
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((256, 512)).astype(np.float32), trainable=True)
        w = Tensor((rng.standard_normal((512, 512)) / 20).astype(np.float32),
                   trainable=True)
        b = Tensor(np.zeros(512, np.float32), trainable=True)

        def tracked_pass():
            h = x
            for _ in range(8):
                h = T.relu(T.affine(h, w, b))
            T.tsum(T.square(h)).backward()

        for _ in range(3):
            tracked_pass()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            tracked_pass()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100
