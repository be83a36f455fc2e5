"""The fused attention node against the per-op chain it replaced."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebq import tensor as T
from rebq.pipeline import _targets, forward_batch
from rebq.tensor import ShapeError, Tensor

from conftest import TINY
from tensor_oracle import softmax_rows, transpose
from test_pipeline import make_model
from test_tensor import assert_grad_close, finite_diff_grad


def unfused_attention(qkv: Tensor, heads: int, prefix: Tensor | None = None,
                      rows=None) -> Tensor:
    """One attention block as slices, concats, head split, matmul, scale,
    softmax_rows, matmul and head merge, each its own tape record."""
    b, _, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    q = qkv[:, :, :d] if rows is None else qkv[:, rows, :d]
    k, v = qkv[:, :, d:2 * d], qkv[:, :, 2 * d:]
    if prefix is not None:
        k = T.concat([prefix[:, 0], k], axis=1)
        v = T.concat([prefix[:, 1], v], axis=1)
    sq, skv = q.shape[1], k.shape[1]
    q = transpose(T.reshape(q, (b, sq, heads, dh)), (0, 2, 1, 3))
    k = transpose(T.reshape(k, (b, skv, heads, dh)), (0, 2, 1, 3))
    v = transpose(T.reshape(v, (b, skv, heads, dh)), (0, 2, 1, 3))
    scores = T.scale(T.matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    out = transpose(T.matmul(softmax_rows(scores), v), (0, 2, 1, 3))
    return T.reshape(out, (b, sq, d))


def run(op, qkv_data, heads, prefix_data, rows, coeff, track_qkv=True):
    """Output, qkv gradient and prefix gradient of sum(op(...) * coeff)."""
    qkv = Tensor(qkv_data.copy(), trainable=track_qkv)
    prefix = None if prefix_data is None else Tensor(prefix_data.copy(), trainable=True)
    out = op(qkv, heads, prefix, rows)
    T.tsum(T.mul(out, Tensor(coeff))).backward()
    return out.data, qkv.grad, None if prefix is None else prefix.grad


def case(rng, b, s, heads, dh, n_p, rows, dtype=np.float64):
    """Random qkv, prefix (None when n_p is None) and output coefficients."""
    d = heads * dh
    qkv = rng.standard_normal((b, s, 3 * d)).astype(dtype)
    prefix = None if n_p is None else rng.standard_normal((b, 2, n_p, d)).astype(dtype)
    sq = s if rows is None else len(rows)
    return qkv, prefix, rng.standard_normal((b, sq, d)).astype(dtype)


def assert_same(fused, unfused, atol=1e-12):
    for got, want in zip(fused, unfused):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


PREFIXES = {"prefix": 3, "no-prefix": None, "empty-prefix": 0}
ROWS = {"all-rows": None, "row-subset": [4, 0, 2]}


class TestFusedAttention:
    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("seed", range(3))
    def test_float64_matches_unfused_chain(self, prefix, rows, seed):
        rng = np.random.default_rng(seed)
        qkv, pre, coeff = case(rng, 2, 6, 2, 4, PREFIXES[prefix], ROWS[rows])
        fused = run(T.attention, qkv, 2, pre, ROWS[rows], coeff)
        unfused = run(unfused_attention, qkv, 2, pre, ROWS[rows], coeff)
        assert_same(fused, unfused)

    def test_untracked_qkv_with_tracked_prefix(self):
        """Layer 0: qkv comes from the constant embedding, only the prefix learns."""
        rng = np.random.default_rng(3)
        qkv, pre, coeff = case(rng, 2, 5, 2, 4, 3, None)
        fused = run(T.attention, qkv, 2, pre, None, coeff, track_qkv=False)
        unfused = run(unfused_attention, qkv, 2, pre, None, coeff, track_qkv=False)
        assert fused[1] is None
        assert_same(fused, unfused)
        out = T.attention(Tensor(qkv), 2, Tensor(pre, trainable=True))
        gqkv, gprefix = out._node.backward(coeff)
        assert gqkv is None and gprefix.shape == pre.shape

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("rows", ROWS)
    def test_float32_bit_identical_to_unfused_chain(self, prefix, rows):
        """Same arithmetic order as the chain, so the library's float32 results
        do not move."""
        rng = np.random.default_rng(4)
        qkv, pre, coeff = case(rng, 3, 7, 4, 8, PREFIXES[prefix], ROWS[rows], np.float32)
        fused = run(T.attention, qkv, 4, pre, ROWS[rows], coeff)
        unfused = run(unfused_attention, qkv, 4, pre, ROWS[rows], coeff)
        for got, want in zip(fused, unfused):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        qkv_data, pre_data, coeff = case(rng, 1, 3, 2, 2, 2, [2, 0])
        qkv = Tensor(qkv_data, trainable=True)
        prefix = Tensor(pre_data, trainable=True)
        def build():
            return T.tsum(T.mul(T.attention(qkv, 2, prefix, [2, 0]), Tensor(coeff)))
        build().backward()
        assert_grad_close(qkv.grad, finite_diff_grad(build, qkv))
        assert_grad_close(prefix.grad, finite_diff_grad(build, prefix))

    @pytest.mark.parametrize("qkv_shape, prefix_shape", [
        ((2, 3, 10), None), ((2, 3, 9), None), ((3, 12), None),
        ((2, 3, 12), (2, 3, 1, 4)), ((2, 3, 12), (1, 2, 1, 4)), ((2, 3, 12), (2, 2, 1, 5))])
    def test_bad_shapes_rejected(self, qkv_shape, prefix_shape):
        prefix = None if prefix_shape is None else T.zeros(prefix_shape)
        with pytest.raises(ShapeError, match="attention"):
            T.attention(T.zeros(qkv_shape), 2, prefix)


@st.composite
def attention_cases(draw):
    b, s = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    heads, dh = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n_p = draw(st.one_of(st.none(), st.integers(0, 4)))
    rows = draw(st.one_of(st.none(), st.lists(st.integers(0, s - 1), min_size=1,
                                              max_size=s, unique=True)))
    return b, s, heads, dh, n_p, rows, draw(st.integers(0, 2**32 - 1))


class TestFusedAttentionProperty:
    @settings(max_examples=60, deadline=None)
    @given(attention_cases())
    def test_fused_equals_unfused(self, params):
        b, s, heads, dh, n_p, rows, seed = params
        qkv, pre, coeff = case(np.random.default_rng(seed), b, s, heads, dh, n_p, rows)
        assert_same(run(T.attention, qkv, heads, pre, rows, coeff),
                    run(unfused_attention, qkv, heads, pre, rows, coeff))


class TestTape:
    def test_one_attention_record_per_layer_and_tracked_pass(self, tiny_backbone,
                                                               tiny_benchmark, monkeypatch):
        """Each attention block of the training graph is one tape record.

        Three passes are tracked: the counterparts' reconstruction, which is
        back-propagated and released inside forward_batch, the incomplete
        rows' reconstruction and the classification, which stay in the
        step's graph. The unified query pass runs untracked.
        """
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        batch = stream.train_data(0)[:6]
        assert {s.missing_type for s in batch} > {"complete"}
        recorded = []
        attention = T.attention

        def counting(*args, **kwargs):
            out = attention(*args, **kwargs)
            recorded.append(out._node is not None)
            return out

        monkeypatch.setattr(T, "attention", counting)
        logits, l_r = forward_batch(model, batch, with_lr=True)
        assert sum(recorded) == 3 * TINY.num_layers
        l_c = T.cross_entropy(logits, _targets(model, batch, False))
        loss = T.add(l_c, T.scale(l_r, model.mcfg.lam))
        ops: Counter = Counter()
        seen, stack = set(), [loss._node]
        while stack:
            node = stack.pop()
            if not isinstance(node, T._Node) or id(node) in seen:
                continue
            seen.add(id(node))
            ops[node.backward.__qualname__.split(".")[0]] += 1
            stack.extend(node.inputs)
        assert ops["attention"] == 2 * TINY.num_layers
        assert ops["attach"] == 1
        # only the library's own ops record: none of the per-op chain's transposes or softmax
        assert all(callable(getattr(T, op, None)) for op in ops)
