import math

import numpy as np
import pytest

from rebq import tensor as T
from rebq.prompt import (PromptPool, aggregate, compute_weights, init_pool, init_vector,
                         select_prompt)
from rebq.tensor import Tensor

from conftest import float64
from test_tensor import assert_grad_close, finite_diff_grad


def small_pool(seed=0, dim=4, k=3, n_p=2, layers=2):
    return init_pool(np.random.default_rng(seed), dim, k, n_p, layers)


class TestWeights:
    def test_parallel_query_unit_weight(self):
        pool = float64(small_pool())
        pool.attention.data[:] = 1.0
        key = pool.keys.data[:, 1]
        w = compute_weights(Tensor(2.5 * key[None]), pool)
        assert w.data[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_query_zero_weights(self):
        pool = small_pool()
        w = compute_weights(T.zeros((1, 4)), pool)
        np.testing.assert_array_equal(w.data, np.zeros((1, 3)))

    def test_hand_value(self):
        # D=2, K=1, q=(1,1), A=(1,1), key=(1,0): cos((1,1),(1,0)) = 1/sqrt(2)
        pool = PromptPool(
            attention=Tensor(np.array([[1.0], [1.0]]), trainable=True),
            keys=Tensor(np.array([[1.0], [0.0]]), trainable=True),
            components=Tensor(np.zeros((1, 1, 2, 1, 2)), trainable=True))
        w = compute_weights(Tensor(np.array([[1.0, 1.0]])), pool)
        assert w.data[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            compute_weights(T.zeros((1, 5)), small_pool(dim=4))

    def test_batched_matches_single(self):
        pool = small_pool(seed=3)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((5, 4))
        batch = compute_weights(Tensor(q), pool).data
        for i in range(5):
            single = compute_weights(Tensor(q[i:i + 1]), pool).data
            np.testing.assert_allclose(batch[i:i + 1], single, atol=1e-14)

    def test_weights_in_range_1000_random(self):
        rng = np.random.default_rng(5)
        for trial in range(1000):
            pool = small_pool(seed=trial % 17, dim=4, k=3)
            q = Tensor(rng.standard_normal((1, 4)) * rng.uniform(0.01, 10))
            w = compute_weights(q, pool).data
            assert (np.abs(w) <= 1.0 + 1e-12).all()


def elementwise_weights(query: Tensor, pool: PromptPool) -> Tensor:
    """The cosine weights through an explicit (B, D, K) modulated query."""
    b, d = query.shape
    modulated = T.mul(T.reshape(query, (b, d, 1)), pool.attention)
    dots = T.tsum(T.mul(modulated, pool.keys), axis=1)
    qnorm = T.sqrt(T.tsum(T.square(modulated), axis=1))
    knorm = T.sqrt(T.tsum(T.square(pool.keys), axis=0))
    return T.div(dots, T.shift(T.mul(qnorm, knorm), T.COSINE_EPS))


class TestGemmCosines:
    @pytest.mark.parametrize("seed", range(5))
    def test_weights_and_gradients_match_elementwise_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        base = float64(small_pool(seed=seed, dim=8, k=5))
        q_data = rng.standard_normal((6, 8)) * rng.uniform(0.01, 10.0)
        coeff = Tensor(rng.standard_normal((6, 5)))
        results = []
        for weights in (compute_weights, elementwise_weights):
            pool = float64(base)
            q = Tensor(q_data.copy(), trainable=True)
            w = weights(q, pool)
            T.tsum(T.mul(w, coeff)).backward()
            results.append([w.data, q.grad, pool.attention.grad, pool.keys.grad])
        for got, want in zip(*results):
            assert np.isfinite(want).all()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestZeroQuery:
    def test_zero_row_gives_finite_gradients(self):
        """An all-zero query row keeps every gradient finite.

        The norm's gradient at zero is taken as zero, as the forward's epsilon
        denominator makes the weights total there; before, the square root's
        backward multiplied an infinite slope by zero and the shared
        attention gradient became NaN.
        """
        rng = np.random.default_rng(20)
        base = float64(small_pool(seed=21, dim=8, k=5))
        q_data = rng.standard_normal((4, 8))
        coeff = rng.standard_normal((4, 5))

        def grads(rows, zero_row=None):
            pool = float64(base)
            q_rows = q_data[rows].copy()
            if zero_row is not None:
                q_rows[zero_row] = 0.0
            q = Tensor(q_rows, trainable=True)
            w = compute_weights(q, pool)
            T.tsum(T.mul(w, Tensor(coeff[rows]))).backward()
            return q.grad, pool.attention.grad, pool.keys.grad

        every, keep = [0, 1, 2, 3], [0, 1, 3]
        q_grad, att_grad, key_grad = grads(every, zero_row=2)
        for g in (q_grad, att_grad, key_grad):
            assert np.isfinite(g).all()
        # a row's query gradient depends on that row alone
        assert np.array_equal(q_grad[keep], grads(every)[0][keep])
        # the zero row adds nothing to the pool's gradients
        _, att_ref, key_ref = grads(keep)
        np.testing.assert_allclose(att_grad, att_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(key_grad, key_ref, rtol=0, atol=1e-12)


class TestAggregate:
    def test_one_hot_selects_component_exactly(self):
        pool = small_pool(seed=6)
        for k in range(3):
            block = aggregate(Tensor(T.one_hot([k], 3)), pool).data[0]
            assert block.tobytes() == pool.components.data[k].tobytes()

    def test_zero_weights_zero_block(self):
        pool = small_pool(seed=7)
        block = aggregate(T.zeros((1, 3)), pool)
        assert not block.data.any()

    def test_average_matches_brute_force(self):
        pool = small_pool(seed=8, k=2)
        block = aggregate(Tensor([[0.5, 0.5]]), pool).data[0]
        brute = 0.5 * pool.components.data[0] + 0.5 * pool.components.data[1]
        np.testing.assert_allclose(block, brute, atol=1e-15)

    def test_brute_force_summation_oracle_random(self):
        rng = np.random.default_rng(9)
        pool = small_pool(seed=10, k=5)
        for _ in range(20):
            w = rng.uniform(-1, 1, size=5)
            block = aggregate(Tensor(w[None]), pool).data[0]
            brute = np.zeros_like(pool.components.data[0])
            for k in range(5):
                brute = brute + w[k] * pool.components.data[k]
            np.testing.assert_allclose(block, brute, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            aggregate(T.zeros((1, 4)), small_pool(k=3))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        pool = small_pool(seed=12, k=4)
        w1 = rng.uniform(-1, 1, 4)
        w2 = rng.uniform(-1, 1, 4)
        alpha, beta = 0.3, -1.7
        lhs = aggregate(Tensor((alpha * w1 + beta * w2)[None]), pool).data
        rhs = (alpha * aggregate(Tensor(w1[None]), pool).data
               + beta * aggregate(Tensor(w2[None]), pool).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_boundedness(self):
        pool = small_pool(seed=13, k=6)
        rng = np.random.default_rng(14)
        bound = 6 * np.abs(pool.components.data).max()
        for _ in range(50):
            q = Tensor(rng.standard_normal((1, 4)))
            block = select_prompt(q, pool)
            assert np.abs(block.data).max() <= bound + 1e-12


class TestSelect:
    def test_scale_invariance(self):
        pool = small_pool(seed=15)
        rng = np.random.default_rng(16)
        q = rng.standard_normal((1, 4))
        base = select_prompt(Tensor(q), pool).data
        for c in (0.001, 0.5, 3.0, 1e4):
            scaled = select_prompt(Tensor(c * q), pool).data
            np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_one_hot_geometry_returns_component(self):
        pool = small_pool(seed=17, dim=4, k=2)
        # orthogonal keys, query aligned with key 0 under all-ones modulation
        pool.attention.data[:] = 1.0
        pool.keys.data[:, 0] = [1.0, 0.0, 0.0, 0.0]
        pool.keys.data[:, 1] = [0.0, 1.0, 0.0, 0.0]
        block = select_prompt(Tensor([[1.0, 0.0, 0.0, 0.0]]), pool).data[0]
        np.testing.assert_allclose(block, pool.components.data[0], atol=1e-15)

    def test_gradients_reach_all_pool_parameters(self):
        pool = float64(small_pool(seed=18, dim=3, k=2, n_p=2, layers=1))
        rng = np.random.default_rng(19)
        q = Tensor(rng.standard_normal((1, 3)), trainable=True)
        coeff = Tensor(rng.standard_normal((1, 1, 2, 2, 3)))

        def build():
            return T.tsum(T.mul(select_prompt(q, pool), coeff))

        build().backward()
        for p in (pool.attention, pool.keys, pool.components, q):
            assert p.grad is not None
            assert_grad_close(p.grad, finite_diff_grad(build, p))
            p.grad = None

    def test_vector_ignores_query(self):
        vec = init_vector(np.random.default_rng(21), 4, 2, 2)
        rng = np.random.default_rng(22)
        a = vec.select(Tensor(rng.standard_normal((1, 4)))).data
        b = vec.select(Tensor(rng.standard_normal((1, 4)))).data
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 2, 2, 2, 4)

    def test_vector_batched(self):
        vec = init_vector(np.random.default_rng(23), 4, 2, 2)
        out = vec.select(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 2, 2, 2, 4)
