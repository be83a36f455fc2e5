import numpy as np
import pytest

from rebq import tensor as T
from rebq.bench import Sample, dummy_patches
from rebq.prompt import init_pool, init_vector
from rebq.reconstruct import (counterparts, generate_queries_batch,
                              export_query_embeddings, mean_reconstruction_cosine,
                              reconstruct_batch, reconstruction_loss,
                              reconstruction_loss_from_queries)
from rebq.tensor import AdamW, Tensor

from conftest import TINY, float64


def memory_pool(seed=0, mode="attention", k=4):
    return init_pool(np.random.default_rng(seed), TINY.embed_dim, k, 3,
                     TINY.num_layers, "memory", mode)


def text_only(sample):
    return counterparts(sample, TINY.num_patches, TINY.patch_dim)[0]


class TestGenerateQueries:
    def test_query_shapes(self, tiny_backbone, complete_samples):
        q = generate_queries_batch(complete_samples[:1], tiny_backbone)
        assert q.q_text.shape == (1, TINY.embed_dim)
        assert q.q_visual.shape == (1, TINY.embed_dim)
        assert q.memory.shape == (1, TINY.embed_dim)

    def test_dummy_is_constant_across_samples(self, tiny_backbone, complete_samples):
        a = text_only(complete_samples[0])
        b = Sample(id="other", text_tokens=list(a.text_tokens),
                   patches=dummy_patches(TINY.num_patches, TINY.patch_dim),
                   label=a.label, has_visual=False)
        qa = generate_queries_batch([a], tiny_backbone)
        qb = generate_queries_batch([b], tiny_backbone)
        assert qa.q_text.data.tobytes() == qb.q_text.data.tobytes()
        assert qa.memory.data.tobytes() == qb.memory.data.tobytes()

    def test_batch_matches_single(self, tiny_backbone, complete_samples):
        batch = generate_queries_batch(complete_samples[:3], tiny_backbone)
        for i, s in enumerate(complete_samples[:3]):
            single = generate_queries_batch([s], tiny_backbone)
            np.testing.assert_allclose(batch.q_text.data[i], single.q_text.data[0], atol=1e-12)


class TestReconstructQuery:
    def test_deterministic(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=1)
        masked = [text_only(complete_samples[0])]
        outs = []
        for _ in range(2):
            mem = generate_queries_batch(masked, tiny_backbone).memory
            outs.append(reconstruct_batch(masked, mem, pool, tiny_backbone).data.tobytes())
        assert outs[0] == outs[1]

    def test_memory_query_scale_invariance(self, tiny_backbone, complete_samples):
        pool = float64(memory_pool(seed=3))
        backbone = float64(tiny_backbone)
        masked = [text_only(s) for s in complete_samples[:2]]
        mem = generate_queries_batch(masked, backbone).memory.data
        base = reconstruct_batch(masked, Tensor(mem), pool, backbone).data
        scaled = reconstruct_batch(masked, Tensor(37.5 * mem), pool, backbone).data
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_empty_memory_prefix_reduces_to_plain_forward(self, tiny_backbone,
                                                          complete_samples):
        # A zero-length prefix is a strict no-op; the second forward then
        # just recomputes the joint cls on the compact layout.
        pool = init_pool(np.random.default_rng(4), TINY.embed_dim, 3, 0,
                         TINY.num_layers, "memory", "attention")
        masked = [text_only(complete_samples[0])]
        mem = generate_queries_batch(masked, tiny_backbone).memory
        q_hat = reconstruct_batch(masked, mem, pool, tiny_backbone).data
        with T.no_grad():
            emb = tiny_backbone.embed_batch(masked)
            plain = tiny_backbone.forward(tiny_backbone.recon_segments(emb)).data[:, 0]
        assert q_hat.tobytes() == plain.tobytes()

    def test_input_mode_memory(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=5, mode="input")
        masked = [text_only(complete_samples[0])]
        mem = generate_queries_batch(masked, tiny_backbone).memory
        q_hat = reconstruct_batch(masked, mem, pool, tiny_backbone)
        assert q_hat.shape == (1, TINY.embed_dim)

    def test_memory_vector_source(self, tiny_backbone, complete_samples):
        vec = init_vector(np.random.default_rng(6), TINY.embed_dim, 3,
                          TINY.num_layers, "memory")
        masked = [text_only(s) for s in complete_samples[:2]]
        mem = generate_queries_batch(masked, tiny_backbone).memory
        q_hat = reconstruct_batch(masked, mem, vec, tiny_backbone)
        assert q_hat.shape == (2, TINY.embed_dim)


class TestReconstructionLoss:
    def test_perfect_reconstruction_zero(self):
        q = Tensor(np.random.default_rng(7).standard_normal((3, 8)))
        loss = reconstruction_loss_from_queries(q, q, q, q)
        assert loss.item() == 0.0

    def test_hand_case(self):
        # N=1, D=2, text residual (1, 0), visual residual zero
        q_t = Tensor([1.0, 2.0])
        q_hat_t = Tensor([0.0, 2.0])
        q_v = Tensor([3.0, 4.0])
        loss = reconstruction_loss_from_queries(q_t, q_hat_t, q_v, q_v)
        assert loss.item() == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(8)
        q_t, q_v = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
        r_t, r_v = rng.standard_normal(4), rng.standard_normal(4)
        base = reconstruction_loss_from_queries(
            q_t, Tensor(q_t.data + r_t), q_v, Tensor(q_v.data + r_v)).item()
        doubled = reconstruction_loss_from_queries(
            q_t, Tensor(q_t.data + 2 * r_t), q_v, Tensor(q_v.data + 2 * r_v)).item()
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_rejects_incomplete_batch(self, tiny_backbone, complete_samples):
        batch = [complete_samples[0], text_only(complete_samples[1])]
        with pytest.raises(ValueError):
            reconstruction_loss(batch, memory_pool(), tiny_backbone)

    def test_nonnegative_and_gradient_routing(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=9)
        loss = reconstruction_loss(complete_samples[:3], pool, tiny_backbone)
        assert loss.item() >= 0.0
        loss.backward()
        for p in pool.parameters():
            assert p.grad is not None and np.abs(p.grad).sum() > 0
        assert all(t.grad is None for t in tiny_backbone.params.values())

    def test_ground_truth_detached(self, tiny_backbone, complete_samples):
        # gradient magnitude is unaffected by re-running: gt queries are constants
        pool = memory_pool(seed=10)
        loss = reconstruction_loss(complete_samples[:2], pool, tiny_backbone)
        loss.backward()
        g1 = pool.components.grad.copy()
        for p in pool.parameters():
            p.grad = None
        loss2 = reconstruction_loss(complete_samples[:2], pool, tiny_backbone)
        loss2.backward()
        np.testing.assert_allclose(pool.components.grad, g1, atol=1e-12)


class TestTrainingImprovesReconstruction:
    def test_trained_pool_beats_untrained(self, tiny_backbone, complete_samples):
        rng = np.random.default_rng(11)
        untrained = memory_pool(seed=12, k=4)
        trained = memory_pool(seed=12, k=4)
        params = trained.parameters()
        opt = AdamW(params, base_lr=5e-3, total_steps=120, warmup_frac=0.1)
        for _ in range(120):
            idx = rng.integers(0, len(complete_samples), size=4)
            batch = [complete_samples[i] for i in idx]
            loss = reconstruction_loss(batch, trained, tiny_backbone)
            loss.backward()
            opt.step()
        before = mean_reconstruction_cosine(complete_samples, untrained, tiny_backbone)
        after = mean_reconstruction_cosine(complete_samples, trained, tiny_backbone)
        assert after > before


class TestExport:
    def test_export_kinds_and_round_trip(self, tmp_path, tiny_backbone, complete_samples):
        import json
        pool = memory_pool(seed=13)
        samples = [complete_samples[0], text_only(complete_samples[1])]
        path = tmp_path / "queries.json"
        records = export_query_embeddings(samples, tiny_backbone, pool, path=path)
        kinds = {(r["id"], r["modality"], r["kind"]) for r in records}
        assert (samples[0].id, "text", "ground_truth") in kinds
        assert (samples[1].id, "visual", "unreconstructed") in kinds
        assert (samples[1].id, "visual", "reconstructed") in kinds
        loaded = json.loads(path.read_text())
        assert loaded == records
        assert all(len(r["embedding"]) == TINY.embed_dim for r in records)

    def test_record_sequence(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=14)
        i_only = counterparts(complete_samples[2], TINY.num_patches, TINY.patch_dim)[1]
        samples = [complete_samples[0], text_only(complete_samples[1]), i_only]
        records = export_query_embeddings(samples, tiny_backbone, pool)
        ids = [s.id for s in samples]
        assert [(r["id"], r["modality"], r["kind"]) for r in records] == [
            (ids[0], "text", "ground_truth"), (ids[0], "visual", "ground_truth"),
            (ids[1], "text", "ground_truth"), (ids[1], "visual", "unreconstructed"),
            (ids[1], "visual", "reconstructed"),
            (ids[2], "text", "unreconstructed"), (ids[2], "visual", "ground_truth"),
            (ids[2], "text", "reconstructed"),
        ]
        raw = generate_queries_batch(samples, tiny_backbone)
        assert records[3]["embedding"] == raw.q_visual.data[1].tolist()
        assert records[5]["embedding"] == raw.q_text.data[2].tolist()
        with T.no_grad():
            rec = reconstruct_batch(samples[1:], Tensor(raw.memory.data[1:]), pool,
                                    tiny_backbone).data
        assert records[4]["embedding"] == rec[0].tolist()
        assert records[7]["embedding"] == rec[1].tolist()
