import dataclasses

import numpy as np
import pytest

from rebq import reconstruct
from rebq import tensor as T
from rebq.backbone import MultimodalBackbone, recon_positions
from rebq.bench import Sample, dummy_patches, synth_generate
from rebq.pipeline import ModelConfig, build_variant, forward_batch
from rebq.prompt import init_pool, init_vector
from rebq.reconstruct import (QueryCache, counterparts, generate_queries_batch,
                              export_query_embeddings, reconstruct_batch,
                              reconstruction_loss_from_queries)
from rebq.tensor import AdamW, Tensor

from conftest import TINY, TINY_SYNTH, float64
from reconstruction_oracle import mean_reconstruction_cosine, reconstruction_loss


def memory_pool(seed=0, k=4):
    return init_pool(np.random.default_rng(seed), TINY.embed_dim, k, 3, TINY.num_layers)


def text_only(sample):
    return counterparts(sample)[0]


class TestGenerateQueries:
    def test_query_shapes(self, tiny_backbone, complete_samples):
        q = generate_queries_batch(complete_samples[:1], tiny_backbone)
        assert q.shape == (1, 3, TINY.embed_dim)

    def test_dummy_is_constant_across_samples(self, tiny_backbone, complete_samples):
        a = text_only(complete_samples[0])
        b = Sample(id="other", text_tokens=list(a.text_tokens),
                   patches=dummy_patches(TINY.num_patches, TINY.patch_dim),
                   label=a.label, has_visual=False)
        qa = generate_queries_batch([a], tiny_backbone)
        qb = generate_queries_batch([b], tiny_backbone)
        assert qa[:, 0].tobytes() == qb[:, 0].tobytes()
        assert qa[:, 2].tobytes() == qb[:, 2].tobytes()

    def test_batch_matches_single(self, tiny_backbone, complete_samples):
        batch = generate_queries_batch(complete_samples[:3], tiny_backbone)
        for i, s in enumerate(complete_samples[:3]):
            single = generate_queries_batch([s], tiny_backbone)
            np.testing.assert_allclose(batch[i, 0], single[0, 0], atol=1e-12)


class TestReconstructQuery:
    def test_deterministic(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=1)
        masked = [text_only(complete_samples[0])]
        outs = []
        for _ in range(2):
            mem = Tensor(generate_queries_batch(masked, tiny_backbone)[:, 2])
            outs.append(reconstruct_batch(masked, pool.select(mem), tiny_backbone).data.tobytes())
        assert outs[0] == outs[1]

    def test_memory_query_scale_invariance(self, tiny_backbone, complete_samples):
        pool = float64(memory_pool(seed=3))
        backbone = float64(tiny_backbone)
        masked = [text_only(s) for s in complete_samples[:2]]
        mem = generate_queries_batch(masked, backbone)[:, 2]
        base = reconstruct_batch(masked, pool.select(Tensor(mem)), backbone).data
        scaled = reconstruct_batch(masked, pool.select(Tensor(37.5 * mem)), backbone).data
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_empty_memory_prefix_reduces_to_plain_forward(self, tiny_backbone,
                                                          complete_samples):
        # A zero-length prefix is a strict no-op; the second forward then
        # just recomputes the joint cls on the compact layout.
        pool = init_pool(np.random.default_rng(4), TINY.embed_dim, 3, 0, TINY.num_layers)
        masked = [text_only(complete_samples[0])]
        mem = Tensor(generate_queries_batch(masked, tiny_backbone)[:, 2])
        q_hat = reconstruct_batch(masked, pool.select(mem), tiny_backbone).data
        with T.no_grad():
            emb = tiny_backbone.embed_batch(masked)
            plain = tiny_backbone.forward(emb[:, recon_positions(TINY)],
                                          positions=[0]).data[:, 0]
        assert q_hat.tobytes() == plain.tobytes()

    def test_memory_vector_source(self, tiny_backbone, complete_samples):
        vec = init_vector(np.random.default_rng(6), TINY.embed_dim, 3, TINY.num_layers)
        masked = [text_only(s) for s in complete_samples[:2]]
        mem = Tensor(generate_queries_batch(masked, tiny_backbone)[:, 2])
        q_hat = reconstruct_batch(masked, vec.select(mem), tiny_backbone)
        assert q_hat.shape == (2, TINY.embed_dim)


class TestReconstructionLoss:
    def test_perfect_reconstruction_zero(self):
        q = Tensor(np.random.default_rng(7).standard_normal((3, 8)))
        loss = reconstruction_loss_from_queries(q, q, q, q)
        assert loss.item() == 0.0

    def test_hand_case(self):
        # N=1, D=2, text residual (1, 0), visual residual zero
        q_t = Tensor([[1.0, 2.0]])
        q_hat_t = Tensor([[0.0, 2.0]])
        q_v = Tensor([[3.0, 4.0]])
        loss = reconstruction_loss_from_queries(q_t, q_hat_t, q_v, q_v)
        assert loss.item() == 1.0

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(8)
        q_t, q_v = Tensor(rng.standard_normal((1, 4))), Tensor(rng.standard_normal((1, 4)))
        r_t, r_v = rng.standard_normal((1, 4)), rng.standard_normal((1, 4))
        base = reconstruction_loss_from_queries(
            q_t, Tensor(q_t.data + r_t), q_v, Tensor(q_v.data + r_v)).item()
        doubled = reconstruction_loss_from_queries(
            q_t, Tensor(q_t.data + 2 * r_t), q_v, Tensor(q_v.data + 2 * r_v)).item()
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    @pytest.mark.parametrize("shapes", [[(4,)] * 4, [(2, 4), (3, 4), (2, 4), (2, 4)],
                                        [(2, 4), (2, 4), (2, 5), (2, 5)],
                                        [(1, 2, 4)] * 4])
    def test_only_matching_matrices_accepted(self, shapes):
        # a 1-D query is refused, not taken as one sample or as D samples
        queries = [Tensor(np.ones(shape)) for shape in shapes]
        with pytest.raises(T.ShapeError, match=r"four matching \(N, D\) queries"):
            reconstruction_loss_from_queries(*queries)

    def test_nonnegative_and_gradient_routing(self, tiny_backbone, complete_samples):
        pool = memory_pool(seed=9)
        loss = reconstruction_loss(complete_samples[:3], pool, tiny_backbone)
        assert loss.item() >= 0.0
        loss.backward()
        for p in pool.named_parameters("memory").values():
            assert p.grad is not None and np.abs(p.grad).sum() > 0
        assert all(t.grad is None for t in tiny_backbone.params.values())

    def test_ground_truth_detached(self, tiny_backbone, complete_samples):
        # gradient magnitude is unaffected by re-running: gt queries are constants
        pool = memory_pool(seed=10)
        loss = reconstruction_loss(complete_samples[:2], pool, tiny_backbone)
        loss.backward()
        g1 = pool.components.grad.copy()
        for p in pool.named_parameters("memory").values():
            p.grad = None
        loss2 = reconstruction_loss(complete_samples[:2], pool, tiny_backbone)
        loss2.backward()
        np.testing.assert_allclose(pool.components.grad, g1, atol=1e-12)


class TestTrainingImprovesReconstruction:
    def test_trained_pool_beats_untrained(self, tiny_backbone, complete_samples):
        rng = np.random.default_rng(11)
        untrained = memory_pool(seed=12, k=4)
        trained = memory_pool(seed=12, k=4)
        params = list(trained.named_parameters("memory").values())
        opt = AdamW(params, base_lr=5e-3, total_steps=120)
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
        i_only = counterparts(complete_samples[2])[1]
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
        assert records[3]["embedding"] == raw[1, 1].tolist()
        assert records[5]["embedding"] == raw[2, 0].tolist()
        with T.no_grad():
            rec = reconstruct_batch(samples[1:], pool.select(Tensor(raw[1:, 2])),
                                    tiny_backbone).data
        assert records[4]["embedding"] == rec[0].tolist()
        assert records[7]["embedding"] == rec[1].tolist()


@pytest.fixture(scope="module")
def mixed_rows():
    """32 complete samples and both masked counterparts of each: 96 rows."""
    _, samples = synth_generate(4, 8, TINY_SYNTH, seed=411)
    pairs = [counterparts(s) for s in samples]
    return samples + [p[0] for p in pairs] + [p[1] for p in pairs]


class TestQueryCache:
    def test_rows_independent_of_batch(self, tiny_backbone, mixed_rows):
        """Each unified-pass row is bit-equal for any subset or order of its batch."""
        full = generate_queries_batch(mixed_rows, tiny_backbone)
        rng = np.random.default_rng(0)
        for _ in range(200):
            idx = rng.permutation(len(mixed_rows))[:rng.integers(1, len(mixed_rows) + 1)]
            part = generate_queries_batch([mixed_rows[i] for i in idx], tiny_backbone)
            assert part.tobytes() == full[idx].tobytes()

    def test_cached_rows_equal_fresh_pass(self, tiny_backbone, mixed_rows, monkeypatch):
        cache = QueryCache(tiny_backbone)
        passes = []
        unified_pass = reconstruct._unified_pass

        def counted(samples, backbone, emb=None):
            passes.append(len(samples))
            return unified_pass(samples, backbone, emb)

        monkeypatch.setattr(reconstruct, "_unified_pass", counted)
        first, second = mixed_rows[:60], mixed_rows[40:] + mixed_rows[:10]
        for batch in (first, second, second):
            cached = generate_queries_batch(batch, tiny_backbone, cache=cache)
            fresh = generate_queries_batch(batch, tiny_backbone)
            assert cached.tobytes() == fresh.tobytes()
        # cached and fresh calls alternate; a cached call passes only the rows
        # not seen before (60, then 36, then none), a fresh call every row
        assert passes == [60, 60, 36, 66, 66]
        assert len(cache.rows) == len(mixed_rows)

    def test_embedded_rows_equal_fresh_pass(self, tiny_backbone, mixed_rows):
        cache = QueryCache(tiny_backbone)
        generate_queries_batch(mixed_rows[::2], tiny_backbone, cache=cache)
        with T.no_grad():
            emb = tiny_backbone.embed_batch(mixed_rows)
        cached = generate_queries_batch(mixed_rows, tiny_backbone, emb=emb, cache=cache)
        fresh = generate_queries_batch(mixed_rows, tiny_backbone)
        assert cached.tobytes() == fresh.tobytes()

    def test_keys_follow_content(self, tiny_backbone, complete_samples):
        cache = QueryCache(tiny_backbone)
        s = complete_samples[0]
        generate_queries_batch([s, *counterparts(s)], tiny_backbone, cache=cache)
        assert len(cache.rows) == 3
        same_id = dataclasses.replace(complete_samples[1], id=s.id)
        generate_queries_batch([s, same_id], tiny_backbone, cache=cache)
        assert len(cache.rows) == 4
        rows = generate_queries_batch([s, same_id], tiny_backbone, cache=cache)
        assert rows[0].tobytes() != rows[1].tobytes()

    def test_bound_to_one_frozen_backbone(self, tiny_backbone, complete_samples):
        other = MultimodalBackbone(TINY, np.random.default_rng(0))
        with pytest.raises(ValueError, match="frozen"):
            QueryCache(other)
        other.freeze()
        with pytest.raises(ValueError, match="another backbone"):
            generate_queries_batch(complete_samples[:1], other,
                                   cache=QueryCache(tiny_backbone))


class TestEmbedOnce:
    """Each caller embeds its rows in one call and returns the values that
    separate query and reconstruction passes give."""

    @pytest.fixture()
    def embed_calls(self, monkeypatch):
        calls = []
        embed_batch = MultimodalBackbone.embed_batch

        def counted(self, samples):
            calls.append(len(samples))
            return embed_batch(self, samples)

        monkeypatch.setattr(MultimodalBackbone, "embed_batch", counted)
        return calls

    def test_reconstruction_loss(self, tiny_backbone, complete_samples, embed_calls):
        """The training call embeds complete samples and both counterparts of
        each in one call; its L_r equals the one of separate passes."""
        mcfg = ModelConfig(num_classes=4, pool_size=4, memory_pool_size=4, prompt_len=3)
        model = build_variant("canonical", tiny_backbone, mcfg, seed=21)
        _, _, loss = forward_batch(model, complete_samples[:5], with_lr=True)
        assert embed_calls == [15]
        rows = [c for s in complete_samples[:5] for c in counterparts(s)]
        rows = rows[0::2] + rows[1::2]
        gt = generate_queries_batch(complete_samples[:5], tiny_backbone)
        mem = Tensor(generate_queries_batch(rows, tiny_backbone)[:, 2])
        rec = reconstruct_batch(rows, model.memory.select(mem), tiny_backbone)
        ref = reconstruction_loss_from_queries(Tensor(gt[:, 0]), rec[5:],
                                               Tensor(gt[:, 1]), rec[:5])
        assert loss.data.tobytes() == ref.data.tobytes()

    def test_export_query_embeddings(self, tiny_backbone, complete_samples, embed_calls):
        pool = memory_pool(seed=23)
        i_only = counterparts(complete_samples[2])[1]
        samples = [complete_samples[0], text_only(complete_samples[1]), i_only]
        records = export_query_embeddings(samples, tiny_backbone, pool)
        assert embed_calls == [3]
        raw = generate_queries_batch(samples, tiny_backbone)
        with T.no_grad():
            rec = reconstruct_batch(samples[1:], pool.select(Tensor(raw[1:, 2])),
                                    tiny_backbone).data
        assert records[4]["embedding"] == rec[0].tolist()
        assert records[7]["embedding"] == rec[1].tolist()
