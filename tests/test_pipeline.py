import copy
import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from rebq import pipeline
from rebq import tensor as T
from rebq.backbone import MultimodalBackbone
from rebq.pipeline import (VARIANT_PRESETS, ModelConfig, _targets, build_variant,
                           forward_batch, predict_batch, train_task)
from rebq.prompt import PromptPool, PromptVector
from rebq.reconstruct import (QueryCache, counterparts, generate_queries_batch,
                              reconstruct_batch, reconstruction_loss_from_queries)
from rebq.tensor import AdamW, Tensor

from conftest import TINY, float64
from reconstruction_oracle import reconstruction_loss

MCFG = ModelConfig(num_classes=4, pool_size=6, memory_pool_size=6, prompt_len=3, lam=0.01)


def make_model(tiny_backbone, variant="canonical", **overrides):
    import dataclasses
    mcfg = dataclasses.replace(MCFG, **overrides)
    return build_variant(variant, tiny_backbone, mcfg, seed=42)


def masked_pair(sample):
    return counterparts(sample)


def input_order_logits(model, batch) -> np.ndarray:
    """Untracked forward_batch logits with row i belonging to batch[i]."""
    with T.no_grad():
        out, order, _ = forward_batch(model, batch)
    rows = np.empty_like(out.data)
    rows[order] = out.data
    return rows


def shift_pool(model, name: str, by: float = 0.5):
    """A copy of model whose pool name has every component moved by by."""
    shifted = copy.deepcopy(model)
    getattr(shifted, name).components.data += by
    return shifted


class TestBuildVariant:
    def test_canonical_trainable_set(self, tiny_backbone):
        model = make_model(tiny_backbone)
        names = set(model.named_parameters())
        groups = {n.split(".")[0] for n in names}
        assert groups == {"folder", "album", "memory", "head"}
        assert isinstance(model.folder, PromptPool)
        assert isinstance(model.memory, PromptPool)

    def test_prompted_layers_deeper_than_backbone_refused(self, tiny_backbone):
        assert make_model(tiny_backbone).folder.components.shape[1] == TINY.num_layers
        with pytest.raises(ValueError, match="prompted_layers 3 exceeds the backbone's 2 layers"):
            make_model(tiny_backbone, prompted_layers=TINY.num_layers + 1)

    def test_no_memory_pool_is_single_block(self, tiny_backbone):
        model = make_model(tiny_backbone, variant="no_memory_pool")
        assert isinstance(model.memory, PromptVector)
        assert model.memory.block.shape == (TINY.num_layers, 2, 3, TINY.embed_dim)

    def test_unified_pool_shared(self, tiny_backbone):
        model = make_model(tiny_backbone, variant="no_modality_specific_pool")
        assert model.unified is not None
        assert model.text_source() is model.visual_source()
        assert model.folder is None and model.album is None

    def test_baseline_blocks(self, tiny_backbone):
        model = make_model(tiny_backbone, variant="baseline")
        assert set(model.baseline_blocks) == {"text-only", "image-only", "complete"}
        assert model.memory is None and model.folder is None

    def test_contradictory_specs_rejected(self, tiny_backbone):
        with pytest.raises(ValueError, match="known: .*'no_reconstruction'"):
            build_variant("not_a_variant", tiny_backbone, MCFG, 0)
        with pytest.raises(ValueError, match="unknown variant 'rebq'"):
            build_variant("rebq", tiny_backbone, MCFG, 0)

    def test_unfrozen_backbone_rejected(self):
        from rebq.backbone import MultimodalBackbone
        bb = MultimodalBackbone(TINY, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_variant("canonical", bb, MCFG, 0)


class TestForward:
    def test_logits_length(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        logits, _, _ = forward_batch(model, complete_samples[:1])
        assert logits.shape == (1, 4)

    def test_complete_sample_skips_reconstruction(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        batch = complete_samples[:3]
        shifted = shift_pool(model, "memory")
        assert input_order_logits(shifted, batch).tobytes() == \
            input_order_logits(model, batch).tobytes()

    def test_missing_modality_reconstructed(self, tiny_backbone, complete_samples):
        """Shifting the memory pool moves exactly the incomplete rows' logits."""
        model = make_model(tiny_backbone)
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [t_only, i_only, complete_samples[1]]
        base = input_order_logits(model, batch)
        moved = input_order_logits(shift_pool(model, "memory"), batch)
        assert not np.array_equal(moved[0], base[0])
        assert not np.array_equal(moved[1], base[1])
        assert moved[2].tobytes() == base[2].tobytes()

    def test_no_reconstruction_variant_uses_raw_queries(self, tiny_backbone,
                                                        complete_samples, monkeypatch):
        model = make_model(tiny_backbone, variant="no_reconstruction")
        t_only, i_only = masked_pair(complete_samples[0])

        def refuse(*args, **kwargs):
            raise AssertionError("reconstruct_batch called")

        monkeypatch.setattr(pipeline, "reconstruct_batch", refuse)
        _, _, l_r = forward_batch(model, [t_only, i_only, complete_samples[1]],
                                  with_lr=True)
        assert l_r is None

    def test_baseline_reads_no_query(self, tiny_backbone, tiny_benchmark, monkeypatch):
        """Baseline prompts follow the missing type alone, so neither training
        nor prediction runs the unified query pass."""
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone, variant="baseline")

        def refuse(*args, **kwargs):
            raise AssertionError("generate_queries_batch called")

        monkeypatch.setattr(pipeline, "generate_queries_batch", refuse)
        train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=7,
                   cache=QueryCache(tiny_backbone))
        assert len(predict_batch(model, stream.test_data(0), 16)) == len(stream.test_data(0))

    def test_msq_off_injects_only_available_modality(self, tiny_backbone,
                                                     complete_samples):
        """Text-only rows read only the text pool, image-only rows only the
        visual pool, complete rows both."""
        model = make_model(tiny_backbone, variant="no_modality_specific_query")
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [t_only, i_only, complete_samples[1]]
        base = input_order_logits(model, batch)
        album = input_order_logits(shift_pool(model, "album"), batch)
        folder = input_order_logits(shift_pool(model, "folder"), batch)
        assert album[0].tobytes() == base[0].tobytes()
        assert folder[1].tobytes() == base[1].tobytes()
        for moved, row in ((album, 1), (album, 2), (folder, 0), (folder, 2)):
            assert not np.array_equal(moved[row], base[row])

    def test_both_missing_rejected(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        bad = type(complete_samples[0])(id="bad", text_tokens=[1],
                                        patches=complete_samples[0].patches, label=0)
        bad.has_text = False
        bad.has_visual = False
        with pytest.raises(ValueError):
            forward_batch(model, [bad])

    def test_empty_batch_rejected(self, tiny_backbone):
        with pytest.raises(ValueError, match="forward_batch: empty batch"):
            forward_batch(make_model(tiny_backbone), [])

    @pytest.mark.parametrize("variant", ["canonical", "no_modality_specific_query",
                                         "baseline"])
    def test_permuting_batch_permutes_logits(self, tiny_backbone, complete_samples,
                                             variant):
        model = make_model(tiny_backbone, variant)
        batch = list(complete_samples[:4])
        for s in complete_samples[4:8]:
            batch += masked_pair(s)
        logits, order, _ = forward_batch(model, batch)
        by_sample = {orig: logits.data[row] for row, orig in enumerate(order)}
        perm = np.random.default_rng(0).permutation(len(batch))
        logits_p, order_p, _ = forward_batch(model, [batch[i] for i in perm])
        for row, orig in enumerate(order_p):
            assert logits_p.data[row].tobytes() == by_sample[perm[orig]].tobytes()

    def test_batch_matches_single(self, tiny_backbone, complete_samples):
        model = float64(make_model(tiny_backbone))
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [complete_samples[1], t_only, i_only]
        logits, order, _ = forward_batch(model, batch)
        for row, orig in enumerate(order):
            single, _, _ = forward_batch(model, [batch[orig]])
            np.testing.assert_allclose(logits.data[row], single.data[0], atol=1e-10)

    def test_group_order_permutation(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [complete_samples[1], t_only, i_only]
        _, order, _ = forward_batch(model, batch)
        assert order == [1, 2, 0]


class TestPredict:
    def test_argmax(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        [pred] = predict_batch(model, complete_samples[:1])
        logits, _, _ = forward_batch(model, complete_samples[:1])
        assert pred == int(np.argmax(logits.data[0]))

    def test_shift_invariance(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        logits = forward_batch(model, complete_samples[:1])[0].data[0]
        assert int(np.argmax(logits)) == int(np.argmax(logits + 123.0))

    def test_multi_label_threshold(self):
        # sigmoid(z) > 0.5 iff z > 0: logits (-2, +2) activate only index 1
        logits = np.array([-2.0, 2.0])
        active = sorted(int(c) for c in np.nonzero(logits > 0.0)[0])
        assert active == [1]

    def test_predict_signature_task_agnostic(self):
        params = inspect.signature(predict_batch).parameters
        assert "session" not in params and "task" not in params

    def test_predict_batch_matches_predict(self, tiny_backbone, complete_samples):
        """Batched prediction equals one-sample prediction, whatever the chunking."""
        model = make_model(tiny_backbone)
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [complete_samples[1], t_only, i_only, complete_samples[2]]
        assert predict_batch(model, batch) == [predict_batch(model, [s])[0] for s in batch]
        assert predict_batch(model, batch, batch_size=3) == predict_batch(model, batch)

    @pytest.mark.parametrize("variant", sorted(VARIANT_PRESETS))
    def test_single_sample_runs_match_the_batch(self, tiny_backbone, tiny_benchmark,
                                                variant):
        """One sample at a time predicts what one 64-row chunk predicts.

        The logits agree only to 1e-6: float32 prompt selection
        (prompt.aggregate, prompt.compute_weights) rounds differently with the
        batch's row count, by up to 2.1e-7 at the default sizes.
        """
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone, variant)
        samples = stream.test_data(0) + stream.test_data(1)
        assert predict_batch(model, samples, batch_size=1) == \
            predict_batch(model, samples, batch_size=64)
        single = np.concatenate([input_order_logits(model, [s]) for s in samples])
        np.testing.assert_allclose(single, input_order_logits(model, samples),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, tiny_backbone, complete_samples,
                                           batch_size):
        model = make_model(tiny_backbone)
        with pytest.raises(ValueError, match="batch_size"):
            predict_batch(model, complete_samples[:3], batch_size)

    def test_non_finite_logits_named(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        model.head_w.data[:] = np.nan
        with pytest.raises(ValueError, match=f"predict_batch: non-finite logits.*"
                                             f"{complete_samples[1].id}"):
            predict_batch(model, complete_samples[:3])


class TestTrainTask:
    def test_empty_session_rejected(self, tiny_backbone):
        model = make_model(tiny_backbone)
        with pytest.raises(ValueError):
            train_task(model, [], 1, 4, 1e-4, seed=0)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, tiny_backbone, tiny_benchmark,
                                           batch_size):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = model.parameter_bytes()
        with pytest.raises(ValueError, match="batch_size"):
            train_task(model, stream.train_data(0)[:8], 1, batch_size, 1e-4, seed=0)
        assert model.parameter_bytes() == before

    def test_step_graph_released_before_next_forward(self, tiny_backbone, tiny_benchmark,
                                                     monkeypatch):
        """A step's graph dies with its backward, although train_task still
        holds its loss tensors, so each step's forward starts from the same
        traced memory."""
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        starts = []
        forward = pipeline.forward_batch

        def traced(*args, **kwargs):
            starts.append(tracemalloc.get_traced_memory()[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(pipeline, "forward_batch", traced)
        tracemalloc.start()
        try:
            train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=3)
        finally:
            tracemalloc.stop()
        assert len(starts) == 2
        assert abs(starts[1] - starts[0]) <= 64 << 10

    def test_reconstruction_records_released_before_classification(
            self, tiny_backbone, complete_samples, monkeypatch):
        """In a step on 4 complete samples the 8 counterparts reconstruct in two
        chunks of 4 rows, each back-propagated before the next pass records:
        every tracked backbone forward holds at most the batch's rows and
        starts when no array an earlier pass's attention records kept is alive."""
        model = make_model(tiny_backbone)
        kept, passes = [], []
        attention, forward = T.attention, MultimodalBackbone.forward

        def keeping_attention(qkv, heads, prefix=None, rows=None):
            out = attention(qkv, heads, prefix, rows)
            if out._node is not None:
                kept.extend(weakref.ref(cell.cell_contents)
                            for cell in out._node.backward.__closure__
                            if isinstance(cell.cell_contents, np.ndarray))
            return out

        def watched_forward(bb, x, prefix=None, positions=None):
            if T.recording(x, prefix, *bb.params.values()):
                passes.append((x.shape[0], sum(ref() is not None for ref in kept)))
            return forward(bb, x, prefix, positions)

        monkeypatch.setattr(T, "attention", keeping_attention)
        monkeypatch.setattr(MultimodalBackbone, "forward", watched_forward)
        batch = complete_samples[:4]
        log = train_task(model, batch, 1, len(batch), 1e-4, seed=3)
        assert log.steps[0].reconstruction > 0.0
        # two counterpart chunks, then classification
        assert passes == [(4, 0), (4, 0), (4, 0)]
        assert kept

    @pytest.mark.parametrize("n_c", [1, 2, 3, 4])
    def test_chunked_reconstruction_bit_identical(self, tiny_backbone, complete_samples,
                                                  monkeypatch, n_c):
        """At batch 4 the 2 * n_c counterparts run in one chunk or two; L_r and
        the memory block's phase-one gradient equal, bit for bit, one
        reconstruct_batch pass over all counterparts."""
        model = make_model(tiny_backbone)
        batch = complete_samples[:n_c] + [counterparts(s)[i % 2] for i, s in
                                          enumerate(complete_samples[4:8 - n_c])]
        attached = []
        attach = T.attach

        def spying_attach(scalar, x, grad, seed):
            attached.append(grad)
            return attach(scalar, x, grad, seed)

        monkeypatch.setattr(T, "attach", spying_attach)
        _, _, l_r = forward_batch(model, batch, with_lr=True)

        # forward_batch's rows and memory selection, then the counterparts in one pass
        ordered = sorted(batch, key=lambda s: pipeline.MISSING_TYPES.index(s.missing_type))
        pairs = [counterparts(s) for s in ordered[4 - n_c:]]
        rows = ordered + [p[0] for p in pairs] + [p[1] for p in pairs]
        bb = model.backbone
        with T.no_grad():
            emb = bb.embed_batch(rows)
            queries = generate_queries_batch(rows, bb, emb=emb)
            prefix = model.memory.select(Tensor(queries[list(range(4 - n_c)) + list(
                range(4, len(rows))), 2]))
        block = Tensor(prefix.data[4 - n_c:], trainable=True)
        recon = reconstruct_batch(rows[4:], block, bb, emb=emb[4:])
        want = reconstruction_loss_from_queries(
            Tensor(queries[4 - n_c:4, 0]), recon[n_c:], Tensor(queries[4 - n_c:4, 1]),
            recon[:n_c])
        T.backward(T.scale(want, model.mcfg.lam))
        assert np.array_equal(l_r.data, want.data)
        assert len(attached) == 1 and np.array_equal(attached[0], block.grad)

    def test_loss_decomposition_exact(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = float64(make_model(tiny_backbone))
        log = train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=1)
        lam = model.mcfg.lam
        for step in log.steps:
            assert step.total == step.classification + lam * step.reconstruction

    def test_lambda_zero_total_equals_classification(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone, lam=0.0)
        log = train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=2)
        for step in log.steps:
            assert step.total == step.classification
            assert step.reconstruction == 0.0

    def test_zero_lr_step_leaves_parameters(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = model.parameter_bytes()
        train_task(model, stream.train_data(0)[:4], 1, 4, 0.0, seed=3)
        assert model.parameter_bytes() == before

    def test_backbone_frozen_through_training(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = tiny_backbone.parameter_bytes()
        train_task(model, stream.train_data(0)[:12], 1, 4, 1e-4, seed=4)
        assert tiny_backbone.parameter_bytes() == before

    def test_training_moves_pools_and_head(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = model.parameter_bytes()
        train_task(model, stream.train_data(0)[:12], 2, 4, 1e-4, seed=5)
        assert model.parameter_bytes() != before

    def test_gradient_routing_lambda_positive(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        batch = [s for s in stream.train_data(0) if s.missing_type == "complete"][:3]
        logits, order, l_r = forward_batch(model, batch, with_lr=True)
        l_c = T.cross_entropy(logits, _targets(model, [batch[i] for i in order]))
        T.add(l_c, T.scale(l_r, 0.01)).backward()
        assert model.memory.components.grad is not None
        assert np.abs(model.memory.components.grad).sum() > 0
        for p in (model.folder.components, model.head_w):
            assert p.grad is not None

    def test_gradient_routing_lambda_zero_classification_path(self, tiny_backbone,
                                                              tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone, lam=0.0)
        incomplete = [s for s in stream.train_data(0) if s.missing_type != "complete"][:3]
        complete = [s for s in stream.train_data(0) if s.missing_type == "complete"][:3]

        # only complete samples: no reconstruction happens, memory gets nothing
        logits, order, l_r = forward_batch(model, complete, with_lr=True)
        assert l_r is None
        T.cross_entropy(logits, _targets(model, [complete[i] for i in order])).backward()
        assert model.memory.components.grad is None

        # incomplete samples route gradient into the memory pool through q-hat
        logits, order, _ = forward_batch(model, incomplete, with_lr=True)
        T.cross_entropy(logits, _targets(model, [incomplete[i] for i in order])).backward()
        assert model.memory.components.grad is not None
        assert np.abs(model.memory.components.grad).sum() > 0

    def test_deterministic_training(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        runs = []
        for _ in range(2):
            model = make_model(tiny_backbone)
            train_task(model, stream.train_data(0)[:12], 1, 4, 1e-4, seed=6)
            runs.append(model.parameter_bytes())
        assert runs[0] == runs[1]

    def test_non_finite_loss_stops_before_update(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        model.head_b.data[0] = np.nan
        before = model.parameter_bytes()
        with pytest.raises(ValueError, match="train_task: non-finite loss at step 0"):
            train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=0)
        assert model.parameter_bytes() == before

    def test_non_finite_reconstruction_loss_stops_before_update(self, tiny_backbone,
                                                                complete_samples):
        """L_r's backward runs inside forward_batch; a NaN there still stops the
        step before any parameter moves, with L_c finite."""
        model = make_model(tiny_backbone)
        model.memory.components.data[0] = np.nan
        before = model.parameter_bytes()
        with pytest.raises(ValueError, match=r"non-finite loss at step 0 \(L_c \d.*L_r nan"):
            train_task(model, complete_samples[:4], 1, 4, 1e-4, seed=0)
        assert model.parameter_bytes() == before

    @pytest.mark.parametrize("variant", ["canonical", "no_modality_specific_query"])
    def test_query_cache_bit_identical(self, tiny_backbone, tiny_benchmark, variant):
        """Training and evaluation give the same bytes with and without a cache."""
        _, stream = tiny_benchmark
        results = []
        for cache in (None, QueryCache(tiny_backbone)):
            model = make_model(tiny_backbone, variant)
            preds = []
            for j in range(2):
                train_task(model, stream.train_data(j), 2, 4, 1e-4, seed=j, cache=cache)
                preds += [predict_batch(model, stream.test_data(i), 16, cache=cache)
                          for i in range(j + 1)]
            results.append((model.parameter_bytes(), preds))
        assert cache.rows
        assert results[0] == results[1]

    def test_baseline_trains(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone, variant="baseline")
        log = train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=7)
        assert all(s.reconstruction == 0.0 for s in log.steps)
        names = set(model.named_parameters())
        assert any(n.startswith("baseline.") for n in names)


class TestFusedPath:
    def test_fused_losses_match_unfused(self, tiny_backbone, tiny_benchmark):
        """The training call (masked counterparts riding along in both passes)
        agrees with the evaluation call plus the reconstruction-loss oracle."""
        _, stream = tiny_benchmark
        model = float64(make_model(tiny_backbone))
        batch = stream.train_data(0)[:6]
        complete = [s for s in batch if s.missing_type == "complete"]
        assert complete and len(complete) < len(batch)
        logits_fused, order_fused, l_r_fused = forward_batch(model, batch, with_lr=True)
        logits, order, l_r = forward_batch(model, batch)
        assert l_r is None
        assert order_fused == order
        np.testing.assert_allclose(logits_fused.data, logits.data, atol=1e-10)
        l_r_ref = reconstruction_loss(complete, model.memory, model.backbone)
        assert l_r_fused.item() == pytest.approx(l_r_ref.item(), abs=1e-10)

    def test_lr_off_without_lambda_or_memory(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        batch = stream.train_data(0)[:6]
        for model in (make_model(tiny_backbone, lam=0.0),
                      make_model(tiny_backbone, variant="no_reconstruction")):
            logits, _, l_r = forward_batch(model, batch, with_lr=True)
            assert l_r is None
            assert logits.data.tobytes() == forward_batch(model, batch)[0].data.tobytes()


def record_dtypes(monkeypatch) -> set:
    """Collect the dtype of every tape array, every gradient a backward closure
    returns, and every gradient and moment an AdamW step sees."""
    dtypes = set()
    output, init, step = T._output, T._Node.__init__, AdamW.step

    def recording_output(data, *inputs):
        dtypes.add(data.dtype)
        return output(data, *inputs)

    def recording_init(node, inputs, backward):
        def run(g):
            grads = backward(g)
            dtypes.update(x.dtype for x in grads if x is not None)
            return grads
        init(node, inputs, run)

    def recording_step(opt):
        dtypes.update(p.grad.dtype for p in opt.params if p.grad is not None)
        step(opt)
        dtypes.update(a.dtype for a in opt.m + opt.v)

    monkeypatch.setattr(T, "_output", recording_output)
    monkeypatch.setattr(T._Node, "__init__", recording_init)
    monkeypatch.setattr(AdamW, "step", recording_step)
    return dtypes


class TestPrecision:
    def test_float32_throughout(self, tiny_backbone, tiny_benchmark, tmp_path, monkeypatch):
        _, stream = tiny_benchmark
        dtypes = record_dtypes(monkeypatch)
        f32 = {np.dtype(np.float32)}
        model = make_model(tiny_backbone)
        train_task(model, stream.train_data(0)[:4], 1, 4, 1e-4, seed=8)
        predict_batch(model, stream.test_data(0)[:6])
        assert dtypes == f32

        # checkpoints hold the float32 arrays, so loading restores the same bits
        tiny_backbone.save_checkpoint(tmp_path / "backbone.rbqt")
        loaded, _ = MultimodalBackbone.load_checkpoint(tmp_path / "backbone.rbqt")
        assert loaded.parameter_bytes() == tiny_backbone.parameter_bytes()

        on_loaded = make_model(loaded)
        train_task(on_loaded, stream.train_data(1)[:4], 1, 4, 1e-4, seed=9)
        tensors = list(loaded.params.values()) + on_loaded.parameters()
        assert dtypes | {t.data.dtype for t in tensors} == f32

    def test_float64_model_stays_float64(self, tiny_backbone, tiny_benchmark, monkeypatch):
        _, stream = tiny_benchmark
        dtypes = record_dtypes(monkeypatch)
        model = float64(make_model(tiny_backbone))
        train_task(model, stream.train_data(0)[:4], 1, 4, 1e-4, seed=8)
        predict_batch(model, stream.test_data(0)[:6])
        assert dtypes == {np.dtype(np.float64)}


class TestEndToEndGradient:
    def test_joint_loss_gradient_vs_finite_differences(self, tiny_backbone,
                                                       complete_samples):
        """Finite-difference check of the full objective on a tiny model."""
        from test_tensor import assert_grad_close, finite_diff_grad

        model = float64(make_model(tiny_backbone, pool_size=2, memory_pool_size=2,
                                   prompt_len=2))
        t_only, _ = masked_pair(complete_samples[0])
        batch = [complete_samples[1], t_only]

        def build():
            # the training path: L_r rides along in the classification passes
            logits, order, l_r = forward_batch(model, batch, with_lr=True)
            l_c = T.cross_entropy(logits, _targets(model, [batch[i] for i in order]))
            return T.add(l_c, T.scale(l_r, model.mcfg.lam))

        l_r_ref = reconstruction_loss([complete_samples[1]], model.memory, model.backbone)
        assert forward_batch(model, batch, with_lr=True)[2].item() == pytest.approx(
            l_r_ref.item(), abs=1e-10)

        build().backward()
        for name in ("memory.components", "memory.keys", "memory.attention",
                     "folder.components", "album.keys", "head.w"):
            p = model.named_parameters()[name]
            analytic = p.grad.copy()
            p.grad = None
            assert_grad_close(analytic, finite_diff_grad(build, p))
