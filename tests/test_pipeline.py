import copy
import dataclasses
import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from rebq import pipeline
from rebq import tensor as T
from rebq.backbone import MultimodalBackbone
from rebq.bench import MISSING_TYPES, synth_generate
from rebq.pipeline import (VARIANT_PRESETS, ModelConfig, VariantSpec, _targets,
                           build_variant, forward_batch, predict_batch, train_task)
from rebq.prompt import PromptPool, PromptVector
from rebq.reconstruct import QueryCache, generate_queries_batch, reconstruct_batch
from rebq.tensor import AdamW, Tensor

from conftest import TINY, TINY_SYNTH, float64, parameter_bytes
from reconstruction_oracle import reconstruction_loss

MCFG = ModelConfig(num_classes=4, pool_size=6, memory_pool_size=6, prompt_len=3, lam=0.01)


def make_model(tiny_backbone, variant="canonical", **overrides):
    mcfg = dataclasses.replace(MCFG, **overrides)
    return build_variant(variant, tiny_backbone, mcfg, seed=42)


def masked_pair(sample):
    """(text-only, image-only) masked copies of a complete sample."""
    return sample.without("visual"), sample.without("text")


def list_label_samples(seed=411):
    """A TINY multi-label corpus, each label a list of active classes, with
    the masked pairs of its first two samples appended."""
    _, samples = synth_generate(4, 3, dataclasses.replace(TINY_SYNTH, multi_label=True), seed)
    return samples + [*masked_pair(samples[0]), *masked_pair(samples[1])]


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

    @pytest.mark.parametrize("query", ["available", "missing_type"])
    @pytest.mark.parametrize("memory", ["pool", "vector"])
    def test_memory_only_for_modality_queries(self, query, memory):
        """Only modality-specific queries read a reconstruction, so no other
        query takes a memory source."""
        with pytest.raises(ValueError, match=rf"^memory '{memory}' needs query 'modality', "
                                             rf"got query '{query}'$"):
            VariantSpec(query=query, memory=memory)

    @pytest.mark.parametrize("field, value, low", [
        ("num_classes", 0, 2), ("pool_size", 0, 1), ("memory_pool_size", 0, 1),
        ("prompt_len", 0, 1), ("prompted_layers", -1, 0), ("lam", -1.0, 0)])
    def test_model_config_refuses_what_a_run_refuses(self, field, value, low):
        with pytest.raises(ValueError, match=rf"^{field} must be >= {low}, got {value}$"):
            dataclasses.replace(MCFG, **{field: value})

    def test_unfrozen_backbone_rejected(self):
        from rebq.backbone import MultimodalBackbone
        bb = MultimodalBackbone(TINY, TINY_SYNTH, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_variant("canonical", bb, MCFG, 0)


class TestForward:
    def test_logits_length(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        logits, _ = forward_batch(model, complete_samples[:1])
        assert logits.shape == (1, 4)

    def test_complete_sample_skips_reconstruction(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        batch = complete_samples[:3]
        shifted = shift_pool(model, "memory")
        assert forward_batch(shifted, batch)[0].data.tobytes() == \
            forward_batch(model, batch)[0].data.tobytes()

    def test_missing_modality_reconstructed(self, tiny_backbone, complete_samples):
        """Shifting the memory pool moves exactly the incomplete rows' logits."""
        model = make_model(tiny_backbone)
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [t_only, i_only, complete_samples[1]]
        base = forward_batch(model, batch)[0].data
        moved = forward_batch(shift_pool(model, "memory"), batch)[0].data
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
        _, l_r = forward_batch(model, [t_only, i_only, complete_samples[1]], with_lr=True)
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
        base = forward_batch(model, batch)[0].data
        album = forward_batch(shift_pool(model, "album"), batch)[0].data
        folder = forward_batch(shift_pool(model, "folder"), batch)[0].data
        assert album[0].tobytes() == base[0].tobytes()
        assert folder[1].tobytes() == base[1].tobytes()
        for moved, row in ((album, 1), (album, 2), (folder, 0), (folder, 2)):
            assert not np.array_equal(moved[row], base[row])

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
        logits, _ = forward_batch(model, batch)
        perm = np.random.default_rng(0).permutation(len(batch))
        logits_p, _ = forward_batch(model, [batch[i] for i in perm])
        assert logits_p.data.tobytes() == logits.data[perm].tobytes()

    @pytest.mark.parametrize("variant", sorted(VARIANT_PRESETS))
    def test_logits_independent_of_input_order(self, tiny_backbone, complete_samples,
                                               variant):
        """A mixed batch given out of missing-type order gives the logits of
        the same batch given grouped, each row with its own sample."""
        model = make_model(tiny_backbone, variant)
        t_a, i_a = masked_pair(complete_samples[0])
        t_b, i_b = masked_pair(complete_samples[1])
        batch = [complete_samples[2], i_a, t_a, complete_samples[3], i_b, t_b]
        order = sorted(range(len(batch)),
                       key=lambda i: MISSING_TYPES.index(batch[i].missing_type))
        assert order != list(range(len(batch)))
        sorted_batch = [batch[i] for i in order]
        assert forward_batch(model, batch)[0].data[order].tobytes() == \
            forward_batch(model, sorted_batch)[0].data.tobytes()

    def test_batch_matches_single(self, tiny_backbone, complete_samples):
        model = float64(make_model(tiny_backbone))
        t_only, i_only = masked_pair(complete_samples[0])
        batch = [complete_samples[1], t_only, i_only]
        logits, _ = forward_batch(model, batch)
        for row, sample in zip(logits.data, batch):
            single, _ = forward_batch(model, [sample])
            np.testing.assert_allclose(row, single.data[0], atol=1e-10)


class TestPredict:
    def test_argmax(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        [pred] = predict_batch(model, complete_samples[:1])
        logits, _ = forward_batch(model, complete_samples[:1])
        assert pred == int(np.argmax(logits.data[0]))

    def test_shift_invariance(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        logits = forward_batch(model, complete_samples[:1])[0].data[0]
        assert int(np.argmax(logits)) == int(np.argmax(logits + 123.0))

    def test_list_labels_predict_positive_logit_columns(self, tiny_backbone):
        """List labels make each prediction the sorted columns of the sample's
        logits row above 0, where the sigmoid passes 0.5."""
        model = make_model(tiny_backbone)
        samples = list_label_samples()
        preds = predict_batch(model, samples)
        logits, _ = forward_batch(model, samples)
        assert preds == [sorted(int(c) for c in np.nonzero(row > 0.0)[0]) for row in logits.data]
        assert all(type(c) is int for p in preds for c in p)
        assert {len(p) for p in preds} != {0}

    def test_mixed_label_kinds_refused_naming_samples(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        lists = list_label_samples()[:2]
        with pytest.raises(ValueError) as exc:
            predict_batch(model, complete_samples[:1] + lists)
        assert str(exc.value) == (f"samples mix list labels {[s.id for s in lists]} "
                                  f"and int labels {[complete_samples[0].id]}")

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
        single = np.concatenate([forward_batch(model, [s])[0].data for s in samples])
        np.testing.assert_allclose(single, forward_batch(model, samples)[0].data,
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
        before = parameter_bytes(model)
        with pytest.raises(ValueError, match="batch_size"):
            train_task(model, stream.train_data(0)[:8], 1, batch_size, 1e-4, seed=0)
        assert parameter_bytes(model) == before

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, tiny_backbone, tiny_benchmark, epochs):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        with pytest.raises(ValueError, match=f"train_task: epochs must be >= 1, got {epochs}"):
            train_task(model, stream.train_data(0)[:8], epochs, 4, 1e-4, seed=0)

    def test_list_labels_train_on_binary_cross_entropy(self, tiny_backbone, monkeypatch):
        """A model built with no label setting trains a list-label session on
        binary cross-entropy over multi-hot targets, one per sample and epoch,
        and predicts active sets."""
        targets = []
        bce = T.binary_cross_entropy

        def spying_bce(logits, target):
            targets.append(target.data)
            return bce(logits, target)

        def refuse(*args):
            raise AssertionError("cross_entropy called")

        monkeypatch.setattr(T, "binary_cross_entropy", spying_bce)
        monkeypatch.setattr(T, "cross_entropy", refuse)
        model = make_model(tiny_backbone)
        samples = list_label_samples()
        log = train_task(model, samples, 2, 4, 1e-4, seed=9)
        assert len(targets) == len(log.steps) == 2 * math.ceil(len(samples) / 4)
        assert all(np.isfinite(s.classification) and s.classification > 0 for s in log.steps)
        active = sorted(np.flatnonzero(row).tolist() for t in targets for row in t)
        assert active == sorted(2 * [s.label for s in samples])
        assert set(np.concatenate(targets).ravel().tolist()) == {0.0, 1.0}
        preds = predict_batch(model, samples)
        assert all(isinstance(p, list) and set(p) <= set(range(4)) for p in preds)

    def test_mixed_label_kinds_refused_naming_samples(self, tiny_backbone, complete_samples):
        model = make_model(tiny_backbone)
        lists = list_label_samples()[:2]
        before = parameter_bytes(model)
        with pytest.raises(ValueError) as exc:
            train_task(model, lists + complete_samples[:2], 1, 4, 1e-4, seed=0)
        assert str(exc.value) == (f"samples mix list labels {[s.id for s in lists]} "
                                  f"and int labels {[s.id for s in complete_samples[:2]]}")
        assert parameter_bytes(model) == before

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
        # the incomplete rows as forward_batch groups them: text-only, then image-only
        sources = complete_samples[4:8 - n_c]
        half = (len(sources) + 1) // 2
        incomplete = ([s.without("visual") for s in sources[:half]]
                      + [s.without("text") for s in sources[half:]])
        complete = complete_samples[:n_c]
        batch = complete + incomplete
        attached = []
        attach = T.attach

        def spying_attach(scalar, x, grad, seed):
            attached.append(grad)
            return attach(scalar, x, grad, seed)

        monkeypatch.setattr(T, "attach", spying_attach)
        _, l_r = forward_batch(model, batch, with_lr=True)

        # forward_batch's rows and memory selection, then the counterparts in one pass
        rows = (incomplete + complete + [s.without("visual") for s in complete]
                + [s.without("text") for s in complete])
        bb = model.backbone
        with T.no_grad():
            emb = bb.embed_batch(rows)
            queries = generate_queries_batch(rows, bb, emb=emb)
            prefix = model.memory.select(Tensor(queries[list(range(4 - n_c)) + list(
                range(4, len(rows))), 2]))
        block = Tensor(prefix.data[4 - n_c:], trainable=True)
        recon = reconstruct_batch(rows[4:], block, bb, emb=emb[4:])
        # text-only rows reconstruct the visual query, image-only rows the text
        truth = Tensor(np.concatenate([queries[4 - n_c:4, 1], queries[4 - n_c:4, 0]]))
        want = T.scale(T.tsum(T.square(T.sub(truth, recon))), 1.0 / n_c)
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
        before = parameter_bytes(model)
        train_task(model, stream.train_data(0)[:4], 1, 4, 0.0, seed=3)
        assert parameter_bytes(model) == before

    def test_backbone_frozen_through_training(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = tiny_backbone.parameter_bytes()
        train_task(model, stream.train_data(0)[:12], 1, 4, 1e-4, seed=4)
        assert tiny_backbone.parameter_bytes() == before

    def test_training_moves_pools_and_head(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        before = parameter_bytes(model)
        train_task(model, stream.train_data(0)[:12], 2, 4, 1e-4, seed=5)
        assert parameter_bytes(model) != before

    @pytest.mark.parametrize("variant", sorted(VARIANT_PRESETS))
    def test_every_parameter_trains_and_backbone_stays(self, tiny_backbone, tiny_benchmark,
                                                       variant):
        """A variant builds only what it reads: over one session with every
        layer prompted, every parameter of the model moves and no backbone
        parameter does."""
        _, stream = tiny_benchmark
        session = stream.train_data(0)
        assert {s.missing_type for s in session} == set(MISSING_TYPES)
        model = make_model(tiny_backbone, variant)
        assert model.mcfg.prompted_layers is None  # every layer takes a prompt
        before = {name: p.data.copy() for name, p in model.named_parameters().items()}
        frozen = tiny_backbone.parameter_bytes()
        train_task(model, session, 1, 4, 1e-3, seed=8)
        unmoved = [name for name, p in model.named_parameters().items()
                   if np.array_equal(p.data, before[name])]
        assert unmoved == []
        assert tiny_backbone.parameter_bytes() == frozen

    def test_gradient_routing_lambda_positive(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        batch = [s for s in stream.train_data(0) if s.missing_type == "complete"][:3]
        logits, l_r = forward_batch(model, batch, with_lr=True)
        l_c = T.cross_entropy(logits, _targets(model, batch, False))
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
        logits, l_r = forward_batch(model, complete, with_lr=True)
        assert l_r is None
        T.cross_entropy(logits, _targets(model, complete, False)).backward()
        assert model.memory.components.grad is None

        # incomplete samples route gradient into the memory pool through q-hat
        logits, _ = forward_batch(model, incomplete, with_lr=True)
        T.cross_entropy(logits, _targets(model, incomplete, False)).backward()
        assert model.memory.components.grad is not None
        assert np.abs(model.memory.components.grad).sum() > 0

    def test_deterministic_training(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        runs = []
        for _ in range(2):
            model = make_model(tiny_backbone)
            train_task(model, stream.train_data(0)[:12], 1, 4, 1e-4, seed=6)
            runs.append(parameter_bytes(model))
        assert runs[0] == runs[1]

    def test_non_finite_loss_stops_before_update(self, tiny_backbone, tiny_benchmark):
        _, stream = tiny_benchmark
        model = make_model(tiny_backbone)
        model.head_b.data[0] = np.nan
        before = parameter_bytes(model)
        with pytest.raises(ValueError, match="train_task: non-finite loss at step 0"):
            train_task(model, stream.train_data(0)[:8], 1, 4, 1e-4, seed=0)
        assert parameter_bytes(model) == before

    def test_non_finite_reconstruction_loss_stops_before_update(self, tiny_backbone,
                                                                complete_samples):
        """L_r's backward runs inside forward_batch; a NaN there still stops the
        step before any parameter moves, with L_c finite."""
        model = make_model(tiny_backbone)
        model.memory.components.data[0] = np.nan
        before = parameter_bytes(model)
        with pytest.raises(ValueError, match=r"non-finite loss at step 0 \(L_c \d.*L_r nan"):
            train_task(model, complete_samples[:4], 1, 4, 1e-4, seed=0)
        assert parameter_bytes(model) == before

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
            results.append((parameter_bytes(model), preds))
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
        logits_fused, l_r_fused = forward_batch(model, batch, with_lr=True)
        logits, l_r = forward_batch(model, batch)
        assert l_r is None
        np.testing.assert_allclose(logits_fused.data, logits.data, atol=1e-10)
        l_r_ref = reconstruction_loss(complete, model.memory, model.backbone)
        assert l_r_fused.item() == pytest.approx(l_r_ref.item(), abs=1e-10)

    def test_lr_off_without_lambda_or_memory(self, tiny_backbone, tiny_benchmark):
        """L_r needs lam > 0 and a memory source, which only modality-specific
        queries build."""
        _, stream = tiny_benchmark
        batch = stream.train_data(0)[:6]
        assert any(s.missing_type == "complete" for s in batch)
        for model in (make_model(tiny_backbone, lam=0.0),
                      make_model(tiny_backbone, variant="no_reconstruction"),
                      make_model(tiny_backbone, variant="no_modality_specific_query")):
            logits, l_r = forward_batch(model, batch, with_lr=True)
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
    def test_float32_throughout(self, tiny_backbone, tiny_benchmark, monkeypatch):
        _, stream = tiny_benchmark
        dtypes = record_dtypes(monkeypatch)
        f32 = {np.dtype(np.float32)}
        model = make_model(tiny_backbone)
        train_task(model, stream.train_data(0)[:4], 1, 4, 1e-4, seed=8)
        predict_batch(model, stream.test_data(0)[:6])
        assert dtypes == f32
        tensors = [*tiny_backbone.params.values(), *model.named_parameters().values()]
        assert {t.data.dtype for t in tensors} == f32

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
            logits, l_r = forward_batch(model, batch, with_lr=True)
            l_c = T.cross_entropy(logits, _targets(model, batch, False))
            return T.add(l_c, T.scale(l_r, model.mcfg.lam))

        l_r_ref = reconstruction_loss([complete_samples[1]], model.memory, model.backbone)
        assert forward_batch(model, batch, with_lr=True)[1].item() == pytest.approx(
            l_r_ref.item(), abs=1e-10)

        build().backward()
        for name in ("memory.components", "memory.keys", "memory.attention",
                     "folder.components", "album.keys", "head.w"):
            p = model.named_parameters()[name]
            analytic = p.grad.copy()
            p.grad = None
            assert_grad_close(analytic, finite_diff_grad(build, p))
