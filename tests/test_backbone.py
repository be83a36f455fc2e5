import numpy as np
import pytest

from rebq import serialize
from rebq import tensor as T
from rebq.backbone import (BackboneConfig, MultimodalBackbone, PretrainConfig,
                           PromptInjection, build_injection, pretrain,
                           unified_positions)
from rebq.bench import Sample, SynthConfig, dummy_patches, synth_generate
from rebq.tensor import Tensor

from conftest import float64

CFG = BackboneConfig(embed_dim=32, num_layers=2, num_heads=2, text_vocab_size=64,
                     max_text_len=8, num_patches=4, patch_dim=6, pretrain_classes=4)


def make_backbone(seed=0, cfg=CFG):
    return MultimodalBackbone(cfg, np.random.default_rng(seed))


def sample_for(cfg, tokens, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(id="t", text_tokens=tokens,
                  patches=rng.standard_normal((cfg.num_patches, cfg.patch_dim)), label=0)


class TestEmbed:
    def test_same_token_differs_only_by_position(self):
        bb = float64(make_backbone())
        emb = bb.embed_batch([sample_for(CFG, [5, 5, 5])]).text.data[0]
        pos = bb.params["text_pos"].data
        np.testing.assert_allclose(emb[0] - emb[1], pos[0] - pos[1], atol=1e-12)

    def test_dummy_image_equals_explicit_all_ones(self):
        bb = make_backbone()
        masked = Sample(id="a", text_tokens=[1, 2], patches=dummy_patches(4, 6),
                        label=0, has_visual=False)
        explicit = Sample(id="b", text_tokens=[1, 2],
                          patches=np.ones((4, 6)), label=0)
        a = bb.embed_batch([masked]).visual.data
        b = bb.embed_batch([explicit]).visual.data
        assert a.tobytes() == b.tobytes()

    def test_dummy_text_equals_empty_encoding(self):
        bb = make_backbone()
        rng = np.random.default_rng(3)
        patches = rng.standard_normal((4, 6))
        masked = Sample(id="a", text_tokens=[], patches=patches, label=0, has_text=False)
        explicit = Sample(id="b", text_tokens=[], patches=patches, label=0)
        assert bb.embed_batch([masked]).text.data.tobytes() == \
            bb.embed_batch([explicit]).text.data.tobytes()

    def test_token_out_of_range_rejected(self):
        bb = make_backbone()
        with pytest.raises(ValueError):
            bb.embed_batch([sample_for(CFG, [64])])

    def test_padding_fills_short_text(self):
        bb = make_backbone()
        short = bb.embed_batch([sample_for(CFG, [7])]).text.data[0]
        padded = bb.embed_batch([sample_for(CFG, [7, 0, 0, 0, 0, 0, 0, 0])]).text.data[0]
        assert short.tobytes() == padded.tobytes()


class TestForward:
    def test_output_length_matches_input(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3])])
        out = bb.forward(bb.unified_segments(emb))
        assert out.shape == (1, 2 + CFG.max_text_len + 1 + CFG.num_patches, CFG.embed_dim)

    def test_attention_prefix_keeps_length(self):
        bb = make_backbone(seed=1)
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3])])
        blocks = Tensor(np.random.default_rng(2).standard_normal((1, 2, 2, 8, 32)))
        out = bb.forward(bb.unified_segments(emb), build_injection([("attention", blocks)], 2))
        assert out.shape[1] == 2 + CFG.max_text_len + 1 + CFG.num_patches

    def test_input_append_adds_length(self):
        bb = make_backbone(seed=1)
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3])])
        block = Tensor(np.random.default_rng(3).standard_normal((1, 5, 32)))
        out = bb.forward(bb.recon_segments(emb), build_injection([("input", block)], 0))
        assert out.shape[1] == 1 + CFG.max_text_len + CFG.num_patches + 5

    def test_empty_prefix_bit_identical_to_uninjected(self):
        bb = make_backbone(seed=4)
        emb = bb.embed_batch([sample_for(CFG, [4, 9])])
        plain = bb.forward(bb.unified_segments(emb)).data
        empty = T.zeros((1, 2, 2, 0, 32))
        injected = bb.forward(bb.unified_segments(emb),
                              build_injection([("attention", empty)], 2)).data
        assert plain.tobytes() == injected.tobytes()

    def test_zero_prompted_layers_bit_identical(self):
        bb = make_backbone(seed=5)
        emb = bb.embed_batch([sample_for(CFG, [4, 9])])
        blocks = Tensor(np.random.default_rng(6).standard_normal((1, 2, 2, 4, 32)))
        plain = bb.forward(bb.unified_segments(emb)).data
        injected = bb.forward(bb.unified_segments(emb),
                              PromptInjection(attn=blocks, num_prompted_layers=0)).data
        assert plain.tobytes() == injected.tobytes()

    def test_too_many_prompted_layers_rejected(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1])])
        blocks = Tensor(np.zeros((1, 5, 2, 2, 32)))
        with pytest.raises(ValueError):
            bb.forward(bb.unified_segments(emb),
                       PromptInjection(attn=blocks, num_prompted_layers=5))

    def test_dimension_mismatch_rejected(self):
        bb = make_backbone()
        with pytest.raises(T.ShapeError):
            bb.forward([Tensor(np.zeros((1, 3, 16)))])

    def test_forward_deterministic(self):
        bb = make_backbone(seed=7)
        emb = bb.embed_batch([sample_for(CFG, [2, 4, 8])])
        a = bb.forward(bb.unified_segments(emb)).data.tobytes()
        b = bb.forward(bb.unified_segments(emb)).data.tobytes()
        assert a == b

    def test_head_permutation_symmetry(self):
        bb = float64(make_backbone(seed=8))
        emb = bb.embed_batch([sample_for(CFG, [3, 1, 4])])
        base = bb.forward(bb.unified_segments(emb)).data.copy()
        d, h = CFG.embed_dim, CFG.num_heads
        dh = d // h
        perm = np.arange(d).reshape(h, dh)[::-1].ravel()  # swap the two heads
        for l in range(CFG.num_layers):
            qkv = bb.params[f"l{l}.qkv_w"].data
            for part in range(3):
                qkv[:, part * d:(part + 1) * d] = qkv[:, part * d:(part + 1) * d][:, perm]
            b = bb.params[f"l{l}.qkv_b"].data
            for part in range(3):
                b[part * d:(part + 1) * d] = b[part * d:(part + 1) * d][perm]
            bb.params[f"l{l}.out_w"].data = bb.params[f"l{l}.out_w"].data[perm, :]
        permuted = bb.forward(bb.unified_segments(emb)).data
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_merged_injection_concats_prefixes(self):
        bb = make_backbone(seed=9)
        emb = bb.embed_batch([sample_for(CFG, [1, 2])])
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((1, 2, 2, 3, 32)))
        b = Tensor(rng.standard_normal((1, 2, 2, 2, 32)))
        merged = build_injection([("attention", a), ("attention", b)], 2)
        assert merged.attn.shape == (1, 2, 2, 5, 32)
        joint = bb.forward(bb.unified_segments(emb), merged).data
        direct = bb.forward(bb.unified_segments(emb),
                            build_injection([("attention", T.concat([a, b], axis=3))],
                                            2)).data
        assert joint.tobytes() == direct.tobytes()

    def test_injection_builder_modes(self):
        rng = np.random.default_rng(12)
        block = Tensor(rng.standard_normal((1, 3, 32)))
        inj = build_injection([("input", block)], 2)
        assert inj.attn is None and inj.input_blocks == [block]
        assert inj.num_prompted_layers == 0
        assert build_injection([], 2) is None
        with pytest.raises(ValueError, match="sideways"):
            build_injection([("sideways", block)], 2)


def pretrain_corpus(seed=11, n=40):
    synth = SynthConfig(vocab_size=CFG.text_vocab_size, max_text_len=CFG.max_text_len,
                        num_patches=CFG.num_patches, patch_dim=CFG.patch_dim,
                        tokens_per_class=6, noise_token_prob=0.05, patch_noise_std=0.2)
    return synth_generate(CFG.pretrain_classes, n, synth, seed=seed)


class TestPretrain:
    def test_reaches_target_accuracy(self):
        corpus = pretrain_corpus()
        model, report = pretrain(CFG, corpus, seed=12, pcfg=
                                 PretrainConfig(steps=400, batch_size=16, eval_every=50))
        assert report.accuracy >= 0.9
        assert report.usable
        assert model.frozen

    def test_frozen_parameters_reject_gradients(self):
        corpus = pretrain_corpus()
        model, _ = pretrain(CFG, corpus, seed=13, pcfg=
                            PretrainConfig(steps=60, batch_size=8, eval_every=30,
                                           target_accuracy=0.0))
        before = model.parameter_bytes()
        emb = model.embed_batch(corpus[1][:2])
        out = model.forward(model.unified_segments(emb))
        T.tsum(T.square(out)).backward()
        assert all(t.grad is None for t in model.params.values())
        assert model.parameter_bytes() == before

    def test_equal_seeds_bit_identical(self):
        corpus = pretrain_corpus()
        cfgp = PretrainConfig(steps=50, batch_size=8, eval_every=25, target_accuracy=0.0)
        a, _ = pretrain(CFG, corpus, seed=14, pcfg=cfgp)
        b, _ = pretrain(CFG, corpus, seed=14, pcfg=cfgp)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_incomplete_corpus_rejected(self):
        meta, samples = pretrain_corpus()
        samples[0].has_text = False
        with pytest.raises(ValueError):
            pretrain(CFG, (meta, samples), seed=15)

    def test_checkpoint_round_trip(self, tmp_path):
        corpus = pretrain_corpus()
        model, report = pretrain(CFG, corpus, seed=16, pcfg=
                                 PretrainConfig(steps=40, batch_size=8, eval_every=20,
                                                target_accuracy=0.0))
        path = tmp_path / "backbone.rbqt"
        model.save_checkpoint(path, {"accuracy": report.accuracy, "usable": report.usable})
        loaded, meta = MultimodalBackbone.load_checkpoint(path)
        assert loaded.frozen
        assert meta["accuracy"] == report.accuracy
        assert loaded.parameter_bytes() == model.parameter_bytes()
        emb_a = model.embed_batch(corpus[1][:3])
        emb_b = loaded.embed_batch(corpus[1][:3])
        a = model.forward(model.unified_segments(emb_a)).data
        b = loaded.forward(loaded.unified_segments(emb_b)).data
        assert a.tobytes() == b.tobytes()

    def test_unusable_flag_below_minimum(self):
        corpus = pretrain_corpus()
        _, report = pretrain(CFG, corpus, seed=17, pcfg=
                             PretrainConfig(steps=1, batch_size=4, eval_every=1,
                                            target_accuracy=2.0))
        assert not report.usable


class TestCheckpointValidation:
    @pytest.fixture()
    def path(self, tmp_path):
        bb = make_backbone()
        bb.freeze()
        path = tmp_path / "backbone.rbqt"
        bb.save_checkpoint(path)
        return path

    def rewrite(self, path, edit):
        kind, meta, arrays = serialize.load_container(path)
        edit(arrays)
        serialize.save_container(path, kind, meta, arrays)

    def test_truncated_payload_rejected(self, path):
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(serialize.ContainerError, match="truncated"):
            MultimodalBackbone.load_checkpoint(path)

    def test_missing_tensor_rejected(self, path):
        self.rewrite(path, lambda arrays: arrays.pop("lnf_b"))
        with pytest.raises(serialize.ContainerError, match="lnf_b"):
            MultimodalBackbone.load_checkpoint(path)

    def test_unknown_tensor_rejected(self, path):
        self.rewrite(path, lambda arrays: arrays.update(extra=np.zeros(3)))
        with pytest.raises(serialize.ContainerError, match="extra"):
            MultimodalBackbone.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, path):
        self.rewrite(path, lambda arrays: arrays.update(patch_w=np.zeros((5, CFG.embed_dim))))
        with pytest.raises(serialize.ContainerError, match="patch_w"):
            MultimodalBackbone.load_checkpoint(path)


class TestPositions:
    def test_unified_layout_indices(self):
        pos = unified_positions(CFG)
        assert pos == {"joint": 0, "text_cls": 1, "visual_cls": 2 + CFG.max_text_len}


class TestReadout:
    """forward(..., positions=...) against the rows of the full forward."""

    def layout(self, bb, kind, rng):
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3], seed=1), sample_for(CFG, [9], seed=2)])
        if kind == "unified-attention":
            blocks = Tensor(rng.standard_normal((2, 2, 2, 3, 32)), trainable=True)
            pos = unified_positions(CFG)
            return (bb.unified_segments(emb), build_injection([("attention", blocks)], 2),
                    [pos["text_cls"], pos["visual_cls"], pos["joint"]], blocks)
        if kind == "recon-input":
            block = Tensor(rng.standard_normal((2, 5, 32)), trainable=True)
            # the joint cls, a spliced prompt row and the last patch row
            return (bb.recon_segments(emb), build_injection([("input", block)], 0),
                    [0, 3, 1 + 5 + CFG.max_text_len + CFG.num_patches - 1], block)
        return bb.unified_segments(emb), None, [0], None

    @pytest.mark.parametrize("kind", ["unified-attention", "recon-input", "plain"])
    def test_rows_equal_full_forward(self, kind):
        bb = float64(make_backbone(seed=13))
        rng = np.random.default_rng(14)
        segments, inj, rows, prompt = self.layout(bb, kind, rng)
        full = bb.forward(segments, inj)
        part = bb.forward(segments, inj, positions=rows)
        assert part.shape == (2, len(rows), CFG.embed_dim)
        np.testing.assert_allclose(part.data, full.data[:, rows], rtol=0, atol=1e-12)
        if prompt is None:
            return
        coeff = Tensor(rng.standard_normal(part.shape))
        T.tsum(T.mul(part, coeff)).backward()
        grad_part, prompt.grad = prompt.grad, None
        T.tsum(T.mul(full[:, rows], coeff)).backward()
        np.testing.assert_allclose(grad_part, prompt.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[], [0, 0], [-1],
                                      [2 + CFG.max_text_len + CFG.num_patches + 1]])
    def test_bad_positions_rejected(self, rows):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1])])
        with pytest.raises(ValueError, match="positions"):
            bb.forward(bb.unified_segments(emb), positions=rows)


class TestPretrainConfig:
    # steps, batch_size and eval_every at 0 are covered through the CLI
    @pytest.mark.parametrize("field, value", [
        ("batch_size", -3), ("holdout_frac", 0.0), ("holdout_frac", 1.0),
        ("holdout_frac", -0.5)])
    def test_bad_setting_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PretrainConfig(**{field: value})
