import dataclasses

import numpy as np
import pytest

from rebq import backbone
from rebq import tensor as T
from rebq.backbone import (MIN_ACCURACY, BackboneConfig, MultimodalBackbone, PretrainConfig,
                           frozen_backbone, pretrain, recon_positions, unified_positions)
from rebq.bench import Sample, SynthConfig, dummy_patches, synth_generate
from rebq.tensor import AdamW, Tensor

from conftest import float64

CFG = BackboneConfig(embed_dim=32, num_layers=2, num_heads=2, pretrain_classes=4)
SYNTH = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                    tokens_per_class=6, noise_token_prob=0.05, patch_noise_std=0.2)


def make_backbone(seed=0):
    return MultimodalBackbone(CFG, SYNTH, np.random.default_rng(seed))


def text_rows(x):
    """The X_text rows of an embedded unified sequence."""
    return x.data[:, 2:2 + SYNTH.max_text_len]


def visual_rows(x):
    """The X_visual rows of an embedded unified sequence."""
    return x.data[:, 3 + SYNTH.max_text_len:]


def sample_for(tokens, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(id="t", text_tokens=tokens,
                  patches=rng.standard_normal((SYNTH.num_patches, SYNTH.patch_dim)), label=0)


class TestEmbed:
    def test_same_token_differs_only_by_position(self):
        bb = float64(make_backbone())
        emb = text_rows(bb.embed_batch([sample_for([5, 5, 5])]))[0]
        pos = bb.params["text_pos"].data
        np.testing.assert_allclose(emb[0] - emb[1], pos[0] - pos[1], atol=1e-12)

    def test_dummy_image_equals_explicit_all_ones(self):
        bb = make_backbone()
        masked = Sample(id="a", text_tokens=[1, 2], patches=dummy_patches(4, 6),
                        label=0, has_visual=False)
        explicit = Sample(id="b", text_tokens=[1, 2],
                          patches=np.ones((4, 6)), label=0)
        a = visual_rows(bb.embed_batch([masked]))
        b = visual_rows(bb.embed_batch([explicit]))
        assert a.tobytes() == b.tobytes()

    def test_dummy_text_equals_empty_encoding(self):
        bb = make_backbone()
        rng = np.random.default_rng(3)
        patches = rng.standard_normal((4, 6))
        masked = Sample(id="a", text_tokens=[], patches=patches, label=0, has_text=False)
        explicit = Sample(id="b", text_tokens=[], patches=patches, label=0)
        assert text_rows(bb.embed_batch([masked])).tobytes() == \
            text_rows(bb.embed_batch([explicit])).tobytes()

    def test_token_out_of_range_rejected(self):
        bb = make_backbone()
        with pytest.raises(ValueError):
            bb.embed_batch([sample_for([64])])

    def test_padding_fills_short_text(self):
        bb = make_backbone()
        short = text_rows(bb.embed_batch([sample_for([7])]))[0]
        padded = text_rows(bb.embed_batch([sample_for([7, 0, 0, 0, 0, 0, 0, 0])]))[0]
        assert short.tobytes() == padded.tobytes()


class TestForward:
    def test_output_length_matches_input(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for([1, 2, 3])])
        out = bb.forward(emb)
        assert out.shape == (1, 2 + SYNTH.max_text_len + 1 + SYNTH.num_patches, CFG.embed_dim)

    def test_attention_prefix_keeps_length(self):
        bb = make_backbone(seed=1)
        emb = bb.embed_batch([sample_for([1, 2, 3])])
        blocks = Tensor(np.random.default_rng(2).standard_normal((1, 2, 2, 8, 32)))
        out = bb.forward(emb, blocks)
        assert out.shape[1] == 2 + SYNTH.max_text_len + 1 + SYNTH.num_patches

    def test_empty_prefix_bit_identical_to_uninjected(self):
        bb = make_backbone(seed=4)
        emb = bb.embed_batch([sample_for([4, 9])])
        plain = bb.forward(emb).data
        empty = T.zeros((1, 2, 2, 0, 32))
        injected = bb.forward(emb, empty).data
        assert plain.tobytes() == injected.tobytes()

    def test_zero_prompted_layers_bit_identical(self):
        bb = make_backbone(seed=5)
        emb = bb.embed_batch([sample_for([4, 9])])
        blocks = Tensor(np.random.default_rng(6).standard_normal((1, 0, 2, 4, 32)))
        plain = bb.forward(emb).data
        injected = bb.forward(emb, blocks).data
        assert plain.tobytes() == injected.tobytes()

    def test_too_many_prompted_layers_rejected(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for([1])])
        blocks = Tensor(np.zeros((1, 3, 2, 2, 32)))
        with pytest.raises(ValueError, match="prefix prompts 3 layers, backbone has 2"):
            bb.forward(emb, blocks)

    def test_dimension_mismatch_rejected(self):
        bb = make_backbone()
        with pytest.raises(T.ShapeError):
            bb.forward(Tensor(np.zeros((1, 3, 16))))

    def test_forward_deterministic(self):
        bb = make_backbone(seed=7)
        emb = bb.embed_batch([sample_for([2, 4, 8])])
        a = bb.forward(emb).data.tobytes()
        b = bb.forward(emb).data.tobytes()
        assert a == b

    def test_head_permutation_symmetry(self):
        bb = float64(make_backbone(seed=8))
        emb = bb.embed_batch([sample_for([3, 1, 4])])
        base = bb.forward(emb).data.copy()
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
        permuted = bb.forward(emb).data
        np.testing.assert_allclose(permuted, base, atol=1e-10)

    def test_merged_injection_concats_prefixes(self):
        """Blocks merged along N_p act as one set of prompts: their order does
        not change the output beyond rounding."""
        bb = float64(make_backbone(seed=9))
        emb = bb.embed_batch([sample_for([1, 2])])
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((1, 2, 2, 3, 32)))
        b = Tensor(rng.standard_normal((1, 2, 2, 2, 32)))
        merged = T.concat([a, b], axis=3)
        assert merged.shape == (1, 2, 2, 5, 32)
        joint = bb.forward(emb, merged).data
        swapped = bb.forward(emb, T.concat([b, a], axis=3)).data
        np.testing.assert_allclose(joint, swapped, rtol=0, atol=1e-12)
        assert not np.allclose(joint, bb.forward(emb, a).data)

    def test_shallow_prefix_prompts_leading_layers(self, monkeypatch):
        """A prefix with fewer layers than the backbone prompts the leading ones."""
        bb = make_backbone(seed=12)
        emb = bb.embed_batch([sample_for([3, 5])])
        prefixes = []
        attention = T.attention

        def spy(qkv, heads, prefix=None, rows=None):
            prefixes.append(None if prefix is None else prefix.shape)
            return attention(qkv, heads, prefix, rows)

        monkeypatch.setattr(T, "attention", spy)
        shallow = Tensor(np.random.default_rng(12).standard_normal((1, 1, 2, 3, 32), np.float32))
        bb.forward(emb, shallow)
        assert prefixes == [(1, 2, 3, 32), None]


def pretrain_corpus(seed=11, n=40, **synth):
    return synth_generate(CFG.pretrain_classes, n, dataclasses.replace(SYNTH, **synth), seed=seed)


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
        model, _ = pretrain(CFG, corpus, seed=13,
                            pcfg=PretrainConfig(steps=60, batch_size=8, eval_every=30))
        before = model.parameter_bytes()
        emb = model.embed_batch(corpus[1][:2])
        out = model.forward(emb)
        T.tsum(T.square(out)).backward()
        assert all(t.grad is None for t in model.params.values())
        assert model.parameter_bytes() == before

    def test_equal_seeds_bit_identical(self):
        corpus = pretrain_corpus()
        cfgp = PretrainConfig(steps=50, batch_size=8, eval_every=25)
        a, _ = pretrain(CFG, corpus, seed=14, pcfg=cfgp)
        b, _ = pretrain(CFG, corpus, seed=14, pcfg=cfgp)
        assert a.parameter_bytes() == b.parameter_bytes()

    def test_incomplete_corpus_rejected(self):
        meta, samples = pretrain_corpus()
        samples[0] = samples[0].without("text")
        with pytest.raises(ValueError, match="pretraining corpus must be modality-complete"):
            pretrain(CFG, (meta, samples), seed=15)

    def test_unusable_flag_below_minimum(self):
        corpus = pretrain_corpus()
        _, report = pretrain(CFG, corpus, seed=17,
                             pcfg=PretrainConfig(steps=1, batch_size=4, eval_every=1))
        assert report.accuracy < MIN_ACCURACY
        assert not report.usable

    def test_multi_label_corpus_refused_by_name(self, monkeypatch):
        """List labels make no one-hot target, so the corpus is refused by its
        label mode before the first step."""
        steps = []
        monkeypatch.setattr(AdamW, "step", lambda self: steps.append(self))
        with pytest.raises(ValueError) as exc:
            pretrain(CFG, pretrain_corpus(multi_label=True), seed=19, pcfg=PretrainConfig(steps=2))
        assert str(exc.value) == ("pretraining corpus must be single-label, "
                                  "got synth.multi_label true")
        assert steps == []

    def test_frozen_backbone_vocab_too_small_refused_by_name(self, monkeypatch):
        """The pretraining corpus draws pretrain_classes token bags of
        SynthConfig's default tokens_per_class (8), not the run's 6: 4 x 8
        tokens and padding need 33 ids, so vocab_size 32 is refused before a
        corpus is drawn, and 33 passes."""
        class Drawn(Exception):
            pass

        def draw(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(backbone, "synth_generate", draw)
        monkeypatch.setattr(backbone, "_FROZEN", {})
        with pytest.raises(ValueError) as exc:
            frozen_backbone(CFG, dataclasses.replace(SYNTH, vocab_size=32))
        assert str(exc.value) == ("backbone.pretrain_classes 4 x the pretraining corpus's 8 "
                                  "tokens per class need synth.vocab_size >= 33, got 32")
        with pytest.raises(Drawn):
            frozen_backbone(CFG, dataclasses.replace(SYNTH, vocab_size=33))

    def test_single_sample_corpus_refused(self):
        """One sample is held out, so none would be left to train on."""
        meta, samples = pretrain_corpus()
        with pytest.raises(ValueError, match="at least 2 samples, got 1: one is held out"):
            pretrain(CFG, (meta, samples[:1]), seed=18, pcfg=PretrainConfig(steps=2))


class TestPositions:
    def test_unified_layout_indices(self):
        """The unified and reconstruction rows take the text length and the
        patch count from the tables the backbone was built with."""
        pos = unified_positions(make_backbone())
        assert pos == {"joint": 0, "text_cls": 1, "visual_cls": 2 + SYNTH.max_text_len}
        synth = dataclasses.replace(SYNTH, vocab_size=40, max_text_len=5, num_patches=3)
        bb = MultimodalBackbone(CFG, synth, np.random.default_rng(0))
        assert bb.input_sizes() == {"vocab_size": 40, "max_text_len": 5, "num_patches": 3,
                                    "patch_dim": 6}
        assert unified_positions(bb) == {"joint": 0, "text_cls": 1, "visual_cls": 7}
        assert recon_positions(bb) == [0, 2, 3, 4, 5, 6, 8, 9, 10]

    def test_embedded_sequence_layout(self):
        """embed_batch puts the three cls rows around the text and patch rows,
        and the reconstruction layout is that sequence without the modality
        cls rows."""
        bb = make_backbone()
        x = bb.embed_batch([sample_for([1, 2, 3]), sample_for([4], seed=1)])
        p, pos = bb.params, unified_positions(bb)
        assert x.shape == (2, 3 + SYNTH.max_text_len + SYNTH.num_patches, CFG.embed_dim)
        for row, vec in ((pos["joint"], p["cls"].data),
                         (pos["text_cls"], p["cls_t"].data + p["text_type"].data),
                         (pos["visual_cls"], p["cls_v"].data + p["vis_type"].data)):
            assert x.data[1, row].tobytes() == vec.tobytes()
        recon = np.concatenate([x.data[:, :1], text_rows(x), visual_rows(x)], axis=1)
        assert x.data[:, recon_positions(bb)].tobytes() == recon.tobytes()


class TestReadout:
    """forward(..., positions=...) against the rows of the full forward."""

    def sequence(self, bb, kind):
        """A freshly embedded input for one graph: a backward releases the
        records it walks, so two graphs that each run a backward cannot share
        them."""
        emb = bb.embed_batch([sample_for([1, 2, 3], seed=1), sample_for([9], seed=2)])
        return emb[:, recon_positions(bb)] if kind == "recon-attention" else emb

    def layout(self, bb, kind, rng):
        if kind == "unified-attention":
            blocks = Tensor(rng.standard_normal((2, 2, 2, 3, 32)), trainable=True)
            pos = unified_positions(bb)
            return blocks, [pos["text_cls"], pos["visual_cls"], pos["joint"]]
        if kind == "recon-attention":
            block = Tensor(rng.standard_normal((2, 1, 2, 5, 32)), trainable=True)
            # the joint cls, a text row and the last patch row, one prompted layer
            return block, [0, 3, SYNTH.max_text_len + SYNTH.num_patches]
        return None, [0]

    @pytest.mark.parametrize("kind", ["unified-attention", "recon-attention", "plain"])
    def test_rows_equal_full_forward(self, kind):
        bb = float64(make_backbone(seed=13))
        rng = np.random.default_rng(14)
        prompt, rows = self.layout(bb, kind, rng)
        full = bb.forward(self.sequence(bb, kind), prompt)
        part = bb.forward(self.sequence(bb, kind), prompt, positions=rows)
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
                                      [2 + SYNTH.max_text_len + SYNTH.num_patches + 1]])
    def test_bad_positions_rejected(self, rows):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for([1])])
        with pytest.raises(ValueError, match="positions"):
            bb.forward(emb, positions=rows)


class TestPretrainConfig:
    # steps, batch_size and eval_every at 0 are covered through the CLI
    @pytest.mark.parametrize("field, value", [("batch_size", -3)])
    def test_bad_setting_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PretrainConfig(**{field: value})
