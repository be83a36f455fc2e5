import dataclasses
import gc
import pickle
import sys

import numpy as np
import pytest

from rebq import tensor as T
from rebq.backbone import (META, MIN_ACCURACY, BackboneConfig, MultimodalBackbone,
                           PretrainConfig, pretrain, recon_positions, unified_positions)
from rebq.bench import Sample, SynthConfig, dummy_patches, synth_generate
from rebq.tensor import Tensor

from conftest import float64, read_checkpoint, write_checkpoint

CFG = BackboneConfig(embed_dim=32, num_layers=2, num_heads=2, text_vocab_size=64,
                     max_text_len=8, num_patches=4, patch_dim=6, pretrain_classes=4)


def make_backbone(seed=0, cfg=CFG):
    return MultimodalBackbone(cfg, np.random.default_rng(seed))


def text_rows(x):
    """The X_text rows of an embedded unified sequence."""
    return x.data[:, 2:2 + CFG.max_text_len]


def visual_rows(x):
    """The X_visual rows of an embedded unified sequence."""
    return x.data[:, 3 + CFG.max_text_len:]


def sample_for(cfg, tokens, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(id="t", text_tokens=tokens,
                  patches=rng.standard_normal((cfg.num_patches, cfg.patch_dim)), label=0)


class TestEmbed:
    def test_same_token_differs_only_by_position(self):
        bb = float64(make_backbone())
        emb = text_rows(bb.embed_batch([sample_for(CFG, [5, 5, 5])]))[0]
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
            bb.embed_batch([sample_for(CFG, [64])])

    def test_padding_fills_short_text(self):
        bb = make_backbone()
        short = text_rows(bb.embed_batch([sample_for(CFG, [7])]))[0]
        padded = text_rows(bb.embed_batch([sample_for(CFG, [7, 0, 0, 0, 0, 0, 0, 0])]))[0]
        assert short.tobytes() == padded.tobytes()


class TestForward:
    def test_output_length_matches_input(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3])])
        out = bb.forward(emb)
        assert out.shape == (1, 2 + CFG.max_text_len + 1 + CFG.num_patches, CFG.embed_dim)

    def test_attention_prefix_keeps_length(self):
        bb = make_backbone(seed=1)
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3])])
        blocks = Tensor(np.random.default_rng(2).standard_normal((1, 2, 2, 8, 32)))
        out = bb.forward(emb, blocks)
        assert out.shape[1] == 2 + CFG.max_text_len + 1 + CFG.num_patches

    def test_empty_prefix_bit_identical_to_uninjected(self):
        bb = make_backbone(seed=4)
        emb = bb.embed_batch([sample_for(CFG, [4, 9])])
        plain = bb.forward(emb).data
        empty = T.zeros((1, 2, 2, 0, 32))
        injected = bb.forward(emb, empty).data
        assert plain.tobytes() == injected.tobytes()

    def test_zero_prompted_layers_bit_identical(self):
        bb = make_backbone(seed=5)
        emb = bb.embed_batch([sample_for(CFG, [4, 9])])
        blocks = Tensor(np.random.default_rng(6).standard_normal((1, 0, 2, 4, 32)))
        plain = bb.forward(emb).data
        injected = bb.forward(emb, blocks).data
        assert plain.tobytes() == injected.tobytes()

    def test_too_many_prompted_layers_rejected(self):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1])])
        blocks = Tensor(np.zeros((1, 3, 2, 2, 32)))
        with pytest.raises(ValueError, match="prefix prompts 3 layers, backbone has 2"):
            bb.forward(emb, blocks)

    def test_dimension_mismatch_rejected(self):
        bb = make_backbone()
        with pytest.raises(T.ShapeError):
            bb.forward(Tensor(np.zeros((1, 3, 16))))

    def test_forward_deterministic(self):
        bb = make_backbone(seed=7)
        emb = bb.embed_batch([sample_for(CFG, [2, 4, 8])])
        a = bb.forward(emb).data.tobytes()
        b = bb.forward(emb).data.tobytes()
        assert a == b

    def test_head_permutation_symmetry(self):
        bb = float64(make_backbone(seed=8))
        emb = bb.embed_batch([sample_for(CFG, [3, 1, 4])])
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
        emb = bb.embed_batch([sample_for(CFG, [1, 2])])
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
        emb = bb.embed_batch([sample_for(CFG, [3, 5])])
        prefixes = []
        attention = T.attention

        def spy(qkv, heads, prefix=None, rows=None):
            prefixes.append(None if prefix is None else prefix.shape)
            return attention(qkv, heads, prefix, rows)

        monkeypatch.setattr(T, "attention", spy)
        shallow = Tensor(np.random.default_rng(12).standard_normal((1, 1, 2, 3, 32), np.float32))
        bb.forward(emb, shallow)
        assert prefixes == [(1, 2, 3, 32), None]


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
        samples[0].has_text = False
        with pytest.raises(ValueError):
            pretrain(CFG, (meta, samples), seed=15)

    def test_checkpoint_round_trip(self, tmp_path):
        corpus = pretrain_corpus()
        model, report = pretrain(CFG, corpus, seed=16,
                                 pcfg=PretrainConfig(steps=40, batch_size=8, eval_every=20))
        path = tmp_path / "backbone.rbqt"
        model.save_checkpoint(path, {"accuracy": report.accuracy, "usable": report.usable})
        loaded, meta = MultimodalBackbone.load_checkpoint(path)
        assert loaded.frozen
        assert meta["accuracy"] == report.accuracy
        assert loaded.parameter_bytes() == model.parameter_bytes()
        emb_a = model.embed_batch(corpus[1][:3])
        emb_b = loaded.embed_batch(corpus[1][:3])
        a = model.forward(emb_a).data
        b = loaded.forward(emb_b).data
        assert a.tobytes() == b.tobytes()

    def test_unusable_flag_below_minimum(self):
        corpus = pretrain_corpus()
        _, report = pretrain(CFG, corpus, seed=17,
                             pcfg=PretrainConfig(steps=1, batch_size=4, eval_every=1))
        assert report.accuracy < MIN_ACCURACY
        assert not report.usable

    def test_single_sample_corpus_refused(self):
        """One sample is held out, so none would be left to train on."""
        meta, samples = pretrain_corpus()
        with pytest.raises(ValueError, match="at least 2 samples, got 1: one is held out"):
            pretrain(CFG, (meta, samples[:1]), seed=18, pcfg=PretrainConfig(steps=2))


def rewrite(path, edit):
    """Rewrite the checkpoint at path with edit applied to its tensors."""
    meta, arrays = read_checkpoint(path)
    edit(arrays)
    write_checkpoint(path, meta, arrays)


def flip_payload_byte(path):
    _, arrays = read_checkpoint(path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(arrays["token_emb"].tobytes())] ^= 1
    path.write_bytes(bytes(raw))


def save_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.ones(3, dtype=np.float32))


def drop_meta(path):
    _, arrays = read_checkpoint(path)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def meta_not_an_object(path):
    write_checkpoint(path, [1, 2], read_checkpoint(path)[1])


def retype_lnf_b(dtype):
    return lambda path: rewrite(path, lambda arrays: arrays.update(
        lnf_b=np.zeros(CFG.embed_dim, dtype=dtype)))


class TestCheckpointValidation:
    @pytest.fixture()
    def path(self, tmp_path):
        bb = make_backbone()
        bb.freeze()
        path = tmp_path / "backbone.rbqt"
        bb.save_checkpoint(path)
        return path

    def test_extra_meta_cannot_replace_config_or_frozen(self, path):
        make_backbone().save_checkpoint(path, {"config": {}, "frozen": True, "usable": False})
        loaded, meta = MultimodalBackbone.load_checkpoint(path)
        assert not loaded.frozen and loaded.config == CFG
        assert meta == {"config": dataclasses.asdict(CFG), "frozen": False, "usable": False}

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(lambda p: p.write_bytes(p.read_bytes()[:-8]), "not an .npz archive",
                     id="truncated"),
        pytest.param(lambda p: p.write_bytes(b""), "not an .npz archive", id="empty"),
        pytest.param(flip_payload_byte, "Bad CRC-32 for file 'token_emb.npy'",
                     id="payload-byte-flipped"),
        pytest.param(lambda p: p.write_text("accuracy 0.9\n"), "not an .npz archive",
                     id="text-file"),
        pytest.param(save_npy, "not an .npz archive", id="npy-array"),
        pytest.param(drop_meta, f"the archive has no {META}", id="no-meta"),
        pytest.param(meta_not_an_object, f"{META} holds [1, 2], not a JSON object",
                     id="meta-not-an-object"),
        pytest.param(retype_lnf_b(object), "Object arrays cannot be loaded", id="object-member"),
        pytest.param(retype_lnf_b(np.int32), "tensor lnf_b has dtype int32, not a float",
                     id="integer-tensor"),
        pytest.param(retype_lnf_b(np.complex64), "tensor lnf_b has dtype complex64, not a float",
                     id="complex-tensor")])
    def test_refused_naming_the_path(self, path, monkeypatch, corrupt, message):
        """Refused with a ValueError that starts with the path, without
        unpickling anything or leaving a file handle open."""
        corrupt(path)
        unpickled, unraisable = [], []
        monkeypatch.setattr(pickle, "load", lambda *a, **k: unpickled.append(a))
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(ValueError) as refused:
            MultimodalBackbone.load_checkpoint(path)
        assert str(refused.value).startswith(f"{path}: ")
        assert message in str(refused.value)
        del refused
        gc.collect()  # a leaked handle warns as it is collected, so reaches the hook
        assert unpickled == [] and unraisable == []

    def test_missing_tensor_rejected(self, path):
        rewrite(path, lambda arrays: arrays.pop("lnf_b"))
        with pytest.raises(ValueError, match="lnf_b"):
            MultimodalBackbone.load_checkpoint(path)

    def test_unknown_tensor_rejected(self, path):
        rewrite(path, lambda arrays: arrays.update(extra=np.zeros(3)))
        with pytest.raises(ValueError, match="extra"):
            MultimodalBackbone.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, path):
        rewrite(path, lambda arrays: arrays.update(patch_w=np.zeros((5, CFG.embed_dim))))
        with pytest.raises(ValueError, match="patch_w"):
            MultimodalBackbone.load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("num_heads", 0, "num_heads must be >= 1, got 0"),
        ("embed_dim", 32.0, "embed_dim must be an integer, got 32.0")])
    def test_stored_config_breaking_a_rule_rejected(self, path, key, value, message):
        meta, arrays = read_checkpoint(path)
        meta["config"][key] = value
        write_checkpoint(path, meta, arrays)
        with pytest.raises(ValueError, match=f"bad backbone config: {message}"):
            MultimodalBackbone.load_checkpoint(path)


class TestPositions:
    def test_unified_layout_indices(self):
        pos = unified_positions(CFG)
        assert pos == {"joint": 0, "text_cls": 1, "visual_cls": 2 + CFG.max_text_len}

    def test_embedded_sequence_layout(self):
        """embed_batch puts the three cls rows around the text and patch rows,
        and the reconstruction layout is that sequence without the modality
        cls rows."""
        bb = make_backbone()
        x = bb.embed_batch([sample_for(CFG, [1, 2, 3]), sample_for(CFG, [4], seed=1)])
        p, pos = bb.params, unified_positions(CFG)
        assert x.shape == (2, 3 + CFG.max_text_len + CFG.num_patches, CFG.embed_dim)
        for row, vec in ((pos["joint"], p["cls"].data),
                         (pos["text_cls"], p["cls_t"].data + p["text_type"].data),
                         (pos["visual_cls"], p["cls_v"].data + p["vis_type"].data)):
            assert x.data[1, row].tobytes() == vec.tobytes()
        recon = np.concatenate([x.data[:, :1], text_rows(x), visual_rows(x)], axis=1)
        assert x.data[:, recon_positions(CFG)].tobytes() == recon.tobytes()


class TestReadout:
    """forward(..., positions=...) against the rows of the full forward."""

    def sequence(self, bb, kind):
        """A freshly embedded input for one graph: a backward releases the
        records it walks, so two graphs that each run a backward cannot share
        them."""
        emb = bb.embed_batch([sample_for(CFG, [1, 2, 3], seed=1), sample_for(CFG, [9], seed=2)])
        return emb[:, recon_positions(CFG)] if kind == "recon-attention" else emb

    def layout(self, kind, rng):
        if kind == "unified-attention":
            blocks = Tensor(rng.standard_normal((2, 2, 2, 3, 32)), trainable=True)
            pos = unified_positions(CFG)
            return blocks, [pos["text_cls"], pos["visual_cls"], pos["joint"]]
        if kind == "recon-attention":
            block = Tensor(rng.standard_normal((2, 1, 2, 5, 32)), trainable=True)
            # the joint cls, a text row and the last patch row, one prompted layer
            return block, [0, 3, CFG.max_text_len + CFG.num_patches]
        return None, [0]

    @pytest.mark.parametrize("kind", ["unified-attention", "recon-attention", "plain"])
    def test_rows_equal_full_forward(self, kind):
        bb = float64(make_backbone(seed=13))
        rng = np.random.default_rng(14)
        prompt, rows = self.layout(kind, rng)
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
                                      [2 + CFG.max_text_len + CFG.num_patches + 1]])
    def test_bad_positions_rejected(self, rows):
        bb = make_backbone()
        emb = bb.embed_batch([sample_for(CFG, [1])])
        with pytest.raises(ValueError, match="positions"):
            bb.forward(emb, positions=rows)


class TestPretrainConfig:
    # steps, batch_size and eval_every at 0 are covered through the CLI
    @pytest.mark.parametrize("field, value", [("batch_size", -3)])
    def test_bad_setting_names_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            PretrainConfig(**{field: value})
