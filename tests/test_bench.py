import decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebq import bench
from rebq.bench import (Prototypes, Sample, SynthConfig, apply_missing_mask, build_stream,
                        dummy_patches, make_prototypes, missing_counts, split_sessions,
                        synth_generate)


def half_up_oracle(x_num: float, n: int) -> int:
    """Independent rounding oracle via decimal arithmetic."""
    val = decimal.Decimal(str(x_num)) * n / decimal.Decimal(100)
    return int(val.quantize(decimal.Decimal("1"), rounding=decimal.ROUND_HALF_UP))


def nearest_prototype_accuracy(samples: list[Sample], protos: Prototypes,
                               modality: str) -> float:
    """Independent check that one modality alone separates the classes."""
    correct = 0
    for s in samples:
        label = s.label if isinstance(s.label, int) else s.label[0]
        if modality == "text":
            counts = [np.isin(s.text_tokens, bag).sum() for bag in protos.token_bags]
            pred = int(np.argmax(counts))
        else:
            mean = s.patches.mean(axis=0)
            dists = np.linalg.norm(protos.patch_means - mean[None, :], axis=1)
            pred = int(np.argmin(dists))
        correct += pred == label
    return correct / len(samples)


SMALL = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                    tokens_per_class=4)


class TestSynth:
    def test_noiseless_equals_prototype(self):
        cfg = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                          tokens_per_class=4, noise_token_prob=0.0, patch_noise_std=0.0)
        meta, samples = synth_generate(3, 5, cfg, seed=1)
        protos = make_prototypes(3, cfg, np.random.default_rng(1))
        for s in samples:
            assert set(s.text_tokens) <= set(protos.token_bags[s.label].tolist())
            np.testing.assert_allclose(
                s.patches, np.broadcast_to(protos.patch_means[s.label], s.patches.shape))

    def test_noiseless_nearest_prototype_perfect(self):
        cfg = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                          tokens_per_class=4, noise_token_prob=0.0, patch_noise_std=0.0)
        _, samples = synth_generate(4, 10, cfg, seed=2)
        protos = make_prototypes(4, cfg, np.random.default_rng(2))
        assert nearest_prototype_accuracy(samples, protos, "text") == 1.0
        assert nearest_prototype_accuracy(samples, protos, "visual") == 1.0

    def test_default_noise_keeps_modalities_predictive(self):
        cfg = SynthConfig()  # rho=0.2, sigma=0.5
        _, samples = synth_generate(10, 100, cfg, seed=3)
        protos = make_prototypes(10, cfg, np.random.default_rng(3))
        assert nearest_prototype_accuracy(samples, protos, "text") >= 0.8
        assert nearest_prototype_accuracy(samples, protos, "visual") >= 0.8

    def test_vocab_capacity_rejected(self):
        cfg = SynthConfig(vocab_size=16, tokens_per_class=8)
        with pytest.raises(ValueError):
            synth_generate(4, 2, cfg, seed=0)

    @pytest.mark.parametrize("prob", [-0.1, 1.5, 3.0])
    def test_noise_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValueError, match=r"noise_token_prob must lie in \[0, 1\]"):
            SynthConfig(noise_token_prob=prob)

    def test_multi_label_active_sets(self):
        cfg = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                          tokens_per_class=4, multi_label=True)
        _, samples = synth_generate(6, 20, cfg, seed=4)
        for s in samples:
            assert 1 <= len(s.label) <= 3
            assert s.label == sorted(set(s.label))


class TestSplit:
    def test_even_partition(self):
        cfg = SynthConfig(vocab_size=128, max_text_len=8, num_patches=4, patch_dim=6,
                          tokens_per_class=4)
        meta, samples = synth_generate(20, 4, cfg, seed=5)
        sessions = split_sessions(meta, samples, 5, seed=0)
        assert all(len(s.classes) == 4 for s in sessions)
        union = sorted(c for s in sessions for c in s.classes)
        assert union == list(range(20))

    def test_indivisible_class_count_refused(self):
        meta, samples = synth_generate(7, 4, SMALL, seed=6)
        with pytest.raises(ValueError, match="7 classes do not split evenly into 3 sessions: "
                                             "1 would be dropped"):
            split_sessions(meta, samples, 3, seed=0)

    def test_fewer_classes_than_sessions_rejected(self):
        meta, samples = synth_generate(2, 4, SMALL, seed=7)
        with pytest.raises(ValueError):
            split_sessions(meta, samples, 3, seed=0)

    def test_deterministic(self):
        meta, samples = synth_generate(6, 10, SMALL, seed=8)
        a = split_sessions(meta, samples, 3, seed=9)
        b = split_sessions(meta, samples, 3, seed=9)
        assert [s.classes for s in a] == [s.classes for s in b]
        assert [[x.id for x in s.train] for s in a] == [[x.id for x in s.train] for s in b]

    def test_stratified_80_20(self):
        meta, samples = synth_generate(4, 10, SMALL, seed=10)
        sessions = split_sessions(meta, samples, 2, seed=0)
        for s in sessions:
            assert len(s.train) == 16 and len(s.test) == 4


class TestMasking:
    def test_spec_composition_eta70(self):
        n_img, n_txt = missing_counts(200, 70, "both-missing")
        assert (n_img, n_txt) == (70, 70)
        assert 200 - n_img - n_txt == 60

    def test_degenerate_ratios(self):
        assert missing_counts(100, 0, "both-missing") == (0, 0)
        assert missing_counts(50, 100, "text-missing") == (50, 0)

    def test_counts_match_oracle(self):
        rng = np.random.default_rng(11)
        for eta in (10, 30, 50, 70, 90):
            for case in bench.MISSING_CASES:
                for n in rng.integers(1, 1000, size=50):
                    n = int(n)
                    n_img, n_txt = missing_counts(n, eta, case)
                    if case == "text-missing":
                        assert n_img == half_up_oracle(eta, n) and n_txt == 0
                    elif case == "image-missing":
                        assert n_txt == half_up_oracle(eta, n) and n_img == 0
                    else:
                        assert n_img == half_up_oracle(eta / 2, n)
                        assert n_txt == half_up_oracle(eta / 2, n)

    def test_mask_application_and_dummies(self):
        meta, samples = synth_generate(4, 25, SMALL, seed=12)
        masked = apply_missing_mask(samples, 70, "both-missing", seed=13)
        img_only = [s for s in masked if not s.has_text]
        txt_only = [s for s in masked if not s.has_visual]
        assert len(img_only) == 35 and len(txt_only) == 35
        for s in img_only:
            assert s.text_tokens == []
        for s in txt_only:
            np.testing.assert_array_equal(
                s.patches, dummy_patches(SMALL.num_patches, SMALL.patch_dim))
        assert all(s.has_text or s.has_visual for s in masked)

    def test_mask_deterministic(self):
        meta, samples = synth_generate(4, 25, SMALL, seed=14)
        a = apply_missing_mask(samples, 50, "both-missing", 15)
        b = apply_missing_mask(samples, 50, "both-missing", 15)
        assert [(s.has_text, s.has_visual) for s in a] == [(s.has_text, s.has_visual) for s in b]

    def test_invalid_eta_rejected(self):
        with pytest.raises(ValueError):
            missing_counts(10, 101, "both-missing")

    def test_full_missing_ratio_never_exceeds_n(self):
        # both halves round up at eta=100 and odd n; the total must stay n
        _, corpus = synth_generate(2, 25, SMALL, seed=16)
        for n in range(1, 51):
            n_img, n_txt = missing_counts(n, 100, "both-missing")
            assert n_img + n_txt == n and abs(n_img - n_txt) <= 1
            masked = apply_missing_mask(corpus[:n], 100, "both-missing", n)
            assert sum(s.missing_type != "complete" for s in masked) == n

    def test_both_missing_never_both_absent(self):
        meta, samples = synth_generate(4, 50, SMALL, seed=16)
        masked = apply_missing_mask(samples, 90, "both-missing", 17)
        assert all(s.has_text or s.has_visual for s in masked)

    def test_without_dummies_take_the_samples_own_shape(self):
        sample = Sample(id="x", text_tokens=[3, 4], patches=np.zeros((3, 5)), label=0)
        text_only, image_only = sample.without("visual"), sample.without("text")
        assert text_only.missing_type == "text-only" and text_only.text_tokens == [3, 4]
        np.testing.assert_array_equal(text_only.patches, dummy_patches(3, 5))
        assert text_only.patches.dtype == np.float64
        assert image_only.missing_type == "image-only" and image_only.text_tokens == []
        assert image_only.patches is sample.patches
        assert sample.missing_type == "complete"
        with pytest.raises(ValueError, match="sample x: unknown modality 'image'"):
            sample.without("image")

    @pytest.mark.parametrize("drop, keep", [("text", "visual"), ("visual", "text")])
    def test_without_refuses_the_only_modality(self, drop, keep):
        sample = Sample(id="x7", text_tokens=[3], patches=np.zeros((3, 5)), label=0)
        with pytest.raises(ValueError, match="sample x7: both modalities missing"):
            sample.without(keep).without(drop)


def complete_samples(n: int) -> list[Sample]:
    return [Sample(id=f"c{i}", text_tokens=[1 + i % 7], patches=np.full((4, 6), float(i)),
                   label=i % 3) for i in range(n)]


class TestProtocolProperties:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 2000), eta=st.floats(0.0, 100.0),
           case=st.sampled_from(bench.MISSING_CASES))
    @example(n=845, eta=70.0, case="text-missing")  # exact count 591.5 rounds to 592
    def test_missing_counts(self, n, eta, case):
        n_img, n_txt = missing_counts(n, eta, case)
        assert n_img >= 0 and n_txt >= 0 and n_img + n_txt <= n
        if case != "both-missing":
            # round half up: the count is the integer in (x - 1/2, x + 1/2]
            exact = Fraction(eta) * n / 100
            count = n_img if case == "text-missing" else n_txt
            assert exact - Fraction(1, 2) < count <= exact + Fraction(1, 2)
            assert (n_txt if case == "text-missing" else n_img) == 0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 60), eta=st.floats(0.0, 100.0),
           case=st.sampled_from(bench.MISSING_CASES), seed=st.integers(0, 2 ** 32 - 1))
    def test_mask_degrades_exactly_the_counted_samples(self, n, eta, case, seed):
        samples = complete_samples(n)
        masked = apply_missing_mask(samples, eta, case, seed)
        again = apply_missing_mask(samples, eta, case, seed)
        assert [(s.id, s.has_text, s.has_visual) for s in masked] == \
            [(s.id, s.has_text, s.has_visual) for s in again]
        n_img, n_txt = missing_counts(n, eta, case)
        image_only = [s for s in masked if s.missing_type == "image-only"]
        text_only = [s for s in masked if s.missing_type == "text-only"]
        assert (len(image_only), len(text_only)) == (n_img, n_txt)
        assert all(s.text_tokens == [] for s in image_only)
        assert all((s.patches == dummy_patches(4, 6)).all() for s in text_only)
        for before, after in zip(samples, masked):
            assert after.id == before.id and after.label == before.label
            if after.missing_type == "complete":
                assert after is before

    @settings(max_examples=40, deadline=None)
    @given(classes=st.integers(2, 8), per_class=st.integers(1, 6),
           sessions=st.integers(1, 8), multi_label=st.booleans(),
           eta=st.floats(0.0, 100.0), case=st.sampled_from(bench.MISSING_CASES),
           seed=st.integers(0, 2 ** 16))
    def test_stream_sessions_class_disjoint_and_splits_apart(
            self, classes, per_class, sessions, multi_label, eta, case, seed):
        # the largest session count up to the drawn one that divides the classes
        sessions = max(k for k in range(1, min(sessions, classes) + 1) if classes % k == 0)
        cfg = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                          tokens_per_class=4, multi_label=multi_label)
        meta, samples = synth_generate(classes, per_class, cfg, seed=seed)
        stream = build_stream(meta, samples, sessions, eta, case, seed + 1, seed + 2)
        seen_classes: set[int] = set()
        seen_ids: set[str] = set()
        for s in stream.sessions:
            assert not seen_classes & set(s.classes)
            seen_classes |= set(s.classes)
            train_ids = {x.id for x in s.train}
            test_ids = {x.id for x in s.test}
            assert len(train_ids) == len(s.train) and len(test_ids) == len(s.test)
            assert not train_ids & test_ids
            assert not (train_ids | test_ids) & seen_ids
            seen_ids |= train_ids | test_ids
            for x in s.train + s.test:
                first = x.label if isinstance(x.label, int) else x.label[0]
                assert first in s.classes
        assert seen_classes == set(range(classes))


class TestStream:
    def test_stream_reproducible(self):
        meta, samples = synth_generate(6, 20, SMALL, seed=18)
        a = build_stream(meta, samples, 3, 70, "both-missing", split_seed=1, mask_seed=2)
        b = build_stream(meta, samples, 3, 70, "both-missing", split_seed=1, mask_seed=2)
        for sa, sb in zip(a.sessions, b.sessions):
            assert [(x.id, x.has_text, x.has_visual) for x in sa.train] == \
                   [(x.id, x.has_text, x.has_visual) for x in sb.train]
            assert [(x.id, x.has_text, x.has_visual) for x in sa.test] == \
                   [(x.id, x.has_text, x.has_visual) for x in sb.test]

    def test_train_and_test_masks_uncorrelated_streams(self):
        meta, samples = synth_generate(4, 50, SMALL, seed=19)
        stream = build_stream(meta, samples, 2, 50, "both-missing", 3, 4)
        # both splits masked at the declared rate
        for s in stream.sessions:
            n_train = len(s.train)
            incomplete = sum(1 for x in s.train if x.missing_type != "complete")
            assert incomplete == 2 * missing_counts(n_train, 50, "both-missing")[0]

    def test_access_log(self):
        meta, samples = synth_generate(4, 10, SMALL, seed=20)
        stream = build_stream(meta, samples, 2, 0, "both-missing", 0, 0)
        stream.train_data(1)
        stream.test_data(0)
        assert stream.access_log == [("train", 1), ("test", 0)]


class TestSample:
    def test_both_missing_record_rejected(self):
        with pytest.raises(ValueError):
            Sample(id="x", text_tokens=[], patches=np.ones((2, 2)), label=0,
                   has_text=False, has_visual=False)
