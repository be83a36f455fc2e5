import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rebq.backbone import META, BackboneConfig, PretrainConfig, pretrain
from rebq.bench import SynthConfig, build_stream, synth_generate

TINY = BackboneConfig(embed_dim=32, num_layers=2, num_heads=2, text_vocab_size=64,
                      max_text_len=8, num_patches=4, patch_dim=6, pretrain_classes=4)

TINY_SYNTH = SynthConfig(vocab_size=64, max_text_len=8, num_patches=4, patch_dim=6,
                         tokens_per_class=5, noise_token_prob=0.1, patch_noise_std=0.3)


def float64(model):
    """A copy of a backbone, prompt pool or RebQ model that computes in float64.

    The library computes in float32, and a graph keeps the dtype of the
    arrays it is built from, so tests whose tolerances assume exact
    arithmetic (finite differences, algebraic identities) run on this copy.
    """
    model = copy.deepcopy(model)
    tensors = list(getattr(model, "params", {}).values())
    if hasattr(model, "backbone"):
        tensors += model.backbone.params.values()
        tensors += model.named_parameters().values()
    elif hasattr(model, "named_parameters"):  # a prompt pool, whose names take a prefix
        tensors += model.named_parameters("").values()
    for t in tensors:
        t.data = t.data.astype(np.float64)
    return model


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The metadata and the tensors of a backbone checkpoint archive."""
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as archive:
        arrays = dict(archive)
    return json.loads(arrays.pop(META)[()]), arrays


def write_checkpoint(path, meta: dict, arrays: dict[str, np.ndarray]):
    """Write meta and arrays as save_checkpoint lays out a checkpoint,
    without checking either."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, **{META: np.array(json.dumps(meta))})


def make_tiny_backbone():
    """The frozen TINY backbone the tests share, pretrained from fixed seeds."""
    corpus = synth_generate(TINY.pretrain_classes, 40, TINY_SYNTH, seed=111)
    model, report = pretrain(TINY, corpus, seed=112,
                             pcfg=PretrainConfig(steps=400, batch_size=16, eval_every=50))
    assert report.usable, f"fixture backbone unusable (accuracy {report.accuracy})"
    return model


@pytest.fixture(scope="session")
def tiny_backbone():
    return make_tiny_backbone()


@pytest.fixture(scope="session")
def tiny_benchmark():
    """4 classes, 2 sessions, eta=50 both-missing."""
    meta, samples = synth_generate(4, 30, TINY_SYNTH, seed=211)
    stream = build_stream(meta, samples, 2, 50.0, "both-missing",
                          split_seed=212, mask_seed=213)
    return meta, stream


@pytest.fixture()
def complete_samples():
    _, samples = synth_generate(4, 6, TINY_SYNTH, seed=311)
    return samples
