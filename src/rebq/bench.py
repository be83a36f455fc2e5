"""Benchmark construction: synthetic corpora, session splits, missing masks.

synth_generate is the only source of a corpus: a list of complete
:class:`Sample` records plus the :class:`CorpusMeta` a run reads of it
(class count and the SynthConfig that drew it). Sessions partition the
classes into disjoint subsets; the missing mask then degrades a
configurable share of each session's samples to a single modality.
Sample.without is the one place that makes such a copy: it replaces the
absent modality with its canonical dummy (empty token sequence for text,
all-ones patches of the sample's own shape for images).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import rules
from .rules import rule

MISSING_CASES = ("text-missing", "image-missing", "both-missing")
# the values of Sample.missing_type, in the order pipeline.forward_batch groups rows
MISSING_TYPES = ("text-only", "image-only", "complete")


@dataclass(frozen=True)
class Sample:
    id: str
    text_tokens: list[int]
    patches: np.ndarray  # (Q, patch_dim)
    label: object        # int (single-label) or list[int] of active classes
    has_text: bool = True
    has_visual: bool = True

    def __post_init__(self):
        if not self.has_text and not self.has_visual:
            raise ValueError(f"sample {self.id}: both modalities missing")

    @property
    def missing_type(self) -> str:
        if self.has_text and self.has_visual:
            return "complete"
        return "text-only" if self.has_text else "image-only"

    def without(self, modality: str) -> Sample:
        """A copy whose "text" or "visual" modality is absent and replaced by
        its canonical dummy; a sample's only modality cannot be dropped."""
        if modality == "text":
            return replace(self, has_text=False, text_tokens=list(DUMMY_TEXT))
        if modality == "visual":
            return replace(self, has_visual=False, patches=dummy_patches(*self.patches.shape))
        raise ValueError(f"sample {self.id}: unknown modality {modality!r}")


@dataclass(frozen=True)
class SynthConfig:
    vocab_size: int = rule(512, low=2)          # id 0 is padding
    max_text_len: int = rule(16, low=1)
    num_patches: int = rule(16, low=1)
    patch_dim: int = rule(16, low=1)
    tokens_per_class: int = rule(8, low=1)
    noise_token_prob: float = rule(0.2, low=0, high=1)   # rho
    patch_noise_std: float = rule(0.5, low=0)            # sigma
    prototype_scale: float = rule(1.0, low=0)
    multi_label: bool = rule(False)
    __post_init__ = rules.check


@dataclass
class CorpusMeta:
    """What a run reads of how synth_generate made a corpus: its class count
    and the SynthConfig that drew it (input sizes and label mode)."""
    num_classes: int
    synth: SynthConfig


def dummy_patches(num_patches: int, patch_dim: int) -> np.ndarray:
    """Canonical visual dummy: every pixel value equals one."""
    return np.ones((num_patches, patch_dim), dtype=np.float64)


DUMMY_TEXT: list[int] = []  # canonical text dummy: the empty sequence


# -- synthetic generation ----------------------------------------------------------


@dataclass
class Prototypes:
    token_bags: list[np.ndarray]   # per class, distinct token ids
    patch_means: np.ndarray        # (num_classes, patch_dim)


def make_prototypes(num_classes: int, cfg: SynthConfig, rng: np.random.Generator) -> Prototypes:
    usable = cfg.vocab_size - 1  # id 0 is padding
    if num_classes * cfg.tokens_per_class > usable:
        raise ValueError(
            f"class count {num_classes} x {cfg.tokens_per_class} tokens exceeds "
            f"vocab capacity {usable}"
        )
    pool = rng.permutation(np.arange(1, cfg.vocab_size))
    bags = [pool[c * cfg.tokens_per_class:(c + 1) * cfg.tokens_per_class].copy()
            for c in range(num_classes)]
    means = rng.normal(0.0, cfg.prototype_scale, size=(num_classes, cfg.patch_dim))
    return Prototypes(token_bags=bags, patch_means=means)


def _sample_text(bags, active, cfg: SynthConfig, rng) -> list[int]:
    merged = np.concatenate([bags[c] for c in active])
    tokens = rng.choice(merged, size=cfg.max_text_len)
    noise = rng.uniform(size=cfg.max_text_len) < cfg.noise_token_prob
    tokens[noise] = rng.integers(1, cfg.vocab_size, size=int(noise.sum()))
    return [int(t) for t in tokens]


def _sample_patches(means, active, cfg: SynthConfig, rng) -> np.ndarray:
    proto = means[active].mean(axis=0)
    noise = rng.normal(0.0, cfg.patch_noise_std, size=(cfg.num_patches, cfg.patch_dim))
    return proto[None, :] + noise


def synth_generate(num_classes: int, samples_per_class: int, cfg: SynthConfig,
                   seed: int, id_prefix: str = "s") -> tuple[CorpusMeta, list[Sample]]:
    """Generate a labeled corpus where each modality alone predicts the class."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    protos = make_prototypes(num_classes, cfg, rng)
    samples: list[Sample] = []
    for i in range(num_classes * samples_per_class):
        if cfg.multi_label:
            k = int(rng.integers(1, 4))
            active = sorted(rng.choice(num_classes, size=min(k, num_classes), replace=False).tolist())
        else:
            active = [i // samples_per_class]
        samples.append(Sample(
            id=f"{id_prefix}{i:06d}",
            text_tokens=_sample_text(protos.token_bags, active, cfg, rng),
            patches=_sample_patches(protos.patch_means, active, cfg, rng),
            label=active if cfg.multi_label else active[0],
        ))
    return CorpusMeta(num_classes=num_classes, synth=cfg), samples


# -- session splitting --------------------------------------------------------------


@dataclass
class SessionData:
    classes: list[int]
    train: list[Sample]
    test: list[Sample]


TRAIN_FRAC = 0.8  # the share of each class's samples that trains


def split_sessions(meta: CorpusMeta, samples: list[Sample], num_sessions: int,
                   seed: int) -> list[SessionData]:
    """Shuffle classes, partition contiguously, and split each class's
    samples TRAIN_FRAC (0.8) to train, the rest to test.

    The class count must be a multiple of the session count, so that every
    class is trained and tested in exactly one session.
    """
    per, dropped = divmod(meta.num_classes, num_sessions)
    if dropped:
        raise ValueError(f"{meta.num_classes} classes do not split evenly into {num_sessions} "
                         f"sessions: {dropped} would be dropped")
    rng = np.random.default_rng(seed)
    order = rng.permutation(meta.num_classes)
    class_sets = [sorted(int(c) for c in order[s * per:(s + 1) * per])
                  for s in range(num_sessions)]

    # multi-label samples belong to the session of their first active class
    by_class: dict[int, list[Sample]] = {}
    for sample in samples:
        c = sample.label if isinstance(sample.label, int) else sample.label[0]
        by_class.setdefault(c, []).append(sample)

    sessions = []
    for classes in class_sets:
        train: list[Sample] = []
        test: list[Sample] = []
        for c in classes:
            group = by_class.get(c, [])
            perm = rng.permutation(len(group))
            cut = int(round(TRAIN_FRAC * len(group)))
            train.extend(group[i] for i in perm[:cut])
            test.extend(group[i] for i in perm[cut:])
        sessions.append(SessionData(classes, train, test))
    return sessions


# -- missing-modality masking ----------------------------------------------------------


def _round_half_up(x: Fraction) -> int:
    return int(math.floor(x + Fraction(1, 2)))


def missing_counts(n: int, eta: float, case: str) -> tuple[int, int]:
    """(num_image_only, num_text_only) for n samples at missing ratio eta%."""
    if case not in MISSING_CASES:
        raise ValueError(f"unknown missing case {case!r}")
    if not 0.0 <= eta <= 100.0:
        raise ValueError(f"missing ratio must lie in [0, 100], got {eta}")
    frac = Fraction(eta) * n / 100
    if case == "text-missing":
        return _round_half_up(frac), 0
    if case == "image-missing":
        return 0, _round_half_up(frac)
    half = _round_half_up(frac / 2)
    # at eta=100 and odd n both halves round up; the total cannot exceed n
    return half, min(half, n - half)


def apply_missing_mask(samples: list[Sample], eta: float, case: str, seed: int) -> list[Sample]:
    """Degrade a seeded uniform subset of the (complete) samples to a single
    modality, so that exactly the share missing_counts gives goes missing."""
    n_img_only, n_txt_only = missing_counts(len(samples), eta, case)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(samples), size=n_img_only + n_txt_only, replace=False)
    masked = list(samples)
    for j, idx in enumerate(chosen):
        masked[idx] = masked[idx].without("text" if j < n_img_only else "visual")
    return masked


# -- session stream ----------------------------------------------------------------------


@dataclass
class CmmlStream:
    """Ordered class-disjoint sessions with missing masks applied.

    Data is reached through the accessor methods so the experiment runner's
    protocol isolation (no revisiting of earlier sessions' training data)
    can be audited from the access log.
    """

    sessions: list[SessionData]
    access_log: list[tuple[str, int]] = field(default_factory=list)

    def train_data(self, session: int) -> list[Sample]:
        self.access_log.append(("train", session))
        return self.sessions[session].train

    def test_data(self, session: int) -> list[Sample]:
        self.access_log.append(("test", session))
        return self.sessions[session].test


def build_stream(meta: CorpusMeta, samples: list[Sample], num_sessions: int,
                 eta: float, case: str, split_seed: int, mask_seed: int) -> CmmlStream:
    """Split into sessions and mask each session's train and test sets.

    Train and test masks draw from distinct seed streams so the two splits
    are never correlated.
    """
    sessions = split_sessions(meta, samples, num_sessions, split_seed)
    for j, s in enumerate(sessions):
        train_seed = int(np.random.SeedSequence([mask_seed, j, 0]).generate_state(1)[0])
        test_seed = int(np.random.SeedSequence([mask_seed, j, 1]).generate_state(1)[0])
        s.train = apply_missing_mask(s.train, eta, case, train_seed)
        s.test = apply_missing_mask(s.test, eta, case, test_seed)
    return CmmlStream(sessions)
