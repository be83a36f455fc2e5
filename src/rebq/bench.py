"""Benchmark construction: synthetic corpora, session splits, missing masks.

A corpus is a list of :class:`Sample` records plus a :class:`CorpusMeta`
header. Sessions partition the classes into disjoint subsets; the missing
mask then degrades a configurable share of each session's samples to a
single modality, replacing the absent one with its canonical dummy (empty
token sequence for text, all-ones patches for images).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

MISSING_CASES = ("text-missing", "image-missing", "both-missing")


@dataclass
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


@dataclass
class CorpusMeta:
    num_classes: int
    patch_dim: int
    max_text_len: int
    multi_label: bool = False
    vocab_size: int = 512
    num_patches: int = 16


@dataclass
class SynthConfig:
    vocab_size: int = 512
    max_text_len: int = 16
    num_patches: int = 16
    patch_dim: int = 16
    tokens_per_class: int = 8
    noise_token_prob: float = 0.2   # rho
    patch_noise_std: float = 0.5    # sigma
    prototype_scale: float = 1.0
    multi_label: bool = False


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
    total = num_classes * samples_per_class
    if cfg.multi_label:
        for i in range(total):
            k = int(rng.integers(1, 4))
            active = sorted(rng.choice(num_classes, size=min(k, num_classes), replace=False).tolist())
            samples.append(Sample(
                id=f"{id_prefix}{i:06d}",
                text_tokens=_sample_text(protos.token_bags, active, cfg, rng),
                patches=_sample_patches(protos.patch_means, active, cfg, rng),
                label=[int(a) for a in active],
            ))
    else:
        for c in range(num_classes):
            for j in range(samples_per_class):
                i = c * samples_per_class + j
                samples.append(Sample(
                    id=f"{id_prefix}{i:06d}",
                    text_tokens=_sample_text(protos.token_bags, [c], cfg, rng),
                    patches=_sample_patches(protos.patch_means, [c], cfg, rng),
                    label=c,
                ))
    meta = CorpusMeta(num_classes=num_classes, patch_dim=cfg.patch_dim,
                      max_text_len=cfg.max_text_len, multi_label=cfg.multi_label,
                      vocab_size=cfg.vocab_size, num_patches=cfg.num_patches)
    return meta, samples


# -- session splitting --------------------------------------------------------------


@dataclass
class SessionSpec:
    index: int
    classes: list[int]
    missing_ratio: float = 0.0
    missing_case: str = "both-missing"


@dataclass
class SessionData:
    spec: SessionSpec
    train: list[Sample]
    test: list[Sample]


def _labels_of(sample: Sample) -> list[int]:
    return [sample.label] if isinstance(sample.label, int) else list(sample.label)


def split_sessions(meta: CorpusMeta, samples: list[Sample], num_sessions: int,
                   seed: int, train_frac: float = 0.8):
    """Shuffle classes, partition contiguously, and 80/20-split each class."""
    if meta.num_classes < num_sessions:
        raise ValueError(f"{meta.num_classes} classes cannot fill {num_sessions} sessions")
    rng = np.random.default_rng(seed)
    order = rng.permutation(meta.num_classes)
    per = meta.num_classes // num_sessions
    dropped = meta.num_classes - per * num_sessions
    if dropped:
        order = order[:per * num_sessions]
    class_sets = [sorted(int(c) for c in order[s * per:(s + 1) * per])
                  for s in range(num_sessions)]

    # multi-label samples belong to the session of their first active class
    session_of = {}
    for s, classes in enumerate(class_sets):
        for c in classes:
            session_of[c] = s

    by_class: dict[int, list[Sample]] = {}
    for sample in samples:
        c = _labels_of(sample)[0]
        by_class.setdefault(c, []).append(sample)

    sessions = []
    for s, classes in enumerate(class_sets):
        train: list[Sample] = []
        test: list[Sample] = []
        for c in classes:
            group = by_class.get(c, [])
            perm = rng.permutation(len(group))
            cut = int(round(train_frac * len(group)))
            train.extend(group[i] for i in perm[:cut])
            test.extend(group[i] for i in perm[cut:])
        sessions.append(SessionData(
            spec=SessionSpec(index=s, classes=classes), train=train, test=test))
    return sessions, dropped


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


def apply_missing_mask(samples: list[Sample], eta: float, case: str, seed: int,
                       num_patches: int, patch_dim: int) -> list[Sample]:
    """Degrade a seeded uniform subset of samples to a single modality."""
    n_img_only, n_txt_only = missing_counts(len(samples), eta, case)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(samples), size=n_img_only + n_txt_only, replace=False)
    masked = list(samples)
    for j, idx in enumerate(chosen):
        s = masked[idx]
        if j < n_img_only:
            out = replace(s, has_text=False, text_tokens=list(DUMMY_TEXT))
        else:
            out = replace(s, has_visual=False,
                          patches=dummy_patches(num_patches, patch_dim))
        masked[idx] = out
    return masked


# -- session stream ----------------------------------------------------------------------


@dataclass
class CmmlStream:
    """Ordered class-disjoint sessions with missing masks applied.

    Data is reached through the accessor methods so the experiment runner's
    protocol isolation (no revisiting of earlier sessions' training data)
    can be audited from the access log.
    """

    meta: CorpusMeta
    sessions: list[SessionData]
    access_log: list[tuple[str, int]] = field(default_factory=list)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def train_data(self, session: int) -> list[Sample]:
        self.access_log.append(("train", session))
        return self.sessions[session].train

    def test_data(self, session: int) -> list[Sample]:
        self.access_log.append(("test", session))
        return self.sessions[session].test

    def spec(self, session: int) -> SessionSpec:
        return self.sessions[session].spec


def build_stream(meta: CorpusMeta, samples: list[Sample], num_sessions: int,
                 eta: float, case: str, split_seed: int, mask_seed: int) -> CmmlStream:
    """Split into sessions and mask each session's train and test sets.

    Train and test masks draw from distinct seed streams so the two splits
    are never correlated.
    """
    sessions, _ = split_sessions(meta, samples, num_sessions, split_seed)
    npatch = meta.num_patches
    masked_sessions = []
    for s in sessions:
        train_seed = int(np.random.SeedSequence([mask_seed, s.spec.index, 0]).generate_state(1)[0])
        test_seed = int(np.random.SeedSequence([mask_seed, s.spec.index, 1]).generate_state(1)[0])
        spec = replace(s.spec, missing_ratio=eta, missing_case=case)
        masked_sessions.append(SessionData(
            spec=spec,
            train=apply_missing_mask(s.train, eta, case, train_seed, npatch, meta.patch_dim),
            test=apply_missing_mask(s.test, eta, case, test_seed, npatch, meta.patch_dim),
        ))
    return CmmlStream(meta=meta, sessions=masked_sessions)


# -- corpus file format --------------------------------------------------------------------


class CorpusFormatError(ValueError):
    pass


def save_corpus(path, meta: CorpusMeta, samples: list[Sample]):
    """Line-delimited JSON: one header object, then one record per sample."""
    with open(path, "w") as fh:
        header = {
            "num_classes": meta.num_classes,
            "patch_dim": meta.patch_dim,
            "max_text_len": meta.max_text_len,
            "multi_label": meta.multi_label,
            "vocab_size": meta.vocab_size,
            "num_patches": meta.num_patches,
        }
        fh.write(json.dumps(header) + "\n")
        for s in samples:
            rec = {
                "id": s.id,
                "text_tokens": list(s.text_tokens),
                "patches": s.patches.tolist(),
                "has_text": s.has_text,
                "has_visual": s.has_visual,
            }
            if meta.multi_label:
                rec["labels"] = list(s.label)
            else:
                rec["label"] = int(s.label)
            fh.write(json.dumps(rec) + "\n")


def load_corpus(path) -> tuple[CorpusMeta, list[Sample]]:
    """Read and validate a corpus file; malformed lines name their line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus file")
    try:
        header = json.loads(lines[0])
        meta = CorpusMeta(
            num_classes=int(header["num_classes"]),
            patch_dim=int(header["patch_dim"]),
            max_text_len=int(header["max_text_len"]),
            multi_label=bool(header.get("multi_label", False)),
            vocab_size=int(header.get("vocab_size", 512)),
            num_patches=int(header.get("num_patches", 16)),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorpusFormatError(f"{path}:1: bad header: {exc}") from None

    samples: list[Sample] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        samples.append(_parse_record(rec, meta, path, lineno))
    if not samples:
        raise CorpusFormatError(f"{path}: corpus has a header but no samples")
    return meta, samples


def _parse_record(rec: dict, meta: CorpusMeta, path, lineno: int) -> Sample:
    def fail(msg):
        raise CorpusFormatError(f"{path}:{lineno}: {msg}")

    has_text = bool(rec.get("has_text", True))
    has_visual = bool(rec.get("has_visual", True))
    if not has_text and not has_visual:
        fail("both modalities marked missing")

    if meta.multi_label:
        labels = rec.get("labels")
        if not isinstance(labels, list) or not labels:
            fail("multi-label corpus record needs a non-empty 'labels' list")
        if any(not 0 <= int(c) < meta.num_classes for c in labels):
            fail(f"label out of declared range [0, {meta.num_classes})")
        label = sorted(int(c) for c in labels)
    else:
        if "label" not in rec:
            fail("record missing 'label'")
        label = int(rec["label"])
        if not 0 <= label < meta.num_classes:
            fail(f"label {label} out of declared range [0, {meta.num_classes})")

    if has_text:
        tokens = rec.get("text_tokens")
        if not isinstance(tokens, list):
            fail("record with has_text=true missing 'text_tokens'")
        if len(tokens) > meta.max_text_len:
            fail(f"text length {len(tokens)} exceeds max_text_len {meta.max_text_len}")
        tokens = [int(t) for t in tokens]
        if any(not 0 <= t < meta.vocab_size for t in tokens):
            fail("token id out of vocabulary range")
    else:
        tokens = list(DUMMY_TEXT)

    if has_visual:
        patches = rec.get("patches")
        if not isinstance(patches, list) or not patches:
            fail("record with has_visual=true missing 'patches'")
        arr = np.asarray(patches, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != meta.patch_dim:
            fail(f"patches must be (Q, {meta.patch_dim}), got {arr.shape}")
    else:
        arr = dummy_patches(meta.num_patches, meta.patch_dim)

    return Sample(id=str(rec.get("id", f"line{lineno}")), text_tokens=tokens,
                  patches=arr, label=label, has_text=has_text, has_visual=has_visual)
