"""Frozen multimodal transformer encoder prompted through attention prefixes.

embed_batch embeds samples once into one (B, S, D) unified sequence
[x_cls, x_cls_t, X_text, x_cls_v, X_visual]. Every pass reads it, a row
view or a row subset of it (recon_positions: [x_cls, X_text, X_visual]),
so no backbone operation writes into its input. Prompts arrive as one
(B, layers, 2, N_p, D) prefix tensor whose block for layer l extends that
layer's keys and values, so the first `layers` layers are prompted and the
output keeps the input length. Every caller reads only a few cls rows, so
forward takes the positions it returns and computes the last layer's query
side (attention rows, feed-forward, final norm) for those rows alone; keys
and values still span the whole sequence. Each attention block is recorded
as qkv affine, one fused tensor.attention node (which takes the layer's
key/value prefix block and the query rows) and output affine, so training
backpropagates through it in closed form. A pass that records nothing on
the tape runs row-parallel: every output row depends on its own input row
alone, so forward splits the batch into contiguous parts over the process's
cores (tensor.split_rows) and the result is bit-identical to one serial
pass. Each layer's feed-forward block is a ReLU MLP of width FFN_MULT * D.
A desk-scale pretraining routine trains the encoder on synthetic
modality-complete data until the joint cls token classifies held-out
samples, then freezes every parameter. A checkpoint is one NumPy .npz
archive holding each parameter under its name and a meta.json entry with
the config and the frozen flag; loading reads it without unpickling and
checks every tensor against the stored config.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rules
from . import tensor as T
from .bench import CorpusMeta, Sample
from .rules import rule
from .tensor import AdamW, Tensor

FFN_MULT = 2  # feed-forward width per embedding dimension
META = "meta.json"  # the checkpoint archive entry that holds the metadata JSON


@dataclass
class BackboneConfig:
    embed_dim: int = rule(64, low=1)          # D
    num_layers: int = rule(4, low=1)          # L
    num_heads: int = rule(4, low=1)           # H
    text_vocab_size: int = rule(512, low=1)
    max_text_len: int = rule(16, low=1)       # P
    num_patches: int = rule(16, low=1)        # Q
    patch_dim: int = rule(16, low=1)
    pretrain_classes: int = rule(10, low=2)

    def __post_init__(self):
        rules.check(self)
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")


# Position map for the unified query/classification layout
# [x_cls, x_cls_t, X_text, x_cls_v, X_visual].
def unified_positions(cfg: BackboneConfig) -> dict[str, int]:
    return {"joint": 0, "text_cls": 1, "visual_cls": 2 + cfg.max_text_len}


def recon_positions(cfg: BackboneConfig) -> list[int]:
    """The unified rows that form the reconstruction layout [x_cls, X_text,
    X_visual]: every row but the two modality cls tokens."""
    pos = unified_positions(cfg)
    return [p for p in range(3 + cfg.max_text_len + cfg.num_patches)
            if p not in (pos["text_cls"], pos["visual_cls"])]


class MultimodalBackbone:
    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        self.frozen = False
        c = config
        d = c.embed_dim
        f = FFN_MULT * d
        p: dict[str, Tensor] = {}
        p["token_emb"] = T.normal_init(rng, (c.text_vocab_size, d))
        p["patch_w"] = T.normal_init(rng, (c.patch_dim, d))
        p["patch_b"] = T.zeros(d, trainable=True)
        p["text_pos"] = T.normal_init(rng, (c.max_text_len, d))
        p["vis_pos"] = T.normal_init(rng, (c.num_patches, d))
        p["text_type"] = T.normal_init(rng, (d,))
        p["vis_type"] = T.normal_init(rng, (d,))
        p["cls"] = T.normal_init(rng, (d,))
        p["cls_t"] = T.normal_init(rng, (d,))
        p["cls_v"] = T.normal_init(rng, (d,))
        for l in range(c.num_layers):
            p[f"l{l}.ln1_g"] = T.ones(d, trainable=True)
            p[f"l{l}.ln1_b"] = T.zeros(d, trainable=True)
            p[f"l{l}.qkv_w"] = T.normal_init(rng, (d, 3 * d))
            p[f"l{l}.qkv_b"] = T.zeros(3 * d, trainable=True)
            p[f"l{l}.out_w"] = T.normal_init(rng, (d, d))
            p[f"l{l}.out_b"] = T.zeros(d, trainable=True)
            p[f"l{l}.ln2_g"] = T.ones(d, trainable=True)
            p[f"l{l}.ln2_b"] = T.zeros(d, trainable=True)
            p[f"l{l}.ff1_w"] = T.normal_init(rng, (d, f))
            p[f"l{l}.ff1_b"] = T.zeros(f, trainable=True)
            p[f"l{l}.ff2_w"] = T.normal_init(rng, (f, d))
            p[f"l{l}.ff2_b"] = T.zeros(d, trainable=True)
        p["lnf_g"] = T.ones(d, trainable=True)
        p["lnf_b"] = T.zeros(d, trainable=True)
        self.params = p

    # -- parameter management --------------------------------------------------

    def freeze(self):
        for t in self.params.values():
            t.trainable = False
            t.grad = None
        self.frozen = True

    def parameter_bytes(self) -> bytes:
        return b"".join(self.params[k].data.tobytes() for k in sorted(self.params))

    # -- embedding ----------------------------------------------------------------

    def embed_batch(self, samples: list[Sample]) -> Tensor:
        """The (B, S, D) unified sequence [x_cls, x_cls_t, X_text, x_cls_v,
        X_visual]: token/patch embeddings plus positional and modality-type
        terms, between the cls rows."""
        c = self.config
        ids = np.zeros((len(samples), c.max_text_len), dtype=np.int64)
        for i, s in enumerate(samples):
            toks = s.text_tokens
            if len(toks) > c.max_text_len:
                raise ValueError(f"sample {s.id}: text longer than {c.max_text_len}")
            if toks:
                arr = np.asarray(toks, dtype=np.int64)
                if arr.min() < 0 or arr.max() >= c.text_vocab_size:
                    raise ValueError(f"sample {s.id}: token id out of range")
                ids[i, :len(toks)] = arr
        text = T.embedding(self.params["token_emb"], ids)
        text = T.add(T.add(text, self.params["text_pos"]), self.params["text_type"])

        patch_w = self.params["patch_w"]
        patches = np.stack([np.asarray(s.patches, dtype=patch_w.data.dtype) for s in samples])
        if patches.shape[1:] != (c.num_patches, c.patch_dim):
            raise ValueError(
                f"patches must be ({c.num_patches}, {c.patch_dim}), got {patches.shape[1:]}")
        vis = T.affine(Tensor(patches), patch_w, self.params["patch_b"])
        vis = T.add(T.add(vis, self.params["vis_pos"]), self.params["vis_type"])
        b, d, p = len(samples), c.embed_dim, self.params

        def cls_row(vec: Tensor) -> Tensor:
            return T.broadcast_to(T.reshape(vec, (1, 1, d)), (b, 1, d))

        return T.concat([cls_row(p["cls"]), cls_row(T.add(p["cls_t"], p["text_type"])), text,
                         cls_row(T.add(p["cls_v"], p["vis_type"])), vis], axis=1)

    # -- transformer ------------------------------------------------------------------

    def _attention(self, x: Tensor, l: int, prefix: Tensor | None, rows=None) -> Tensor:
        """Self-attention output for every position, or for rows only.

        One fused T.attention record sits between the qkv and output affines.
        Keys and values always cover every position (after the (B, 2, N_p, D)
        prefix block, when given); rows restricts the queries, so the output
        has one row per listed position.
        """
        qkv = T.affine(x, self.params[f"l{l}.qkv_w"], self.params[f"l{l}.qkv_b"])
        out = T.attention(qkv, self.config.num_heads, prefix, rows)
        return T.affine(out, self.params[f"l{l}.out_w"], self.params[f"l{l}.out_b"])

    def _ffn(self, x: Tensor, l: int) -> Tensor:
        h = T.relu(T.affine(x, self.params[f"l{l}.ff1_w"], self.params[f"l{l}.ff1_b"]))
        return T.affine(h, self.params[f"l{l}.ff2_w"], self.params[f"l{l}.ff2_b"])

    def forward(self, x: Tensor, prefix: Tensor | None = None,
                positions: list[int] | None = None) -> Tensor:
        """Pre-norm transformer over one (B, S, D) embedded sequence.

        prefix is the (B, layers, 2, N_p, D) prompt block; its block l
        precedes layer l's keys and values, so it prompts the first
        prefix.shape[1] layers and the output keeps the input length.
        positions lists the output rows the caller reads (0 is always the
        joint cls); the result is then (B, len(positions), D). The last layer
        still attends over every position but computes its queries,
        feed-forward and the final norm for those rows only. None returns the
        whole sequence.

        A pass that records nothing on the tape (grad recording off, or no
        tracked input, prefix or parameter) splits its batch rows over
        tensor.split_rows; tracked passes run serially.
        """
        c = self.config
        if x.ndim != 3 or x.shape[-1] != c.embed_dim:
            raise T.ShapeError(f"input {x.shape} is not (B, S, {c.embed_dim})")
        if prefix is not None and prefix.shape[1] > c.num_layers:
            raise ValueError(
                f"prefix prompts {prefix.shape[1]} layers, backbone has {c.num_layers}")
        if positions is not None:
            positions = [int(p) for p in positions]
            n = x.shape[1]
            if not positions or len(set(positions)) != len(positions) or not all(
                    0 <= p < n for p in positions):
                raise ValueError(
                    f"positions must be distinct rows in [0, {n}), got {positions}")
        if T.recording(x, prefix, *self.params.values()):
            return self._layers(x, prefix, positions)

        def part(lo: int, hi: int) -> Tensor:
            return self._layers(x[lo:hi], None if prefix is None else prefix[lo:hi],
                                positions)

        return T.concat(T.split_rows(part, x.shape[0]), axis=0)

    def _layers(self, x: Tensor, prefix: Tensor | None,
                positions: list[int] | None) -> Tensor:
        """The transformer layers and final norm over a checked (B, S, D) input."""
        c = self.config
        prompted = 0 if prefix is None else prefix.shape[1]
        for l in range(c.num_layers):
            block = prefix[:, l] if l < prompted else None
            rows = positions if l == c.num_layers - 1 else None
            normed = T.layer_norm(x, self.params[f"l{l}.ln1_g"], self.params[f"l{l}.ln1_b"])
            if rows is not None:
                x = x[:, rows]
            x = T.add(x, self._attention(normed, l, block, rows))
            x = T.add(x, self._ffn(
                T.layer_norm(x, self.params[f"l{l}.ln2_g"], self.params[f"l{l}.ln2_b"]), l))
        return T.layer_norm(x, self.params["lnf_g"], self.params["lnf_b"])

    # -- checkpointing -------------------------------------------------------------------

    def save_checkpoint(self, path, extra_meta: dict | None = None):
        """One .npz archive at path as named: each parameter under its name and
        META, a 0-d string of JSON: extra_meta, then the config and frozen flag."""
        meta = {**(extra_meta or {}), "config": asdict(self.config), "frozen": self.frozen}
        arrays = {name: t.data for name, t in self.params.items()}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays, **{META: np.array(json.dumps(meta))})

    @classmethod
    def load_checkpoint(cls, path) -> tuple["MultimodalBackbone", dict]:
        """Load a save_checkpoint archive, unpickling nothing; tensors are cast
        to the model's dtype. Anything else is refused with a ValueError that
        starts with path: not an .npz archive, a failed CRC, no JSON object in
        META, a config breaking its rules, or tensors whose names, shapes or
        float dtype do not fit it."""
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError(f"{path}: not an .npz archive; rebq pretrain writes one")
            fh.seek(0)
            try:
                with np.load(fh, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
                meta = json.loads(arrays.pop(META)[()])
            except KeyError:
                raise ValueError(f"{path}: the archive has no {META}") from None
            except (zipfile.BadZipFile, ValueError, TypeError) as exc:
                raise ValueError(f"{path}: not a backbone checkpoint: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: {META} holds {meta!r}, not a JSON object")
        try:
            config = BackboneConfig(**rules.mapping(meta.get("config"), BackboneConfig,
                                                    "stored config"))
        except ValueError as exc:
            raise ValueError(f"{path}: bad backbone config: {exc}") from None
        model = cls(config, np.random.default_rng(0))
        missing = sorted(set(model.params) - set(arrays))
        unknown = sorted(set(arrays) - set(model.params))
        if missing or unknown:
            raise ValueError(
                f"{path}: tensors do not match the config (missing {missing}, unknown {unknown})")
        for name, t in model.params.items():
            arr = arrays[name]
            if arr.dtype.kind != "f":
                raise ValueError(f"{path}: tensor {name} has dtype {arr.dtype}, not a float")
            if arr.shape != t.shape:
                raise ValueError(f"{path}: tensor {name} has shape {arr.shape}, "
                                 f"the config needs {t.shape}")
            t.data = arr.astype(t.data.dtype)
        if meta.get("frozen"):
            model.freeze()
        return model, meta


# -- pretraining ----------------------------------------------------------------------------


PRETRAIN_LR = 3e-4
HOLDOUT_FRAC = 0.1       # share of the corpus held out, at least one sample
TARGET_ACCURACY = 0.9    # held-out accuracy that stops training early
MIN_ACCURACY = 0.6       # below it the backbone is flagged unusable


@dataclass
class PretrainConfig:
    """Steps, batch size and evaluation cadence. The rest is fixed: PRETRAIN_LR,
    HOLDOUT_FRAC, TARGET_ACCURACY, MIN_ACCURACY and AdamW's default schedule."""
    steps: int = rule(1500, low=1)
    batch_size: int = rule(16, low=1)
    eval_every: int = rule(100, low=1)

    def __post_init__(self):
        rules.check(self)


@dataclass
class PretrainReport:
    accuracy: float
    steps_used: int
    usable: bool
    losses: list[float] = field(default_factory=list)


def pretrain(config: BackboneConfig, corpus: tuple[CorpusMeta, list[Sample]], seed: int,
             pcfg: PretrainConfig | None = None) -> tuple[MultimodalBackbone, PretrainReport]:
    """Train the encoder to classify the joint cls token, then freeze it.

    Stops early once held-out accuracy reaches TARGET_ACCURACY; a run that
    ends below MIN_ACCURACY is flagged unusable. One sample at least is held
    out, so the corpus needs two or more.
    """
    pcfg = pcfg or PretrainConfig()
    meta, samples = corpus
    if meta.num_classes != config.pretrain_classes:
        raise ValueError(
            f"corpus has {meta.num_classes} classes, config expects {config.pretrain_classes}")
    for s in samples:
        if s.missing_type != "complete":
            raise ValueError("pretraining corpus must be modality-complete")
    if len(samples) < 2:
        raise ValueError(f"pretraining needs at least 2 samples, got {len(samples)}: one is "
                         "held out and at least one must be left to train on")

    rng = np.random.default_rng(seed)
    model = MultimodalBackbone(config, rng)
    d, classes = config.embed_dim, config.pretrain_classes
    head_w = T.normal_init(rng, (d, classes))
    head_b = T.zeros(classes, trainable=True)

    order = rng.permutation(len(samples))
    n_hold = max(1, int(round(HOLDOUT_FRAC * len(samples))))
    hold = [samples[i] for i in order[:n_hold]]
    train = [samples[i] for i in order[n_hold:]]

    params = list(model.params.values()) + [head_w, head_b]
    opt = AdamW(params, base_lr=PRETRAIN_LR, total_steps=pcfg.steps)

    def logits_for(batch: list[Sample]) -> Tensor:
        out = model.forward(model.embed_batch(batch), positions=[0])
        return T.affine(out[:, 0], head_w, head_b)

    def holdout_accuracy() -> float:
        correct = 0
        with T.no_grad():
            for start in range(0, len(hold), 64):
                chunk = hold[start:start + 64]
                preds = logits_for(chunk).data.argmax(axis=1)
                correct += sum(int(p) == s.label for p, s in zip(preds, chunk))
        return correct / len(hold)

    losses: list[float] = []
    accuracy = 0.0
    steps_used = 0
    for step in range(pcfg.steps):
        idx = rng.integers(0, len(train), size=pcfg.batch_size)
        batch = [train[i] for i in idx]
        target = Tensor(T.one_hot([s.label for s in batch], classes))
        loss = T.cross_entropy(logits_for(batch), target)
        loss.backward()
        opt.step()
        losses.append(loss.item())
        steps_used = step + 1
        if steps_used % pcfg.eval_every == 0 or steps_used == pcfg.steps:
            accuracy = holdout_accuracy()
            if accuracy >= TARGET_ACCURACY:
                break
    model.freeze()
    report = PretrainReport(accuracy=accuracy, steps_used=steps_used,
                            usable=accuracy >= MIN_ACCURACY, losses=losses)
    return model, report
