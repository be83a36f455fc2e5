"""The full model and per-session training loop.

One forward path serves training and evaluation. forward_batch groups a
mini-batch by missing type, embeds every row once through the frozen
backbone, runs one untracked unified pass for the modality and memory
queries and one tracked memory-injected pass that reconstructs each
missing query, then selects modality-specific prompts and runs the
collaborative classification forward whose joint cls output feeds the
shared linear head. Training (train_task) also asks for the
reconstruction loss: the masked counterparts of the batch's complete
samples then ride along in both passes and L_r is computed over them.
Evaluation (predict_batch) calls the same function without it. Variants
(ablations and the naive per-missing-type baseline) are built by
``build_variant`` from a declarative spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import MultimodalBackbone
from .bench import Sample
from .prompt import PromptVector, init_pool, init_vector
from .reconstruct import (QueryCache, counterparts, generate_queries_batch,
                          reconstruct_batch, reconstruction_loss_from_queries)
from .tensor import AdamW, Tensor

MISSING_TYPES = ("text-only", "image-only", "complete")


@dataclass(frozen=True)
class VariantSpec:
    modality_specific_query: bool = True
    memory: str = "pool"     # pool | vector | none; a memory source reconstructs
    prompts: str = "pool"    # pool: a text and a visual pool | unified: one shared pool
    baseline: bool = False
    name: str = "canonical"

    def validate(self):
        if self.baseline:
            return
        if self.memory not in ("pool", "vector", "none"):
            raise ValueError(f"bad memory kind {self.memory!r}")
        if self.prompts not in ("pool", "unified"):
            raise ValueError(f"bad prompt kind {self.prompts!r}")


VARIANT_PRESETS = {
    "canonical": VariantSpec(),
    "no_reconstruction": VariantSpec(memory="none", name="no_reconstruction"),
    "no_modality_specific_query": VariantSpec(modality_specific_query=False,
                                              name="no_modality_specific_query"),
    "no_memory_pool": VariantSpec(memory="vector", name="no_memory_pool"),
    "no_modality_specific_pool": VariantSpec(prompts="unified",
                                             name="no_modality_specific_pool"),
    "baseline": VariantSpec(baseline=True, memory="none", name="baseline"),
}


def variant_from_name(name: str) -> VariantSpec:
    try:
        return VARIANT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; known: {sorted(VARIANT_PRESETS)}") from None


@dataclass
class ModelConfig:
    num_classes: int
    pool_size: int = 128
    memory_pool_size: int = 128
    prompt_len: int = 8
    prompted_layers: int = 8   # clamped to the backbone depth
    lam: float = 0.01          # reconstruction loss weight
    multi_label: bool = False


class RebQModel:
    def __init__(self, backbone: MultimodalBackbone, spec: VariantSpec,
                 mcfg: ModelConfig, seed: int):
        spec.validate()
        if not backbone.frozen:
            raise ValueError("RebQModel requires a frozen backbone")
        self.backbone = backbone
        self.spec = spec
        self.mcfg = mcfg
        d = backbone.config.embed_dim
        self.prompted_layers = min(mcfg.prompted_layers, backbone.config.num_layers)
        rng = np.random.default_rng(seed)

        self.folder = self.album = self.unified = self.memory = None
        self.baseline_blocks: dict[str, PromptVector] | None = None

        if spec.baseline:
            self.baseline_blocks = {
                kind: init_vector(rng, d, mcfg.prompt_len, self.prompted_layers)
                for kind in MISSING_TYPES
            }
        else:
            # the draw order (prompt pools, memory, head) fixes the seeded values
            if spec.prompts == "unified":
                self.unified = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len,
                                         self.prompted_layers)
            else:
                self.folder = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len,
                                        self.prompted_layers)
                self.album = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len,
                                       self.prompted_layers)
            if spec.memory == "pool":
                self.memory = init_pool(rng, d, mcfg.memory_pool_size, mcfg.prompt_len,
                                        self.prompted_layers)
            elif spec.memory == "vector":
                self.memory = init_vector(rng, d, mcfg.prompt_len, self.prompted_layers)

        self.head_w = T.normal_init(rng, (d, mcfg.num_classes))
        self.head_b = T.zeros(mcfg.num_classes, trainable=True)

    # -- parameters ----------------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, source in (("folder", self.folder), ("album", self.album),
                             ("unified", self.unified), ("memory", self.memory)):
            if source is not None:
                out.update(source.named_parameters(name))
        if self.baseline_blocks:
            for kind, vec in self.baseline_blocks.items():
                out.update(vec.named_parameters(f"baseline.{kind}"))
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def parameter_bytes(self) -> bytes:
        named = self.named_parameters()
        return b"".join(named[k].data.tobytes() for k in sorted(named))

    def text_source(self):
        return self.unified if self.unified is not None else self.folder

    def visual_source(self):
        return self.unified if self.unified is not None else self.album


def build_variant(spec: VariantSpec | str, backbone: MultimodalBackbone,
                  mcfg: ModelConfig, seed: int = 0) -> RebQModel:
    if isinstance(spec, str):
        spec = variant_from_name(spec)
    return RebQModel(backbone, spec, mcfg, seed)


# -- forward -----------------------------------------------------------------------------


@dataclass
class ForwardInfo:
    order: list[int]                       # permutation applied to the batch
    reconstructed_text: list[bool]         # aligned with the original batch order
    reconstructed_visual: list[bool]
    injected: list[tuple[str, ...]]        # prompt sources injected per sample


def _group_indices(samples: list[Sample]):
    idx_t = [i for i, s in enumerate(samples) if s.missing_type == "text-only"]
    idx_v = [i for i, s in enumerate(samples) if s.missing_type == "image-only"]
    idx_c = [i for i, s in enumerate(samples) if s.missing_type == "complete"]
    return idx_t, idx_v, idx_c


def forward_batch(model: RebQModel, samples: list[Sample], with_lr: bool = False,
                  cache: QueryCache | None = None
                  ) -> tuple[Tensor, ForwardInfo, Tensor | None]:
    """Logits for a mini-batch, grouped by missing type, and optionally L_r.

    Returns logits in group order (text-only, image-only, complete), the
    ForwardInfo whose order maps logits rows back to the input batch, and
    the reconstruction loss. With with_lr set (and lam > 0, a memory source
    and at least one complete sample) the masked counterparts of the
    complete samples ride along in both backbone passes and L_r is their
    mean residual; otherwise the third value is None. A cache memoizes the
    unified pass across calls (see reconstruct.QueryCache).
    """
    if not samples:
        raise ValueError("forward_batch: empty batch")
    for s in samples:
        if not s.has_text and not s.has_visual:
            raise ValueError(f"sample {s.id} is missing both modalities")
    backbone = model.backbone
    cfg = backbone.config
    idx_t, idx_v, idx_c = _group_indices(samples)
    order = idx_t + idx_v + idx_c
    ordered = [samples[i] for i in order]
    n_t, n_v, n_c = len(idx_t), len(idx_v), len(idx_c)
    n_inc, b = n_t + n_v, len(samples)

    has_memory = model.memory is not None
    use_recon = has_memory and model.spec.modality_specific_query and n_inc > 0
    use_lr = with_lr and model.mcfg.lam > 0.0 and has_memory and n_c > 0

    # embeddings are frozen-backbone constants: every row embeds once and
    # both passes slice from the same arrays
    rows = list(ordered)
    if use_lr:
        pairs = [counterparts(s, cfg.num_patches, cfg.patch_dim) for s in ordered[n_inc:]]
        rows += [p[0] for p in pairs] + [p[1] for p in pairs]
    with T.no_grad():
        emb = backbone.embed_batch(rows)
    gen = generate_queries_batch(rows, backbone, emb=emb, cache=cache)
    q_text_raw, q_vis_raw = gen.q_text.data[:b], gen.q_visual.data[:b]

    # one tracked memory-injected pass: the batch's incomplete rows, then
    # the counterparts (text-only halves first, then image-only halves)
    recon_idx = (list(range(n_inc)) if use_recon else []) + list(range(b, len(rows)))
    if recon_idx:
        recon = reconstruct_batch([rows[i] for i in recon_idx],
                                  Tensor(gen.memory.data[recon_idx]), model.memory,
                                  backbone, emb=emb.rows(recon_idx))

    rec_text = [use_recon and s.missing_type == "image-only" for s in samples]
    rec_vis = [use_recon and s.missing_type == "text-only" for s in samples]
    if use_recon:
        q_hat_visual, q_hat_text = recon[:n_t], recon[n_t:n_inc]
        q_text_eff = T.concat([Tensor(q_text_raw[:n_t]), q_hat_text,
                               Tensor(q_text_raw[n_inc:])], axis=0)
        q_vis_eff = T.concat([q_hat_visual, Tensor(q_vis_raw[n_t:])], axis=0)
    else:
        q_text_eff = Tensor(q_text_raw)
        q_vis_eff = Tensor(q_vis_raw)

    segments = backbone.unified_segments(emb.rows(slice(0, b)))
    if model.spec.baseline:
        logits = _baseline_logits(model, segments, n_t, n_v, n_c)
        injected = [("baseline",)] * b
    elif model.spec.modality_specific_query:
        p_text = model.text_source().select(q_text_eff)
        p_vis = model.visual_source().select(q_vis_eff)
        out = backbone.forward(segments, T.concat([p_text, p_vis], axis=3), positions=[0])
        logits = T.affine(out[:, 0], model.head_w, model.head_b)
        injected = [("text", "visual")] * b
    else:
        # without modality-specific queries only the available modality's
        # prompts are injected, so each group runs its own forward
        logits, injected = _per_group_logits(model, segments, q_text_eff, q_vis_eff,
                                             n_t, n_v, b, order)
    info = ForwardInfo(order, rec_text, rec_vis, injected)

    l_r = None
    if use_lr:
        # text-only counterparts reconstruct the visual query, image-only the text
        base = len(recon_idx) - 2 * n_c
        l_r = reconstruction_loss_from_queries(
            Tensor(gen.q_text.data[n_inc:b]), recon[base + n_c:],
            Tensor(gen.q_visual.data[n_inc:b]), recon[base:base + n_c])
    return logits, info, l_r


def _baseline_logits(model: RebQModel, segments, n_t: int, n_v: int, n_c: int) -> Tensor:
    blocks = []
    d = model.backbone.config.embed_dim
    for kind, count in (("text-only", n_t), ("image-only", n_v), ("complete", n_c)):
        if count:
            blocks.append(model.baseline_blocks[kind].select(T.zeros((count, d))))
    out = model.backbone.forward(segments, T.concat(blocks, axis=0), positions=[0])
    return T.affine(out[:, 0], model.head_w, model.head_b)


def _per_group_logits(model: RebQModel, segments, q_text_eff, q_vis_eff,
                      n_t: int, n_v: int, b: int, order):
    text_src, vis_src = model.text_source(), model.visual_source()
    logits_parts = []
    injected: list[tuple[str, ...]] = [()] * b
    groups = [("text-only", slice(0, n_t), [("text", text_src, q_text_eff)]),
              ("image-only", slice(n_t, n_t + n_v), [("visual", vis_src, q_vis_eff)]),
              ("complete", slice(n_t + n_v, b),
               [("text", text_src, q_text_eff), ("visual", vis_src, q_vis_eff)])]
    for _, sl, sources in groups:
        count = sl.stop - sl.start
        if not count:
            continue
        seg_group = [seg[sl] for seg in segments]
        blocks = [src.select(q_eff[sl]) for _, src, q_eff in sources]
        tags = [tag for tag, _, _ in sources]
        out = model.backbone.forward(seg_group, T.concat(blocks, axis=3), positions=[0])
        logits_parts.append(T.affine(out[:, 0], model.head_w, model.head_b))
        for i in order[sl]:
            injected[i] = tuple(tags)
    return T.concat(logits_parts, axis=0), injected


def predict_batch(model: RebQModel, samples: list[Sample], batch_size: int = 64,
                  cache: QueryCache | None = None):
    """Task-agnostic predictions over the full class set, in input order."""
    if batch_size < 1:
        raise ValueError(f"predict_batch: batch_size must be >= 1, got {batch_size}")
    preds: list = [None] * len(samples)
    with T.no_grad():
        for start in range(0, len(samples), batch_size):
            chunk = samples[start:start + batch_size]
            logits, info, _ = forward_batch(model, chunk, cache=cache)
            vals = logits.data
            bad = ~np.isfinite(vals).all(axis=1)
            if bad.any():
                ids = [chunk[info.order[row]].id for row in np.nonzero(bad)[0]]
                raise ValueError(f"predict_batch: non-finite logits for samples {ids}")
            for row, orig in enumerate(info.order):
                if model.mcfg.multi_label:
                    preds[start + orig] = sorted(int(c) for c in np.nonzero(vals[row] > 0.0)[0])
                else:
                    preds[start + orig] = int(np.argmax(vals[row]))
    return preds


# -- training ------------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    base_lr: float = 1e-4
    warmup_frac: float = 0.1
    weight_decay: float = 0.01
    batch_size: int = 4


@dataclass
class StepLog:
    step: int
    total: float
    classification: float
    reconstruction: float
    lr: float


@dataclass
class TrainingLog:
    steps: list[StepLog] = field(default_factory=list)

    def mean(self, attr: str) -> float:
        return float(np.mean([getattr(s, attr) for s in self.steps]))


def _targets(model: RebQModel, batch: list[Sample]) -> Tensor:
    c = model.mcfg.num_classes
    if model.mcfg.multi_label:
        rows = np.zeros((len(batch), c), dtype=T.DTYPE)
        for i, s in enumerate(batch):
            for lbl in s.label:
                if not 0 <= lbl < c:
                    raise ValueError(f"label {lbl} out of range [0, {c})")
                rows[i, lbl] = 1.0
        return Tensor(rows)
    return Tensor(T.one_hot([s.label for s in batch], c))


def train_task(model: RebQModel, samples: list[Sample], epochs: int,
               opt_cfg: OptimizerConfig, seed: int,
               cache: QueryCache | None = None) -> TrainingLog:
    """Optimize pools and head on one session's data; the backbone stays frozen.

    Each step runs forward_batch with the reconstruction loss on: L_c is
    the classification loss of the returned logits against the targets in
    info.order, L_r the reconstruction loss over the batch's complete
    samples (zero when the batch has none or it is switched off), and the
    objective is L_c + lam * L_r.
    """
    if not samples:
        raise ValueError("train_task: empty session")
    if opt_cfg.batch_size < 1:
        raise ValueError(f"train_task: batch_size must be >= 1, got {opt_cfg.batch_size}")
    rng = np.random.default_rng(seed)
    params = model.parameters()
    steps_per_epoch = math.ceil(len(samples) / opt_cfg.batch_size)
    total_steps = epochs * steps_per_epoch
    opt = AdamW(params, base_lr=opt_cfg.base_lr, total_steps=total_steps,
                warmup_frac=opt_cfg.warmup_frac, weight_decay=opt_cfg.weight_decay)
    lam = model.mcfg.lam
    loss_fn = T.binary_cross_entropy if model.mcfg.multi_label else T.cross_entropy
    log = TrainingLog()
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(len(samples))
        for start in range(0, len(samples), opt_cfg.batch_size):
            batch = [samples[i] for i in perm[start:start + opt_cfg.batch_size]]
            logits, info, l_r = forward_batch(model, batch, with_lr=True, cache=cache)
            l_c = loss_fn(logits, _targets(model, [batch[i] for i in info.order]))
            if l_r is None:
                l_r = Tensor(np.zeros_like(l_c.data))
            total = T.add(l_c, T.scale(l_r, lam))
            if not np.isfinite(total.data):
                raise ValueError(f"train_task: non-finite loss at step {step} "
                                 f"(L_c {l_c.item()}, L_r {l_r.item()}) on samples "
                                 f"{[s.id for s in batch]}")
            lr_now = opt.current_lr()
            total.backward()
            opt.step()
            log.steps.append(StepLog(step=step, total=total.item(),
                                     classification=l_c.item(),
                                     reconstruction=l_r.item(), lr=lr_now))
            step += 1
    return log
