"""The full model and per-session training loop.

One forward path serves training and evaluation. forward_batch groups a
mini-batch's rows by missing type, embeds every row once into one
sequence, runs one untracked unified pass for the modality and memory
queries and a tracked memory-injected pass that reconstructs each missing
query, and returns the logits in input order. VariantSpec.query
"modality" (RebQ) runs both (the second given a memory source),
"available" the first alone, and "missing_type" (the baseline), whose
prompts follow the missing type alone, neither. The classification step
is the same for every variant: the variant lists (row slice, prompt
prefix) groups, and each group runs one prompted backbone forward over a
row view of the sequence, whose joint cls output feeds the shared linear
head. Under "available" each missing type is its own group, since its
prefix length differs; otherwise the batch is one group. Training
(train_task) also asks for the reconstruction loss L_r, which only
"modality" computes, over the masked counterparts of the batch's complete
samples; _reconstruct says how it runs in chunks. Evaluation calls it
without L_r. The passes run one after another, and each splits its own
rows over the cores, forward and backward (backbone.forward).
The samples carry the label format (_multi_label): int labels train on
cross-entropy and predict the argmax, lists of active classes on binary
cross-entropy and predict the columns with a positive logit.
Variants (ablations and the naive per-missing-type baseline) are built by
``build_variant`` from a preset name in VARIANT_PRESETS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rules
from . import tensor as T
from .backbone import MultimodalBackbone
from .bench import MISSING_TYPES, Sample
from .prompt import PromptVector, init_pool, init_vector
from .reconstruct import QueryCache, generate_queries_batch, reconstruct_batch
from .rules import rule
from .tensor import AdamW, Tensor


@dataclass(frozen=True)
class VariantSpec:
    # modality: modality-specific queries, a missing one reconstructed from memory |
    # available: the available modalities' prompts | missing_type: a block per missing type
    query: str = rule("modality", choices=("modality", "available", "missing_type"))
    memory: str = rule("pool", choices=("pool", "vector", "none"))  # the reconstruction source
    prompts: str = rule("pool", choices=("pool", "unified"))  # text and visual pools, or one

    def __post_init__(self):
        """Refuse a memory source that the query would never read: only
        modality-specific queries take a reconstruction."""
        rules.check(self)
        if self.memory != "none" and self.query != "modality":
            raise ValueError(f"memory {self.memory!r} needs query 'modality', "
                             f"got query {self.query!r}")


VARIANT_PRESETS = {
    "canonical": VariantSpec(),
    "no_reconstruction": VariantSpec(memory="none"),
    "no_modality_specific_query": VariantSpec(query="available", memory="none"),
    "no_memory_pool": VariantSpec(memory="vector"),
    "no_modality_specific_pool": VariantSpec(prompts="unified"),
    "baseline": VariantSpec(query="missing_type", memory="none"),
}


@dataclass(frozen=True)
class ModelConfig:
    """Head and prompt sizes and the L_r weight; the samples carry the label format."""
    num_classes: int = rule(low=2)
    pool_size: int = rule(128, low=1)
    memory_pool_size: int = rule(128, low=1)
    prompt_len: int = rule(8, low=1)
    prompted_layers: int | None = rule(None, low=0)  # at most the backbone depth; None: all
    lam: float = rule(0.01, low=0)  # reconstruction loss weight
    __post_init__ = rules.check  # the rules of the RunConfig fields these copy


class RebQModel:
    def __init__(self, backbone: MultimodalBackbone, spec: VariantSpec,
                 mcfg: ModelConfig, seed: int):
        if not backbone.frozen:
            raise ValueError("RebQModel requires a frozen backbone")
        self.backbone = backbone
        self.spec = spec
        self.mcfg = mcfg
        d, layers = backbone.config.embed_dim, backbone.config.num_layers
        depth = layers if mcfg.prompted_layers is None else mcfg.prompted_layers
        if depth > layers:
            raise ValueError(f"prompted_layers {depth} exceeds the backbone's {layers} layers")
        rng = np.random.default_rng(seed)

        self.folder = self.album = self.unified = self.memory = None
        self.baseline_blocks: dict[str, PromptVector] | None = None

        if spec.query == "missing_type":
            self.baseline_blocks = {kind: init_vector(rng, d, mcfg.prompt_len, depth)
                                    for kind in MISSING_TYPES}
        else:
            # the draw order (prompt pools, memory, head) fixes the seeded values
            if spec.prompts == "unified":
                self.unified = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len, depth)
            else:
                self.folder = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len, depth)
                self.album = init_pool(rng, d, mcfg.pool_size, mcfg.prompt_len, depth)
            if spec.memory == "pool":
                self.memory = init_pool(rng, d, mcfg.memory_pool_size, mcfg.prompt_len, depth)
            elif spec.memory == "vector":
                self.memory = init_vector(rng, d, mcfg.prompt_len, depth)

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

    def text_source(self):
        return self.unified if self.unified is not None else self.folder

    def visual_source(self):
        return self.unified if self.unified is not None else self.album


def build_variant(name: str, backbone: MultimodalBackbone, mcfg: ModelConfig,
                  seed: int = 0) -> RebQModel:
    """The model of the VARIANT_PRESETS entry name."""
    try:
        spec = VARIANT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; known: {sorted(VARIANT_PRESETS)}") from None
    return RebQModel(backbone, spec, mcfg, seed)


# -- forward -----------------------------------------------------------------------------


def forward_batch(model: RebQModel, samples: list[Sample], with_lr: bool = False,
                  cache: QueryCache | None = None) -> tuple[Tensor, Tensor | None]:
    """Logits for a mini-batch, row i for samples[i], and optionally L_r.

    Inside, the rows run grouped by missing type (text-only, image-only,
    complete, the order of bench.MISSING_TYPES); the joined logits are put
    back in input order once, before they are returned. With with_lr set
    (and lam > 0, a memory source and at least one complete sample) the
    second value is L_r over the complete samples' masked counterparts, its
    reconstruction passes already back-propagated (_reconstruct); otherwise
    it is None. A cache memoizes the unified pass across calls (see
    reconstruct.QueryCache).
    """
    if not samples:
        raise ValueError("forward_batch: empty batch")
    backbone = model.backbone
    cfg = backbone.config
    kinds = [MISSING_TYPES.index(s.missing_type) for s in samples]
    order = sorted(range(len(samples)), key=kinds.__getitem__)
    b, n_t, n_c = len(samples), kinds.count(0), kinds.count(2)
    n_inc = b - n_c

    # a memory source exists only for modality-specific queries (VariantSpec)
    reads_memory = model.memory is not None
    use_recon = reads_memory and n_inc > 0
    use_lr = with_lr and model.mcfg.lam > 0.0 and reads_memory and n_c > 0

    # the embedded sequence is a frozen-backbone constant: every row embeds
    # once and every pass reads rows of the same array; the complete rows'
    # counterparts follow the batch, text-only first, then image-only
    rows = [samples[i] for i in order]
    if use_lr:
        complete = rows[n_inc:]
        rows += [s.without("visual") for s in complete] + [s.without("text") for s in complete]
    with T.no_grad():
        emb = backbone.embed_batch(rows)
    spans = (slice(0, n_t), slice(n_t, n_inc), slice(n_inc, b))
    l_r = None
    if model.spec.query == "missing_type":
        # the baseline's prompts follow the missing type alone: it reads no query
        groups = [(slice(0, b), T.concat(
            [model.baseline_blocks[kind].select(T.zeros((sl.stop - sl.start, cfg.embed_dim)))
             for kind, sl in zip(MISSING_TYPES, spans) if sl.stop > sl.start], axis=0))]
    else:
        queries = generate_queries_batch(rows, backbone, emb=emb, cache=cache)
        q_text, q_vis = Tensor(queries[:b, 0]), Tensor(queries[:b, 1])
        if use_recon or use_lr:
            recon, l_r = _reconstruct(model, rows, queries, emb, n_inc if use_recon else 0,
                                      b, use_lr)
        if use_recon:
            # text-only rows reconstruct the visual query, image-only the text
            q_text = T.concat([Tensor(queries[:n_t, 0]), recon[n_t:],
                               Tensor(queries[n_inc:b, 0])], axis=0)
            q_vis = T.concat([recon[:n_t], Tensor(queries[n_t:b, 1])], axis=0)

        # without modality-specific queries only the available modality's
        # prompts are prefixed, so each missing type is its own group
        text_src, vis_src = model.text_source(), model.visual_source()
        if model.spec.query == "modality":
            groups = [(slice(0, b), T.concat([text_src.select(q_text), vis_src.select(q_vis)],
                                             axis=3))]
        else:
            t, v, c = spans
            reads = ((t, [(text_src, q_text)]), (v, [(vis_src, q_vis)]),
                     (c, [(text_src, q_text), (vis_src, q_vis)]))
            groups = [(sl, T.concat([src.select(q[sl]) for src, q in sources], axis=3))
                      for sl, sources in reads if sl.stop > sl.start]
    logits = T.concat([T.affine(backbone.forward(emb[sl], prefix, positions=[0])[:, 0],
                                model.head_w, model.head_b) for sl, prefix in groups], axis=0)
    # the inverse permutation puts row i back as samples[i]'s
    return T.getitem(logits, np.argsort(order)), l_r


def _reconstruct(model: RebQModel, rows: list[Sample], queries: np.ndarray, emb: Tensor,
                 n_rec: int, b: int, use_lr: bool) -> tuple[Tensor | None, Tensor | None]:
    """The reconstructed queries of rows[:n_rec] and, when use_lr, L_r over
    the 2 * n_c counterparts rows[b:] (text-only, then image-only), from one
    memory selection (prompt.compute_weights says why).

    The counterparts (Sample.without of the batch's complete samples) rode
    along in the unified pass; their reconstruction goes first, in chunks of
    at most b rows (at most two, one when 2 * n_c <= b), in row order. Each
    chunk's pass runs on a detached leaf over its prompt rows and
    back-propagates its share of lam * L_r, through the chain L_r itself
    takes, and releases its records before the next chunk and the
    classification pass record: no tracked pass holds more than b rows, and
    each row's gradient keeps its bits, since a frozen-backbone pass is
    row-separable. L_r's value is the same _residual taken untracked over
    the joined reconstructions, scaled by 1 / n_c, and T.attach carries the
    joined chunk gradients on to the memory selection, so the backward of
    L_c + lam * L_r is exact."""
    idx = list(range(n_rec)) + list(range(b, len(rows)))
    prefix = model.memory.select(Tensor(queries[idx, 2]))
    l_r = None
    if use_lr:
        lam, n_c = model.mcfg.lam, (len(rows) - b) // 2
        # text-only counterparts reconstruct the visual query, image-only the text
        truth = np.concatenate([queries[b - n_c:b, 1], queries[b - n_c:b, 0]])
        recons, grads = [], []
        for lo in range(0, 2 * n_c, b):
            hi = lo + b
            leaf = Tensor(prefix.data[n_rec + lo:n_rec + hi], trainable=True)
            recon = reconstruct_batch(rows[b + lo:b + hi], leaf, model.backbone,
                                      emb=emb[b + lo:b + hi])
            T.backward(T.scale(T.scale(_residual(truth[lo:hi], recon), 1.0 / n_c), lam))
            recons.append(recon.data)
            grads.append(leaf.grad)
        l_r = T.scale(_residual(truth, Tensor(np.concatenate(recons))), 1.0 / n_c)
        if grads[0] is not None:
            l_r = T.attach(l_r, prefix[n_rec:], np.concatenate(grads), lam)
    if not n_rec:
        return None, l_r
    return reconstruct_batch(rows[:n_rec], prefix[:n_rec], model.backbone, emb=emb[:n_rec]), l_r


def _residual(truth: np.ndarray, recon: Tensor) -> Tensor:
    """The summed squared distance of recon from the detached truth rows."""
    return T.tsum(T.square(T.sub(Tensor(truth), recon)))


def _multi_label(samples: list[Sample]) -> bool:
    """True when every label lists active classes, False when every label is an int."""
    ids = {kind: [s.id for s in samples if isinstance(s.label, list) is kind]
           for kind in (True, False)}
    if ids[True] and ids[False]:
        raise ValueError(f"samples mix list labels {ids[True]} and int labels {ids[False]}")
    return bool(ids[True])


def predict_batch(model: RebQModel, samples: list[Sample], batch_size: int = 64,
                  cache: QueryCache | None = None):
    """Task-agnostic predictions over the full class set, in input order:
    the argmax class for int labels, the sorted classes with a positive logit
    for list labels. Samples whose labels mix the two are refused."""
    if batch_size < 1:
        raise ValueError(f"predict_batch: batch_size must be >= 1, got {batch_size}")
    multi = _multi_label(samples)
    preds: list = []
    with T.no_grad():
        for start in range(0, len(samples), batch_size):
            chunk = samples[start:start + batch_size]
            vals = forward_batch(model, chunk, cache=cache)[0].data
            bad = ~np.isfinite(vals).all(axis=1)
            if bad.any():
                ids = [chunk[row].id for row in np.flatnonzero(bad)]
                raise ValueError(f"predict_batch: non-finite logits for samples {ids}")
            preds += [np.flatnonzero(row > 0.0).tolist() if multi else int(np.argmax(row))
                      for row in vals]
    return preds


# -- training ------------------------------------------------------------------------------


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


def _targets(model: RebQModel, batch: list[Sample], multi: bool) -> Tensor:
    c = model.mcfg.num_classes
    if multi:  # multi-hot rows
        return Tensor(np.stack([T.one_hot(s.label, c).max(axis=0, initial=0.0) for s in batch]))
    return Tensor(T.one_hot([s.label for s in batch], c))


def train_task(model: RebQModel, samples: list[Sample], epochs: int, batch_size: int,
               lr: float, seed: int, cache: QueryCache | None = None) -> TrainingLog:
    """Optimize pools and head on one session's data; the backbone stays frozen.

    AdamW runs its default schedule (tensor.AdamW) from base rate lr over
    epochs * ceil(len(samples) / batch_size) steps. Each step runs
    forward_batch with the reconstruction loss on: L_c is the classification
    loss of the returned logits, row i against batch[i]'s target (cross-entropy
    for int labels, binary cross-entropy over multi-hot targets for lists; a
    session that mixes the two is refused), L_r the reconstruction loss over
    the batch's complete samples (zero when the batch has none or it is
    switched off), and the objective is L_c + lam * L_r, whose reconstruction
    passes forward_batch has already back-propagated (_reconstruct).
    """
    if not samples:
        raise ValueError("train_task: empty session")
    if batch_size < 1:
        raise ValueError(f"train_task: batch_size must be >= 1, got {batch_size}")
    if epochs < 1:
        raise ValueError(f"train_task: epochs must be >= 1, got {epochs}")
    multi = _multi_label(samples)
    rng = np.random.default_rng(seed)
    opt = AdamW(model.named_parameters().values(), base_lr=lr,
                total_steps=epochs * math.ceil(len(samples) / batch_size))
    lam = model.mcfg.lam
    loss_fn = T.binary_cross_entropy if multi else T.cross_entropy
    log = TrainingLog()
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(len(samples))
        for start in range(0, len(samples), batch_size):
            batch = [samples[i] for i in perm[start:start + batch_size]]
            logits, l_r = forward_batch(model, batch, with_lr=True, cache=cache)
            l_c = loss_fn(logits, _targets(model, batch, multi))
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
