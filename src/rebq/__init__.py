"""Desk-scale continual missing-modality learning laboratory.

Modality-specific prompt pools addressed by key-query cosine selection, a
frozen multimodal transformer backbone, missing-query reconstruction via a
memory pool, and the continual benchmark protocol (missing-ratio masking,
class-disjoint sessions, AP/FG metrics) with ablation variants.
"""

__version__ = "0.1.0"

from .tensor import Tensor, AdamW, backward, no_grad  # noqa: F401
from .backbone import BackboneConfig, MultimodalBackbone, pretrain  # noqa: F401
from .bench import Sample, SynthConfig, build_stream, load_corpus, save_corpus, synth_generate  # noqa: F401
from .prompt import PromptPool, PromptVector, compute_weights, aggregate, select_prompt  # noqa: F401
from .reconstruct import QueryCache, generate_queries_batch, reconstruct_batch  # noqa: F401
from .pipeline import (ModelConfig, OptimizerConfig, RebQModel, VariantSpec,  # noqa: F401
                       build_variant, forward_batch, predict_batch, train_task)
from .metrics import average_forgetting, average_performance, performance  # noqa: F401
from .runner import Report, RunConfig, emit_report, run_experiment  # noqa: F401
