"""Desk-scale domain adaptation lab.

A self-contained pipeline for example-specific prompt generation and
prompt-conditioned classification: multi-domain corpora, domain related
feature (DRF) extraction, a from-scratch encoder-decoder trained with a
generative/discriminative task mixture, diverse beam search, baseline
models, and a leave-one-out evaluation harness.
"""

from .corpus import (
    Example,
    LeaveOneOutSetting,
    MultiDomainDataset,
    SyntheticSpec,
    Vocabulary,
    build_vocabulary,
    generate_synthetic,
    ingest_jsonl,
    make_loo_settings,
    tokenize,
)
from .drf import (
    DomainProfile,
    EmbeddingTable,
    PromptAnnotation,
    annotate_prompt,
    build_embeddings,
    extract_drf_set,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MetricSpec,
    build_artifacts,
    grid_search_alpha,
    run_loo,
    run_setting,
)
from .inference import GeneratedPrompt, diverse_beam_search
from .metrics import f1_binary, f1_macro
from .model import ModelConfig, init_params, load_checkpoint, loss_and_grads, save_checkpoint
from .training import TrainResult, mix_tasks, train

__version__ = "0.1.0"

__all__ = [
    "DomainProfile",
    "EmbeddingTable",
    "Example",
    "ExperimentConfig",
    "ExperimentReport",
    "GeneratedPrompt",
    "LeaveOneOutSetting",
    "MetricSpec",
    "ModelConfig",
    "MultiDomainDataset",
    "PromptAnnotation",
    "SyntheticSpec",
    "TrainResult",
    "Vocabulary",
    "annotate_prompt",
    "build_artifacts",
    "build_embeddings",
    "build_vocabulary",
    "diverse_beam_search",
    "extract_drf_set",
    "f1_binary",
    "f1_macro",
    "generate_synthetic",
    "grid_search_alpha",
    "ingest_jsonl",
    "init_params",
    "load_checkpoint",
    "loss_and_grads",
    "make_loo_settings",
    "mix_tasks",
    "run_loo",
    "run_setting",
    "save_checkpoint",
    "tokenize",
    "train",
]
