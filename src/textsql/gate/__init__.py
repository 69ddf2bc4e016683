"""Gated extraction layer: autodiff core, layer math, host model, training."""

from .copy_task import (
    CopyTaskConfig,
    CopyVocab,
    TrainingDiverged,
    build_vocab,
    evaluate_copy_model,
    gate_config_for,
    make_example,
    train_copy_model,
)
from .gradcheck import GradCheckResult, grad_check, random_check_instance
from .layers import (
    GateParams,
    copy_distribution,
    cross_attention,
    extraction_gate,
    generation_head,
    merge,
)
from .model import (
    GateConfig,
    GateModel,
    ParamsFormatError,
    load_params,
)

__all__ = [
    "CopyTaskConfig",
    "CopyVocab",
    "TrainingDiverged",
    "build_vocab",
    "evaluate_copy_model",
    "gate_config_for",
    "make_example",
    "train_copy_model",
    "GradCheckResult",
    "grad_check",
    "random_check_instance",
    "GateParams",
    "copy_distribution",
    "cross_attention",
    "extraction_gate",
    "generation_head",
    "merge",
    "GateConfig",
    "GateModel",
    "ParamsFormatError",
    "load_params",
]
