"""Desk-scale toolkit for margin-based contrastive fine-tuning with
Beta-weighted trajectory ensembling, evaluated on synthetic
out-of-distribution benchmarks (domain shift + open classes)."""

from .tensor import Tensor, Tape, matmul, l2_normalize, log_softmax
from .model import ClassBank, Encoder, LinearHead, embed, similarities
from .losses import LossConfig, metric_softmax_loss, mms_loss
from .ensemble import (
    BmaState,
    beta_weight,
    bma_init,
    bma_update,
    temporal_ensemble,
    ema_update,
)
from .trainer import TrainerConfig, TrainSet, cosine_lr, adamw_step, train
from .databench import BenchmarkSpec, EmbeddingArchive, generate, split
from .evalcli import main
from .scoring import EvalReport, evaluate

__all__ = [
    "Tensor", "Tape", "matmul", "l2_normalize", "log_softmax",
    "ClassBank", "Encoder", "LinearHead", "embed", "similarities",
    "LossConfig", "metric_softmax_loss", "mms_loss",
    "BmaState", "beta_weight", "bma_init", "bma_update",
    "temporal_ensemble", "ema_update",
    "TrainerConfig", "TrainSet", "cosine_lr", "adamw_step", "train",
    "BenchmarkSpec", "EmbeddingArchive", "generate", "split",
    "EvalReport", "evaluate", "main",
]
