"""Training objectives: metric softmax, and margin metric softmax with
class-adaptive margins or a fixed margin. Metric softmax at tau = 1 is the
plain cross-entropy of the linear-head baseline.

All losses are computed as logsumexp over (margin-augmented) logits
minus the positive logit, so small temperatures stay overflow-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ClassBank
from .tensor import ShapeError, Tensor

MARGIN_ADAPTIVE = "adaptive"
MARGIN_FIXED = "fixed"
MARGIN_NONE = "none"
MARGIN_MODES = (MARGIN_ADAPTIVE, MARGIN_FIXED, MARGIN_NONE)


class LabelError(ValueError):
    """Raised when a label falls outside [0, C)."""


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.01
    lam: float = 0.3
    margin_mode: str = MARGIN_ADAPTIVE
    fixed_margin: float = 0.0

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("lambda", self.lam),
                            ("fixed_margin", self.fixed_margin)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lam < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lam}")
        if self.margin_mode not in MARGIN_MODES:
            raise ValueError(f"unknown margin mode {self.margin_mode!r}")
        if self.margin_mode == MARGIN_FIXED and self.fixed_margin < 0:
            raise ValueError(f"fixed margin must be non-negative, got {self.fixed_margin}")
        # logits (S + lambda D) / tau, S in [-1, 1] and D in [0, margin]; the
        # log-softmax subtracts two of them
        margin = {MARGIN_ADAPTIVE: 2.0, MARGIN_FIXED: self.fixed_margin}.get(self.margin_mode, 0.0)
        bound = (1.0 + self.lam * margin) / self.tau
        if not bound < np.finfo(float).max / 2:
            raise ValueError(f"tau {self.tau} and lambda {self.lam} give logits up to (1 + lambda "
                             f"* {margin}) / tau = {bound:.3g}, whose differences overflow float64")


def _check_labels(labels, num_classes: int) -> np.ndarray:
    idx = np.asarray(labels, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
        bad = int(idx[(idx < 0) | (idx >= num_classes)][0])
        raise LabelError(f"label {bad} out of range for {num_classes} classes")
    return idx


def _nll_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    log_probs = T.log_softmax(logits)
    picked = T.gather_rows(log_probs, labels)
    return T.scale(T.mean(picked), -1.0)


def metric_softmax_loss(sims: Tensor, labels, tau: float) -> Tensor:
    """Mean negative log metric-softmax probability of the true class."""
    if sims.data.ndim != 2:
        raise ShapeError(f"similarities must be B x C, got {sims.shape}")
    idx = _check_labels(labels, sims.shape[1])
    return _nll_mean(T.scale(sims, 1.0 / tau), idx)


def margin_table(labels: np.ndarray, bank: ClassBank, cfg: LossConfig) -> np.ndarray:
    """Per-sample margin row: lambda * D[y][c] (zero on the true class)."""
    if cfg.margin_mode == MARGIN_NONE:
        return np.zeros((labels.shape[0], bank.num_classes))
    if cfg.margin_mode == MARGIN_FIXED:
        out = np.full((labels.shape[0], bank.num_classes), cfg.fixed_margin)
        out[np.arange(labels.shape[0]), labels] = 0.0
        return cfg.lam * out
    return cfg.lam * bank.margin_matrix[labels]


def mms_loss(sims: Tensor, labels, bank: ClassBank, cfg: LossConfig) -> Tensor:
    """Margin metric softmax: the logit for class c is
    (S_c + lambda * D[y][c]) / tau, with a zero margin on the true class."""
    if sims.data.ndim != 2:
        raise ShapeError(f"similarities must be B x C, got {sims.shape}")
    num_classes = sims.shape[1]
    if bank.num_classes != num_classes:
        raise ShapeError(
            f"similarity columns ({num_classes}) do not match bank size ({bank.num_classes})"
        )
    idx = _check_labels(labels, num_classes)
    margins = Tensor(margin_table(idx, bank, cfg))
    augmented = T.scale(T.add(sims, margins), 1.0 / cfg.tau)
    return _nll_mean(augmented, idx)
