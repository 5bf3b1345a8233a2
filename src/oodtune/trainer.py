"""Fine-tuning loop: seeded with-replacement batching, margin metric
softmax forward/backward, AdamW with cosine learning-rate decay, and a
per-step update of the trajectory ensemble.

Each step runs a fused analytic forward and backward pass (`FusedStep`)
over one flat parameter vector; no Tensor or Tape is built while
training. The pass repeats, in order, the numpy operations that
`tensor.Tape` would replay for the same loss, so `Tape` stays the
gradient oracle the tests compare it against bit for bit.

The loop is single-threaded and fully deterministic under its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from .ensemble import BmaState, ParamVector, bma_init, bma_update, ema_update
from .model import (ClassBank, Encoder, LinearHead, flatten_params, mlp_forward,
                    unflatten_params)
from .tensor import NORM_EPS, NonFiniteError, ShapeError

ENSEMBLE_BMA = "bma"
ENSEMBLE_EMA = "ema"
ENSEMBLE_AVG = "avg"
ENSEMBLE_NONE = "none"

HEAD_METRIC = "metric"
HEAD_LINEAR = "linear"


@dataclass(frozen=True)
class TrainerConfig:
    steps: int = 5000
    batch_size: int = 36
    base_lr: float = 3e-3
    weight_decay: float = 0.1
    beta: float = 0.5
    loss: L.LossConfig = field(default_factory=L.LossConfig)
    seed: int = 0
    ensemble_mode: str = ENSEMBLE_BMA
    ema_decay: float = 0.999
    bma_every: int = 1
    head: str = HEAD_METRIC

    def __post_init__(self):
        for name in ("beta", "base_lr", "weight_decay", "ema_decay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_lr < 0:
            raise ValueError(f"base_lr must be >= 0, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.ensemble_mode not in (ENSEMBLE_BMA, ENSEMBLE_EMA, ENSEMBLE_AVG, ENSEMBLE_NONE):
            raise ValueError(f"unknown ensemble mode {self.ensemble_mode!r}")
        if self.head not in (HEAD_METRIC, HEAD_LINEAR):
            raise ValueError(f"unknown head {self.head!r}")
        if self.bma_every < 1:
            raise ValueError(f"bma_every must be >= 1, got {self.bma_every}")


def cosine_lr(t: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr at t=0 toward 0 at t=T; no warmup."""
    if not 0 <= t < total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps})")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * t / total_steps))


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, num_params: int) -> "AdamWState":
        return cls(m=np.zeros(num_params), v=np.zeros(num_params))


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> np.ndarray:
    """One AdamW update with decoupled weight decay.

    Updates state.m, state.v and `params` in place and returns `params`.
    Every element is computed as
    params - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * params).
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"state {state.m.shape}"
        )
    state.t += 1
    m, v = state.m, state.v
    scratch = grads * (1.0 - state.beta1)
    m *= state.beta1
    m += scratch
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - state.beta2
    v *= state.beta2
    v += scratch
    update = m / (1.0 - state.beta1 ** state.t)
    np.divide(v, 1.0 - state.beta2 ** state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    update /= scratch
    np.multiply(params, weight_decay, out=scratch)
    update += scratch
    update *= lr
    params -= update
    return params


@dataclass
class TrainSet:
    features: np.ndarray  # N x d_in
    labels: np.ndarray    # N


@dataclass
class RunResult:
    final_params: ParamVector
    ensemble_params: ParamVector
    loss_curve: np.ndarray
    config: TrainerConfig
    trajectory: list[ParamVector] | None = None


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    out, offset = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[offset:offset + n].reshape(shape))
        offset += n
    return out


class FusedStep:
    """Loss and gradient of one batch, forward and backward written by hand.

    Metric head: tanh MLP -> L2 norm -> cosine similarities -> + lambda D[y]
    -> / tau -> log-softmax NLL. Linear head: raw MLP output r, logits
    r @ W^T -> log-softmax NLL.

    The trainable parameters (encoder w1, b1, w2, b2, then the head's
    weights when a head is given) live in the flat vector `params`, and
    each call leaves the gradient in `grads`, same layout. Both are
    allocated once; the pass works on reshaped views of them. The encoder
    and head tensors are only read at construction: `write_back` copies
    `params` into them.

    Every value goes through the same floating-point operations, in the
    same order, as in `tensor.Tape`'s replay of the same loss, so the loss
    and `grads` equal the Tape's bit for bit.
    """

    def __init__(self, encoder: Encoder, bank: ClassBank, loss_cfg: L.LossConfig,
                 head: LinearHead | None = None):
        if head is None:
            if encoder.d_out != bank.dim:
                raise ShapeError(f"encoder output dim {encoder.d_out} vs bank dim {bank.dim}")
            self._bank_t = np.ascontiguousarray(bank.embeddings.T)
            classes = np.arange(bank.num_classes)
            self._margins = L.margin_table(classes, bank.num_classes, bank, loss_cfg)
            self._inv_tau = float(1.0 / loss_cfg.tau)
        else:
            if head.d_in != encoder.d_out or head.num_classes != bank.num_classes:
                raise ShapeError(
                    f"linear head is {head.num_classes}x{head.d_in}, expected "
                    f"{bank.num_classes}x{encoder.d_out}"
                )
        self._tensors = encoder.parameters() + ([head.weights] if head is not None else [])
        self._linear = head is not None
        self._skip_nonlinearity = encoder.skip_nonlinearity
        shapes = [p.shape for p in self._tensors]
        self.params = flatten_params(self._tensors)
        self.grads = np.zeros_like(self.params)
        self._p = _views(self.params, shapes)
        self._g = _views(self.grads, shapes)

    def write_back(self) -> None:
        """Copy the current parameters into the encoder (and head) tensors."""
        unflatten_params(self._tensors, self.params)

    def __call__(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Fill `grads` for the batch (x, labels) and return the loss.

        Labels must lie in [0, C); train() checks them once per run.
        Raises NonFiniteError on a non-finite pre-activation or loss.
        """
        w1, b1, w2, b2 = self._p[:4]
        gw1, gb1, gw2, gb2 = self._g[:4]
        b = labels.shape[0]
        rows = np.arange(b)

        h, r = mlp_forward(x, w1, b1, w2, b2, self._skip_nonlinearity)
        if self._linear:
            w_t = np.ascontiguousarray(self._p[4].T)  # as tensor.transpose builds it
            logits = r @ w_t
        else:
            norms = np.sqrt(np.add.reduce(r * r, axis=-1, keepdims=True))
            denom = np.maximum(norms, NORM_EPS)
            z = r / denom
            logits = z @ self._bank_t
            logits += self._margins[labels]
            logits *= self._inv_tau
        log_probs = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        log_probs -= np.log(np.add.reduce(np.exp(log_probs), axis=-1, keepdims=True))
        loss = float(np.add.reduce(log_probs[rows, labels]) / b * -1.0)
        if not math.isfinite(loss):
            raise NonFiniteError(f"non-finite loss {loss}")

        # backward: d loss / d logits = (softmax - onehot) / B. The Tape's
        # g - softmax * rowsum(g), with g holding one -1/B per row, rounds
        # to exactly these values.
        g = np.exp(log_probs, out=log_probs)
        g *= 1.0 / b
        g[rows, labels] -= 1.0 / b
        if self._linear:
            g_r = g @ w_t.T
            self._g[4][...] = (r.T @ g).T
        else:
            g *= self._inv_tau
            g_z = g @ self._bank_t.T
            dot = np.add.reduce(z * g_z, axis=-1, keepdims=True)
            g_r = (g_z - z * dot) / denom
            guarded = norms < NORM_EPS  # below eps the map is linear: r / eps
            if guarded.any():
                g_r = np.where(guarded, g_z / denom, g_r)
        np.add.reduce(g_r, axis=0, out=gb2)
        g_h = g_r @ w2.T
        np.matmul(h.T, g_r, out=gw2)
        if not self._skip_nonlinearity:
            g_h *= 1.0 - h ** 2
        np.add.reduce(g_h, axis=0, out=gb1)
        np.matmul(x.T, g_h, out=gw1)
        return loss


def train(
    encoder: Encoder,
    bank: ClassBank,
    dataset: TrainSet,
    cfg: TrainerConfig,
    head: LinearHead | None = None,
    keep_trajectory: bool = False,
) -> RunResult:
    """Run exactly cfg.steps optimizer steps and ensemble the trajectory.

    The encoder (and head) tensors receive the final parameters when the
    run ends.
    """
    features = np.asarray(dataset.features, dtype=np.float64)
    labels = L._check_labels(dataset.labels, bank.num_classes)
    n = features.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    if features.ndim != 2 or features.shape[1] != encoder.d_in:
        raise ShapeError(f"encoder expects N x {encoder.d_in} features, got {features.shape}")
    if labels.shape != (n,):
        raise ShapeError(f"{labels.shape} labels for {n} feature rows")
    if cfg.head == HEAD_LINEAR and head is None:
        raise ValueError("linear head mode requires a LinearHead")
    if not np.isfinite(features).all():
        row = int(np.flatnonzero(~np.isfinite(features).all(axis=1))[0])
        raise NonFiniteError(f"step 0: training feature row {row} is not finite")

    step = FusedStep(encoder, bank, cfg.loss, head if cfg.head == HEAD_LINEAR else None)
    params = step.params
    opt = AdamWState.init(params.size)
    rng = np.random.default_rng([cfg.seed, 2])

    ensemble_updates = cfg.steps // cfg.bma_every
    bma: BmaState | None = None
    ema_avg: ParamVector | None = None
    if cfg.ensemble_mode in (ENSEMBLE_BMA, ENSEMBLE_AVG) and ensemble_updates >= 1:
        beta = cfg.beta if cfg.ensemble_mode == ENSEMBLE_BMA else 1.0
        bma = bma_init(params, ensemble_updates, beta)
    elif cfg.ensemble_mode == ENSEMBLE_EMA:
        ema_avg = params.copy()

    trajectory = [params.copy()] if keep_trajectory else None
    losses = np.empty(cfg.steps)

    for t in range(cfg.steps):
        batch = rng.integers(0, n, size=cfg.batch_size)
        try:
            losses[t] = step(features[batch], labels[batch])
        except NonFiniteError as exc:
            raise NonFiniteError(f"step {t}: {exc}") from None

        lr = cosine_lr(t, cfg.steps, cfg.base_lr)
        adamw_step(params, step.grads, opt, lr, cfg.weight_decay)

        if trajectory is not None:
            trajectory.append(params.copy())
        if bma is not None and (t + 1) % cfg.bma_every == 0 and bma.step < bma.total_steps:
            bma = bma_update(bma, params)
        elif ema_avg is not None:
            ema_avg = ema_update(ema_avg, params, cfg.ema_decay)

    step.write_back()
    if bma is not None:
        ensemble_params = bma.avg.copy()
    elif ema_avg is not None:
        ensemble_params = ema_avg
    else:
        ensemble_params = params.copy()

    return RunResult(
        final_params=params,
        ensemble_params=ensemble_params,
        loss_curve=losses,
        config=cfg,
        trajectory=trajectory,
    )
