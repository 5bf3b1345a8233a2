"""Fine-tuning loop: seeded with-replacement batching, margin metric
softmax forward/backward, AdamW with cosine learning-rate decay, and a
per-step update of the trajectory ensemble.

`train` takes one run or several runs as lanes of one loop: lists of
encoders, datasets and configs that differ only in seed, data and initial
parameters. The lanes' parameters, gradients and optimizer and ensemble
state are rows of S x P blocks, and each step runs a fused analytic
forward and backward pass (`FusedStep`) over all lanes with stacked
matmuls; no Tensor or Tape is built while training. The pass repeats, in
order, the numpy operations that `tensor.Tape` would replay for the same
loss, so `Tape` stays the gradient oracle the tests compare it against
bit for bit, and every lane equals its own one-lane run bit for bit.

The loop is single-threaded and fully deterministic under its seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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


def _lane_views(block: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of an S x P block as S-stacks of the given shapes, in order."""
    out, offset = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(block[:, offset:offset + n].reshape((block.shape[0],) + shape))
        offset += n
    return out


class FusedStep:
    """Loss and gradient of one batch per lane, forward and backward
    written by hand.

    Metric head: tanh MLP -> L2 norm -> cosine similarities -> + lambda D[y]
    -> / tau -> log-softmax NLL. Linear head: raw MLP output r, logits
    r @ W^T -> log-softmax NLL.

    `encoders` is a list of S Encoders of equal shapes (and `heads` a list
    of S heads, or None): each is one lane. The trainable parameters of
    lane i (encoder w1, b1, w2, b2, then the head's weights when heads are
    given) are row i of the S x P block `params`, and each call leaves the
    gradients in `grads`, same layout. Both are allocated once; the pass
    works on S-stacked views of them and runs every matmul as one stacked
    numpy matmul, which calls per lane the same BLAS routine a 2-D product
    would.

    The encoder and head tensors are only read at construction:
    `write_back` copies each lane's parameters into them.

    Every value goes through the same floating-point operations, in the
    same order, as in `tensor.Tape`'s replay of the same loss, so each
    lane's loss and gradient equal the Tape's bit for bit.
    """

    def __init__(self, encoders: list[Encoder], bank: ClassBank, loss_cfg: L.LossConfig,
                 heads: list[LinearHead] | None = None):
        heads = [None] * len(encoders) if heads is None else heads
        if not encoders or len(heads) != len(encoders):
            raise ValueError(f"{len(encoders)} encoders and {len(heads)} heads")
        first, linear = encoders[0], heads[0] is not None
        for i, (enc, hd) in enumerate(zip(encoders, heads)):
            if [p.shape for p in enc.parameters()] != [p.shape for p in first.parameters()]:
                raise ValueError(f"lane {i}: encoder shapes differ from lane 0's")
            if enc.skip_nonlinearity != first.skip_nonlinearity:
                raise ValueError(f"lane {i}: skip_nonlinearity differs from lane 0's")
            if (hd is not None) != linear:
                raise ValueError(f"lane {i}: head mode differs from lane 0's")
        if not linear:
            if first.d_out != bank.dim:
                raise ShapeError(f"encoder output dim {first.d_out} vs bank dim {bank.dim}")
            self._bank_t = np.ascontiguousarray(bank.embeddings.T)
            classes = np.arange(bank.num_classes)
            self._margins = L.margin_table(classes, bank.num_classes, bank, loss_cfg)
            self._inv_tau = float(1.0 / loss_cfg.tau)
        else:
            for hd in heads:
                if hd.d_in != first.d_out or hd.num_classes != bank.num_classes:
                    raise ShapeError(
                        f"linear head is {hd.num_classes}x{hd.d_in}, expected "
                        f"{bank.num_classes}x{first.d_out}"
                    )
        self._tensors = [enc.parameters() + ([hd.weights] if linear else [])
                         for enc, hd in zip(encoders, heads)]
        self._linear = linear
        self._skip_nonlinearity = first.skip_nonlinearity
        self.params = np.stack([flatten_params(t) for t in self._tensors])
        self.grads = np.zeros_like(self.params)
        # biases as S x 1 x n, so they broadcast over the batch axis
        shapes = [(1,) + p.shape if len(p.shape) == 1 else p.shape for p in self._tensors[0]]
        self._p = _lane_views(self.params, shapes)
        self._g = _lane_views(self.grads, shapes)
        self._w2_t = self._p[2].transpose(0, 2, 1)

    def write_back(self) -> None:
        """Copy each lane's current parameters into its encoder (and head) tensors."""
        for tensors, flat in zip(self._tensors, self.params):
            unflatten_params(tensors, flat)

    def __call__(self, x: np.ndarray, labels: np.ndarray) -> list[float]:
        """Fill `grads` for the batches (x, labels), S x B x d_in and S x B,
        and return the list of S losses.

        Labels must lie in [0, C); train() checks them once per run.
        Raises NonFiniteError on a non-finite pre-activation or loss,
        naming the lane when there is more than one.
        """
        w1, b1, w2, b2 = self._p[:4]
        gw1, gb1, gw2, gb2 = self._g[:4]
        s, b = labels.shape
        # the row-wise softmax part runs on (S*B) x C views, indexed as in 2-D
        picks = (np.arange(s * b), labels.reshape(-1))

        h, r = mlp_forward(x, w1, b1, w2, b2, self._skip_nonlinearity)
        if self._linear:
            w_t = np.ascontiguousarray(self._p[4].transpose(0, 2, 1))  # as tensor.transpose builds it
            logits = (r @ w_t).reshape(s * b, -1)
        else:
            norms = np.sqrt(np.add.reduce(r * r, axis=-1, keepdims=True))
            denom = np.maximum(norms, NORM_EPS)
            z = r / denom
            logits = (z @ self._bank_t).reshape(s * b, -1)
            logits += self._margins[picks[1]]
            logits *= self._inv_tau
        log_probs = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        log_probs -= np.log(np.add.reduce(np.exp(log_probs), axis=-1, keepdims=True))
        # per lane in Python floats: the same IEEE operations as on numpy scalars
        losses = [total / b * -1.0
                  for total in np.add.reduce(log_probs[picks].reshape(s, b), axis=-1).tolist()]
        for lane, loss in enumerate(losses):
            if not math.isfinite(loss):
                where = f"lane {lane}: " if s > 1 else ""
                raise NonFiniteError(f"{where}non-finite loss {loss}")

        # backward: d loss / d logits = (softmax - onehot) / B. The Tape's
        # g - softmax * rowsum(g), with g holding one -1/B per row, rounds
        # to exactly these values.
        g = np.exp(log_probs, out=log_probs)
        g *= 1.0 / b
        g[picks] -= 1.0 / b
        g = g.reshape(s, b, -1)
        if self._linear:
            g_r = g @ w_t.transpose(0, 2, 1)
            self._g[4][...] = (r.transpose(0, 2, 1) @ g).transpose(0, 2, 1)
        else:
            g *= self._inv_tau
            g_z = g @ self._bank_t.T
            dot = np.add.reduce(z * g_z, axis=-1, keepdims=True)
            g_r = (g_z - z * dot) / denom
            guarded = norms < NORM_EPS  # below eps the map is linear: r / eps
            if guarded.any():
                g_r = np.where(guarded, g_z / denom, g_r)
        np.add.reduce(g_r, axis=1, keepdims=True, out=gb2)
        g_h = g_r @ self._w2_t
        np.matmul(h.transpose(0, 2, 1), g_r, out=gw2)
        if not self._skip_nonlinearity:
            g_h *= 1.0 - h ** 2
        np.add.reduce(g_h, axis=1, keepdims=True, out=gb1)
        np.matmul(x.transpose(0, 2, 1), g_h, out=gw1)
        return losses


def _shared_fields(cfg: TrainerConfig) -> dict:
    """The config fields every lane must share: all but the seed, with the
    loss fields named loss.<field>."""
    fields = asdict(cfg)
    del fields["seed"]
    fields.update({f"loss.{k}": v for k, v in fields.pop("loss").items()})
    return fields


def _checked_sets(datasets: list[TrainSet], num_classes: int,
                  d_in: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Check each lane's training set; return its features and labels.

    Float32 features stay float32: each batch is cast to float64 after the
    gather, which is exact. Other dtypes become float64.
    """
    many = len(datasets) > 1
    out = []
    for i, data in enumerate(datasets):
        where = f"lane {i}: " if many else ""
        features = np.asarray(data.features)
        if features.dtype != np.float32:
            features = np.asarray(features, dtype=np.float64)
        labels = L._check_labels(data.labels, num_classes)
        if features.ndim != 2 or features.shape[1] != d_in:
            raise ShapeError(f"{where}encoder expects N x {d_in} features, got {features.shape}")
        n = features.shape[0]
        if n == 0:
            raise ValueError(f"{where}empty training set")
        if labels.shape != (n,):
            raise ShapeError(f"{where}{labels.shape} labels for {n} feature rows")
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise NonFiniteError(f"step 0: {where}training feature row {row} is not finite")
        out.append((features, labels))
    return out


def train(
    encoder: Encoder | list[Encoder],
    bank: ClassBank,
    dataset: TrainSet | list[TrainSet],
    cfg: TrainerConfig | list[TrainerConfig],
    head: LinearHead | list[LinearHead] | None = None,
    keep_trajectory: bool = False,
) -> RunResult | list[RunResult]:
    """Run exactly cfg.steps optimizer steps and ensemble the trajectory;
    return a RunResult.

    Given equal-length lists of encoders, datasets and configs (and of
    heads, or None), train them as lanes of one loop and return one
    RunResult per lane. Every lane equals its own single train call bit for
    bit. Lanes may differ only in the config's seed, the dataset and the
    initial parameters; any other config field that differs raises
    ValueError naming it.

    The encoder (and head) tensors receive the final parameters when the
    run ends.
    """
    single = isinstance(encoder, Encoder)
    if single:
        encoders, datasets, cfgs, heads = [encoder], [dataset], [cfg], [head]
    else:
        encoders, datasets, cfgs = list(encoder), list(dataset), list(cfg)
        heads = [None] * len(encoders) if head is None else list(head)
        if not encoders or not len(datasets) == len(cfgs) == len(heads) == len(encoders):
            raise ValueError(
                f"lanes need equal, non-empty lists: {len(encoders)} encoders, "
                f"{len(datasets)} datasets, {len(cfgs)} configs, {len(heads)} heads")
    cfg = cfgs[0]
    shared = _shared_fields(cfg)
    for i, lane_cfg in enumerate(cfgs[1:], start=1):
        for name, value in _shared_fields(lane_cfg).items():
            if value != shared[name]:
                raise ValueError(f"lane {i}: config field {name} is {value!r}, "
                                 f"lane 0 has {shared[name]!r}")
    if cfg.head == HEAD_LINEAR and any(h is None for h in heads):
        raise ValueError("linear head mode requires a LinearHead")

    sets = _checked_sets(datasets, bank.num_classes, encoders[0].d_in)
    step = FusedStep(encoders, bank, cfg.loss, heads if cfg.head == HEAD_LINEAR else None)
    params = step.params
    opt = AdamWState(m=np.zeros_like(params), v=np.zeros_like(params))
    # each lane draws its rows from its own stream and gathers them into its
    # row of one batch buffer, in the features' dtype; float32 batches are
    # cast to float64 after the gather, which is exact
    dtype = np.result_type(*(features for features, _ in sets))
    xs = np.empty((len(sets), cfg.batch_size, encoders[0].d_in), dtype=dtype)
    ys = np.empty((len(sets), cfg.batch_size), dtype=np.int64)
    lanes = [(np.random.default_rng([c.seed, 2]), features.astype(dtype, copy=False), labels,
              x_row, y_row)
             for c, (features, labels), x_row, y_row in zip(cfgs, sets, xs, ys)]

    ensemble_updates = cfg.steps // cfg.bma_every
    bma: BmaState | None = None
    ema_avg: np.ndarray | None = None
    if cfg.ensemble_mode in (ENSEMBLE_BMA, ENSEMBLE_AVG) and ensemble_updates >= 1:
        beta = cfg.beta if cfg.ensemble_mode == ENSEMBLE_BMA else 1.0
        bma = bma_init(params, ensemble_updates, beta)
    elif cfg.ensemble_mode == ENSEMBLE_EMA:
        ema_avg = params.copy()

    trajectory = [params.copy()] if keep_trajectory else None
    losses = np.empty((cfg.steps, len(lanes)))

    for t in range(cfg.steps):
        for rng, features, labels, x_row, y_row in lanes:
            rows = rng.integers(0, labels.size, size=cfg.batch_size)
            # the rows are in range; "clip" skips the buffered copy of "raise"
            features.take(rows, axis=0, out=x_row, mode="clip")
            labels.take(rows, out=y_row, mode="clip")
        try:
            losses[t] = step(xs.astype(np.float64, copy=False), ys)
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
        ensemble = bma.avg
    elif ema_avg is not None:
        ensemble = ema_avg
    else:
        ensemble = params.copy()

    results = [
        RunResult(
            final_params=params[i],
            ensemble_params=ensemble[i],
            loss_curve=losses[:, i].copy(),
            config=lane_cfg,
            trajectory=None if trajectory is None else [snap[i] for snap in trajectory],
        )
        for i, lane_cfg in enumerate(cfgs)
    ]
    return results[0] if single else results
