"""Fine-tuning loop: seeded with-replacement batching, margin metric
softmax forward/backward, AdamW with cosine learning-rate decay, and the
trajectory ensemble.

`train` takes one run or several runs as lanes of one loop: lists of
encoders, datasets and configs that differ only in seed, data and initial
parameters. The lanes' parameters, gradients and optimizer and ensemble
state are rows of S x P blocks, and each step runs a fused analytic
forward and backward pass (`FusedStep`) over all lanes with stacked
matmuls; no Tensor or Tape is built while training. The pass repeats, in
order, the numpy operations that `tensor.Tape` would replay for the same
loss, so `Tape` stays the gradient oracle the tests compare it against
bit for bit, and every lane equals its own one-lane run bit for bit.

Each step runs in parts: blocks of batch rows (forward, loss and backward
to the hidden layer), each writing its rows of the whole batch's
activation buffers, then ranges of the parameters (their gradients from
those buffers, AdamW, and the range's fold into the ensemble: `train`
gives each range one fold when the run starts, BMA or the uniform average
every `bma_every` steps, EMA every step, or none). A step whose work reaches
SPLIT_WORK has two of each, a smaller one one of each; both run the same
code. `FusedStep` fixes its parts when it is built for the run's batch
size, and `train` opens one `parallel.Crew(len(step.blocks))` around its
loop and runs every step's parts on it: one thread per part, the caller's
among them, as far as the cores allow. The parts are fixed by the shapes
alone, so the loop is fully deterministic under its seeds and gives the
same bits at every thread count.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import losses as L
from . import parallel
from .ensemble import ParamVector, bma_init, bma_update, ema_update
from .model import (ClassBank, Encoder, LinearHead, flatten_params, mlp_forward, trainables,
                    unflatten_params)
from .tensor import NORM_EPS, NonFiniteError, ShapeError

ENSEMBLE_BMA = "bma"
ENSEMBLE_EMA = "ema"
ENSEMBLE_AVG = "avg"
ENSEMBLE_NONE = "none"
ENSEMBLE_MODES = (ENSEMBLE_BMA, ENSEMBLE_EMA, ENSEMBLE_AVG, ENSEMBLE_NONE)

HEAD_METRIC = "metric"
HEAD_LINEAR = "linear"

# steps of batch rows each lane draws per call: one call per step cost about
# 11 us, 4% of a desk-size step; at B = 256 a chunk holds 512 KB of row ids
BATCH_DRAW_STEPS = 256

# a step whose work, S lanes x (B rows x the flops of one row's matmuls + P),
# reaches this runs as two halves of rows and of parameters, on two threads
# where the cores allow. Step time on two threads over one, both halved, on
# a 2-core machine (numpy 2.4, BLAS at one thread): 3.8 at desk size (C=20,
# d=32, d_in=48, h=64, B=36; work 9.8e5), 1.9 with 5 such lanes (4.9e6),
# 1.5 at C=100, d=64, d_in=96, h=128, B=128 (1.6e7); at C=400, d=128,
# d_in=256, h=256: 0.97 with B=16 (1.1e7), 0.93 with B=32 (2.1e7), 0.75 with
# B=64 (4.3e7) and 0.72 with B=256 (1.7e8); 0.75 at C=1000, d=32, d_in=48,
# h=64, B=256 (3.9e7). Small steps lose: their many short numpy calls
# contend for the interpreter lock.
SPLIT_WORK = 30_000_000

# AdamW's moment decays and the floor added to the root of the second moment
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        # AdamW scales every parameter by 1 - lr * weight_decay each step: from
        # a product of 2 on, that factor's magnitude is at least 1 from step 0
        if self.base_lr * self.weight_decay >= 2:
            raise ValueError(f"base_lr * weight_decay must be < 2, "
                             f"got {self.base_lr * self.weight_decay}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0 < self.ema_decay < 1:
            raise ValueError(f"ema_decay must lie in (0, 1), got {self.ema_decay}")
        if self.ensemble_mode not in ENSEMBLE_MODES:
            raise ValueError(f"unknown ensemble mode {self.ensemble_mode!r}")
        if self.head not in (HEAD_METRIC, HEAD_LINEAR):
            raise ValueError(f"unknown head {self.head!r}")
        if self.bma_every < 1:
            raise ValueError(f"bma_every must be >= 1, got {self.bma_every}")
        if not self.batch_size * self.loss.logit_bound < np.finfo(float).max / 2:  # B rows' losses
            raise ValueError(f"tau {self.loss.tau} and lambda {self.loss.lam} give a loss whose "
                             f"sum over a batch of {self.batch_size} rows overflows float64")
        if self.ensemble_mode in (ENSEMBLE_BMA, ENSEMBLE_AVG) and self.bma_every > self.steps:
            raise ValueError(f"bma_every {self.bma_every} exceeds steps {self.steps}: the "
                             f"{self.ensemble_mode} ensemble would get no update")


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
    scratch = grads * (1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(grads, grads, out=scratch)
    scratch *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += scratch
    update = m / (1.0 - ADAM_BETA1 ** state.t)
    np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
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

    A step is built for batches of `batch_size` rows, and everything that
    depends on it is fixed at construction: the row blocks `blocks` and the
    column ranges `ranges` of `params` that a call runs as its parts, and
    the whole batch's activation buffers. Below SPLIT_WORK there is one
    block and one range; from it on, two halves of each, the ranges cut at
    a row boundary of a weight matrix. They depend on the shapes alone: a
    row-split matmul need not round like the whole product, so the thread
    count must not choose the split.

    A call runs in two phases. A row part runs forward, loss terms and
    backward down to the hidden layer's gradient for one block of batch
    rows, writing its rows of the activation buffers; a range part
    computes the gradients of one range from those buffers, then calls
    the call's `update(part)`, which `train` uses to step the optimizer and
    the ensemble on that range. The losses are checked between the phases,
    before any parameter moves. The parts of a phase run on the call's
    `crew`, which `train` opens as `parallel.Crew(len(step.blocks))`. The
    parts do not depend on the crew's thread count, so neither do the
    results. A row part allocates its logits on the thread that runs it:
    logit buffers allocated once by the caller kept the bits but raised
    mid-train's peak RSS (192.9 -> 195.4 MB, higher in 6 of 6 pairs).

    The encoder and head tensors are only read at construction:
    `write_back` copies each lane's parameters into them.

    Every value goes through the same floating-point operations, in the
    same order, as in `tensor.Tape`'s replay of the same loss when a call
    has one part per phase, so each lane's loss and gradient equal the
    Tape's bit for bit.
    """

    def __init__(self, encoders: list[Encoder], bank: ClassBank, loss_cfg: L.LossConfig,
                 batch_size: int, heads: list[LinearHead] | None = None):
        heads = [None] * len(encoders) if heads is None else heads
        if not encoders or len(heads) != len(encoders):
            raise ValueError(f"{len(encoders)} encoders and {len(heads)} heads")
        first, linear = encoders[0], heads[0] is not None
        for i, (enc, hd) in enumerate(zip(encoders, heads)):
            if [p.shape for p in enc.parameters()] != [p.shape for p in first.parameters()]:
                raise ValueError(f"lane {i}: encoder shapes differ from lane 0's")
            if (hd is not None) != linear:
                raise ValueError(f"lane {i}: head mode differs from lane 0's")
        if not linear:
            if first.d_out != bank.dim:
                raise ShapeError(f"encoder output dim {first.d_out} vs bank dim {bank.dim}")
            self._bank_t = np.ascontiguousarray(bank.embeddings.T)
            classes = np.arange(bank.num_classes)
            self._margins = L.margin_table(classes, bank, loss_cfg)
            self._inv_tau = float(1.0 / loss_cfg.tau)
        else:
            for hd in heads:
                if hd.d_in != first.d_out or hd.num_classes != bank.num_classes:
                    raise ShapeError(
                        f"linear head is {hd.num_classes}x{hd.d_in}, expected "
                        f"{bank.num_classes}x{first.d_out}"
                    )
        self._tensors = [trainables(enc, hd) for enc, hd in zip(encoders, heads)]
        self._linear = linear
        self.params = np.stack([flatten_params(t) for t in self._tensors])
        self.grads = np.zeros_like(self.params)
        s, p = self.params.shape
        # each tensor's S-stacked views of params and grads, biases as
        # S x 1 x n so they broadcast over the batch axis; and its offset in
        # a lane's row, size and row length: a range of the row covers whole
        # rows of each matrix and whole biases
        self._p, grad_views, spans, offset = [], [], [], 0
        for tensor in self._tensors[0]:
            size = math.prod(tensor.shape)
            view = (s, 1, size) if len(tensor.shape) == 1 else (s,) + tensor.shape
            self._p.append(self.params[:, offset:offset + size].reshape(view))
            grad_views.append(self.grads[:, offset:offset + size].reshape(view))
            spans.append((offset, size, view[-1]))
            offset += size
        self._w2_t = self._p[2].transpose(0, 2, 1)
        d_in, hidden = first.w1.shape
        d, c = first.d_out, bank.num_classes
        # per batch row: 2 flops per multiply-add of the matmuls, forward
        # (x @ w1, h @ w2, the logits) and backward (the logits' input
        # gradient, g_h and the weight gradients)
        row_flops = 2 * (2 * d_in * hidden + 3 * hidden * d + (3 if linear else 2) * d * c)
        # the halves' cut: the row boundary nearest the middle of a lane's row
        # in the tensor holding it, or either end of a bias
        start, size, row = next(span for span in spans if 2 * (span[0] + span[1]) > p)
        cut = start + (p - 2 * start + row) // (2 * row) * row
        if s * (batch_size * row_flops + p) < SPLIT_WORK or batch_size < 2 or not 0 < cut < p:
            self.blocks, self.ranges = [slice(0, batch_size)], [slice(0, p)]
        else:
            half = (batch_size + 1) // 2
            self.blocks = [slice(0, half), slice(half, batch_size)]
            self.ranges = [slice(0, cut), slice(cut, p)]
        # for each range the tensors it covers, as (index, its rows in the
        # range, the view of those rows of grads)
        self._covered = []
        for cols in self.ranges:
            self._covered.append([])
            for k, (start, size, row) in enumerate(spans):
                lo, hi = max(cols.start, start), min(cols.stop, start + size)
                if lo < hi:
                    rows = slice((lo - start) // row, (hi - start) // row)
                    self._covered[-1].append((k, rows, grad_views[k][:, rows]))
        # the whole batch's arrays that the row parts leave for the range
        # parts, each block filling its own rows of them
        self._act = dict(picked=np.empty((s, batch_size)), h=np.empty((s, batch_size, hidden)),
                         g_h=np.empty((s, batch_size, hidden)), g_r=np.empty((s, batch_size, d)))
        if linear:
            self._act.update(r=np.empty((s, batch_size, d)), g=np.empty((s, batch_size, c)))

    def write_back(self) -> None:
        """Copy each lane's current parameters into its encoder (and head) tensors."""
        for tensors, flat in zip(self._tensors, self.params):
            unflatten_params(tensors, flat)

    def __call__(self, x: np.ndarray, labels: np.ndarray, crew: parallel.Crew,
                 update: Callable[[int], None] | None = None) -> list[float]:
        """Fill `grads` for the batches (x, labels), S x B x d_in and S x B,
        running the parts on `crew`; call `update(part)` on each range once
        its gradients are in, and return the list of S losses.

        Labels must lie in [0, C); train() checks them once per run.
        Raises ShapeError on batches of another shape than the step's, and
        NonFiniteError on a non-finite pre-activation or loss, naming the
        lane when there is more than one; of two row blocks failing, the
        first one's error.
        """
        want = self._act["picked"].shape
        if labels.shape != want or x.shape[:2] != want:
            raise ShapeError(f"step built for {want[0]} x {want[1]} batches, got "
                             f"features {x.shape} and labels {labels.shape}")
        s, b = want
        # as tensor.transpose builds it
        w_t = np.ascontiguousarray(self._p[4].transpose(0, 2, 1)) if self._linear else None
        crew.run(partial(self._rows, x, labels, w_t), self.blocks)
        # per lane in Python floats: the same IEEE operations as on numpy scalars
        losses = [total / b * -1.0
                  for total in np.add.reduce(self._act["picked"], axis=-1).tolist()]
        for lane, loss in enumerate(losses):
            if not math.isfinite(loss):
                where = f"lane {lane}: " if s > 1 else ""
                raise NonFiniteError(f"{where}non-finite loss {loss}")
        crew.run(partial(self._range, x, update), range(len(self._covered)))
        return losses

    def _rows(self, x: np.ndarray, labels: np.ndarray, w_t: np.ndarray | None,
              rows: slice) -> None:
        """Forward, loss terms and backward down to g_h for one block of
        batch rows of every lane, into its rows of the whole batch's arrays."""
        act = self._act
        w1, b1, w2, b2 = self._p[:4]
        scale = 1.0 / labels.shape[1]
        x, labels = x[:, rows], labels[:, rows]
        s, b = labels.shape
        # the row-wise softmax part runs on (S*b) x C views, indexed as in 2-D
        picks = (np.arange(s * b), labels.reshape(-1))

        h, r = mlp_forward(x, w1, b1, w2, b2, act["h"][:, rows])
        if self._linear:
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
        picked = act["picked"][:, rows]
        picked[...] = log_probs[picks].reshape(s, b)
        if not np.logical_and.reduce(np.isfinite(picked), axis=None):
            return  # the caller raises on the loss before the backward is used

        # backward: d loss / d logits = (softmax - onehot) / B. The Tape's
        # g - softmax * rowsum(g), with g holding one -1/B per row, rounds
        # to exactly these values.
        g = np.exp(log_probs, out=log_probs)
        g *= scale
        g[picks] -= scale
        g = g.reshape(s, b, -1)
        if self._linear:
            g_r = np.matmul(g, w_t.transpose(0, 2, 1), out=act["g_r"][:, rows])
            act["r"][:, rows] = r
            act["g"][:, rows] = g
        else:
            g *= self._inv_tau
            g_z = g @ self._bank_t.T
            dot = np.add.reduce(z * g_z, axis=-1, keepdims=True)
            g_r = np.divide(g_z - z * dot, denom, out=act["g_r"][:, rows])
            guarded = norms < NORM_EPS  # below eps the map is linear: r / eps
            if guarded.any():
                g_r[...] = np.where(guarded, g_z / denom, g_r)
        g_h = np.matmul(g_r, self._w2_t, out=act["g_h"][:, rows])
        g_h *= 1.0 - h ** 2

    def _range(self, x: np.ndarray, update: Callable[[int], None] | None, part: int) -> None:
        """Every lane's gradients in one column range of `grads`, from the
        whole batch x; then the update of that range."""
        act = self._act
        for k, rows, out in self._covered[part]:
            if k == 0:  # w1
                np.matmul(x[:, :, rows].transpose(0, 2, 1), act["g_h"], out=out)
            elif k == 1:  # b1
                np.add.reduce(act["g_h"], axis=1, keepdims=True, out=out)
            elif k == 2:  # w2
                np.matmul(act["h"][:, :, rows].transpose(0, 2, 1), act["g_r"], out=out)
            elif k == 3:  # b2
                np.add.reduce(act["g_r"], axis=1, keepdims=True, out=out)
            else:  # the linear head's weights, C x d, as the Tape forms them
                out[...] = (act["r"].transpose(0, 2, 1) @ act["g"][:, :, rows]).transpose(0, 2, 1)
        if update is not None:
            update(part)


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
    if cfg.head == HEAD_METRIC and any(h is not None for h in heads):
        raise ValueError("metric head mode takes no LinearHead")

    sets = _checked_sets(datasets, bank.num_classes, encoders[0].d_in)

    step = FusedStep(encoders, bank, cfg.loss, cfg.batch_size, heads)
    params = step.params
    # each lane draws its rows from its own stream and gathers them into its
    # row of one batch buffer, in the features' dtype; float32 batches are
    # cast to float64 after the gather, which is exact
    dtype = np.result_type(*(features for features, _ in sets))
    xs = np.empty((len(sets), cfg.batch_size, encoders[0].d_in), dtype=dtype)
    ys = np.empty((len(sets), cfg.batch_size), dtype=np.int64)
    lanes = [(np.random.default_rng([c.seed, 2]), features.astype(dtype, copy=False), labels,
              x_row, y_row)
             for c, (features, labels), x_row, y_row in zip(cfgs, sets, xs, ys)]

    # each range of the parameters updates its own views of the gradients,
    # the optimizer state and the ensemble (its fold); the ranges' step
    # counters and weight sums advance in lockstep
    every, avg = 1, None
    if cfg.ensemble_mode in (ENSEMBLE_BMA, ENSEMBLE_AVG):
        bma = bma_init(params, cfg.steps // cfg.bma_every,
                       cfg.beta if cfg.ensemble_mode == ENSEMBLE_BMA else 1.0)
        every, avg = cfg.bma_every, bma.avg
        folds = [partial(bma_update, replace(bma, avg=avg[:, cols])) for cols in step.ranges]
    elif cfg.ensemble_mode == ENSEMBLE_EMA:
        avg = params.copy()
        folds = [partial(ema_update, avg[:, cols], decay=cfg.ema_decay) for cols in step.ranges]
    else:
        folds = [lambda theta: None] * len(step.ranges)
    m, v = np.zeros_like(params), np.zeros_like(params)
    states = [(params[:, cols], step.grads[:, cols], AdamWState(m=m[:, cols], v=v[:, cols]), fold)
              for cols, fold in zip(step.ranges, folds)]

    def update(lr: float, fold_now: bool, part: int) -> None:
        """AdamW on one column range of the parameters, then its ensemble fold."""
        theta, grad, opt, fold = states[part]
        adamw_step(theta, grad, opt, lr, cfg.weight_decay)
        if fold_now:
            fold(theta)

    trajectory = [params.copy()] if keep_trajectory else None
    losses = np.empty((cfg.steps, len(lanes)))

    with parallel.Crew(len(step.blocks)) as crew:
        for t in range(cfg.steps):
            chunk_step = t % BATCH_DRAW_STEPS
            if chunk_step == 0:
                # one draw of size (T, B) gives the stream of T draws of size B
                chunk = min(BATCH_DRAW_STEPS, cfg.steps - t)
                chunk_rows = [rng.integers(0, labels.size, size=(chunk, cfg.batch_size))
                              for rng, _, labels, _, _ in lanes]
            for (_, features, labels, x_row, y_row), rows in zip(lanes, chunk_rows):
                # the rows are in range; "clip" skips the buffered copy of "raise"
                features.take(rows[chunk_step], axis=0, out=x_row, mode="clip")
                labels.take(rows[chunk_step], out=y_row, mode="clip")
            try:
                losses[t] = step(xs.astype(np.float64, copy=False), ys, crew,
                                 partial(update, cosine_lr(t, cfg.steps, cfg.base_lr),
                                         (t + 1) % every == 0))
            except NonFiniteError as exc:
                raise NonFiniteError(f"step {t}: {exc}") from None
            if trajectory is not None:
                trajectory.append(params.copy())

    step.write_back()
    ensemble = params.copy() if avg is None else avg

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
