"""The training step of `trainer.train`, rebuilt from public calls with a
clock read between stages.

The replica covers the configuration the workloads train with: metric head,
BMA or no ensemble, one ensemble update per step. For that configuration it
is meant to reproduce `trainer.train` bit for bit; `matches` says whether it
did, and `agrees` whether it stayed within the tolerance a correct but
reordered implementation would need.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from oodtune import ensemble as ens
from oodtune import losses as L
from oodtune import model as mdl
from oodtune import tensor as T
from oodtune import trainer as tr

# stage name -> what the stage covers
STAGES = {
    "trainer.batch": "draw batch indices, gather rows into a Tensor, zero grads",
    "model.encoder_fwd": "embed: tanh MLP forward and L2 normalization",
    "model.similarities": "cosine similarities against the bank",
    "losses.mms": "margin metric softmax loss",
    "tensor.backward": "Tape.backward over the recorded step",
    "trainer.flat_copy": "gradient concatenation plus Encoder.set_flat",
    "trainer.adamw": "adamw_step",
    "ensemble.bma_update": "bma_update",
}

# trained parameters and losses of a reordered implementation stay this close
# to trainer.train over the replica's steps; a wrong gradient moves a
# parameter by about lr (1e-3) per step
AGREE_ATOL = 1e-6


def replicate(encoder: mdl.Encoder, bank: mdl.ClassBank, dataset: tr.TrainSet,
              cfg: tr.TrainerConfig, steps_run: int | None = None):
    """Run the first `steps_run` (default all) steps of cfg's schedule;
    return (result, stage_ns) where stage_ns maps every STAGES key to an
    int64 array of per-step nanoseconds."""
    steps_run = cfg.steps if steps_run is None else steps_run
    if cfg.head != tr.HEAD_METRIC or cfg.bma_every != 1 or \
            cfg.ensemble_mode not in (tr.ENSEMBLE_BMA, tr.ENSEMBLE_NONE):
        raise ValueError("replica covers the metric head with bma or no ensemble, bma_every 1")
    n = dataset.features.shape[0]
    features = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    params = encoder.get_flat()
    opt = tr.AdamWState.init(params.size)
    rng = np.random.default_rng([cfg.seed, 2])
    bma = ens.bma_init(params, cfg.steps, cfg.beta) if cfg.ensemble_mode == tr.ENSEMBLE_BMA else None
    losses = np.empty(steps_run)
    stage_ns = {name: np.empty(steps_run, dtype=np.int64) for name in STAGES}
    clock = time.perf_counter_ns

    for t in range(steps_run):
        t0 = clock()
        batch = rng.integers(0, n, size=cfg.batch_size)
        x = T.Tensor(features[batch])
        y = labels[batch]
        encoder.zero_grad()
        t1 = clock()
        with T.Tape() as tape:
            z = mdl.embed(encoder, x)
            t2 = clock()
            sims = mdl.similarities(bank, z)
            t3 = clock()
            loss = L.mms_loss(sims, y, bank, cfg.loss)
            t4 = clock()
            tape.backward(loss)
        t5 = clock()
        losses[t] = float(loss.data)
        lr = tr.cosine_lr(t, cfg.steps, cfg.base_lr)
        grads = np.concatenate([
            p.grad.ravel() if p.grad is not None else np.zeros(p.data.size)
            for p in encoder.parameters()
        ])
        t6 = clock()
        params = tr.adamw_step(params, grads, opt, lr, cfg.weight_decay)
        t7 = clock()
        encoder.set_flat(params)
        t8 = clock()
        if bma is not None:
            bma = ens.bma_update(bma, params)
        t9 = clock()
        stage_ns["trainer.batch"][t] = t1 - t0
        stage_ns["model.encoder_fwd"][t] = t2 - t1
        stage_ns["model.similarities"][t] = t3 - t2
        stage_ns["losses.mms"][t] = t4 - t3
        stage_ns["tensor.backward"][t] = t5 - t4
        stage_ns["trainer.flat_copy"][t] = (t6 - t5) + (t8 - t7)
        stage_ns["trainer.adamw"][t] = t7 - t6
        stage_ns["ensemble.bma_update"][t] = t9 - t8

    result = tr.RunResult(
        final_params=params,
        ensemble_params=bma.avg.copy() if bma is not None else params.copy(),
        loss_curve=losses,
        config=cfg,
    )
    return result, stage_ns


def compare(a: tr.RunResult, b: tr.RunResult) -> tuple[bool, float]:
    """(bit-identical, largest absolute difference) over losses and both
    parameter vectors."""
    pairs = [(a.loss_curve, b.loss_curve), (a.final_params, b.final_params),
             (a.ensemble_params, b.ensemble_params)]
    if any(x.shape != y.shape for x, y in pairs):
        return False, float("inf")
    same = all(np.array_equal(x, y) for x, y in pairs)
    worst = max(float(np.max(np.abs(x - y))) for x, y in pairs)
    return same, worst


@contextmanager
def counting_tensors():
    """Count Tensor constructions made inside the block."""
    counter = [0]
    original = T.Tensor.__init__

    def counted(self, *args, **kwargs):
        counter[0] += 1
        original(self, *args, **kwargs)

    T.Tensor.__init__ = counted
    try:
        yield counter
    finally:
        T.Tensor.__init__ = original


def computed_counts(batch: int, d_in: int, hidden: int, d: int, classes: int,
                    params: int) -> dict[str, float]:
    """Per-step counts derived from the shapes, not measured. FLOPs count
    2 per multiply-add of the three matmuls; backward skips the gradients of
    the input batch and of the frozen bank. Bytes are the float64 arrays
    each update must read and write at least, with no temporaries."""
    fwd = 2 * batch * (d_in * hidden + hidden * d + d * classes)
    bwd = 2 * batch * (d_in * hidden + 2 * hidden * d + d * classes)
    return {
        "computed.fwd_matmul_flops": float(fwd),
        "computed.bwd_matmul_flops": float(bwd),
        # reads params, grads, m, v; writes m, v, params
        "computed.adamw_bytes": float(7 * 8 * params),
        # reads avg, theta; writes avg
        "computed.bma_bytes": float(3 * 8 * params),
    }
