"""The fused training step against its oracles: the Tape (bit for bit),
central differences, and a Tape replay of the whole training loop."""

import numpy as np
import pytest

from oodtune import losses as L
from oodtune import tensor as T
from oodtune.model import Encoder, LinearHead, embed, linear_head_logits, similarities
from oodtune.tensor import NonFiniteError
from oodtune.trainer import (
    AdamWState,
    FusedStep,
    TrainSet,
    TrainerConfig,
    adamw_step,
    cosine_lr,
    train,
)

from helpers import central_diff, max_rel_err, random_bank

MARGINS = [L.MARGIN_ADAPTIVE, L.MARGIN_FIXED, L.MARGIN_NONE]


def _tape_loss(enc, bank, x, labels, loss_cfg, head):
    if head is not None:
        logits = linear_head_logits(head, enc.forward_raw(T.Tensor(x)))
        return L.cross_entropy_linear(logits, labels)
    return L.mms_loss(similarities(bank, embed(enc, T.Tensor(x))), labels, bank, loss_cfg)


def _tape_loss_and_grad(enc, bank, x, labels, loss_cfg, head):
    params = enc.parameters() + ([head.weights] if head is not None else [])
    for p in params:
        p.zero_grad()
    with T.Tape() as tape:
        loss = _tape_loss(enc, bank, x, labels, loss_cfg, head)
        tape.backward(loss)
    grads = [p.grad.ravel() if p.grad is not None else np.zeros(p.data.size) for p in params]
    return float(loss.data), np.concatenate(grads)


def _instance(rng, linear, skip, zero_row, tau, margin):
    c = int(rng.integers(2, 9))
    d_in, hidden, d = (int(v) for v in rng.integers(2, 7, size=3))
    b = int(rng.integers(1, 7))
    enc = Encoder.init(d_in, hidden, d, rng)
    enc.skip_nonlinearity = skip
    bank = random_bank(rng, c, d)
    head = LinearHead.init(c, d, rng) if linear else None
    x = rng.standard_normal((b, d_in))
    if zero_row:
        # a zero second layer makes every encoder output row the zero vector
        enc.w2.data = np.zeros_like(enc.w2.data)
        enc.b2.data = np.zeros_like(enc.b2.data)
    cfg = L.LossConfig(tau=tau, lam=0.3, margin_mode=margin, fixed_margin=0.2)
    return enc, bank, head, x, rng.integers(0, c, size=b), cfg


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("zero_row", [False, True])
@pytest.mark.parametrize("tau", [1.0, 0.01])
@pytest.mark.parametrize("margin", MARGINS)
def test_fused_step_equals_tape_bit_for_bit(linear, skip, zero_row, tau, margin):
    rng = np.random.default_rng([int(linear), int(skip), int(zero_row), int(tau * 100),
                                 MARGINS.index(margin)])
    for _ in range(10):
        enc, bank, head, x, labels, cfg = _instance(rng, linear, skip, zero_row, tau, margin)
        step = FusedStep([enc], bank, cfg, None if head is None else [head])
        loss = step(x[None], labels[None])[0]
        want_loss, want_grads = _tape_loss_and_grad(enc, bank, x, labels, cfg, head)
        assert loss == want_loss
        assert np.array_equal(step.grads[0], want_grads)


@pytest.mark.parametrize("linear", [False, True])
def test_fused_gradients_match_finite_differences(linear):
    # criterion 4's instance sizes and bound, on the fused step
    rng = np.random.default_rng(204)
    worst = 0.0
    for tau in (1.0, 0.01):
        for _ in range(20):
            enc = Encoder.init(4, 5, 3, rng)
            bank = random_bank(rng, 6, 3)
            head = LinearHead.init(6, 3, rng) if linear else None
            x = rng.standard_normal((3, 4))
            labels = rng.integers(0, 6, size=3)
            step = FusedStep([enc], bank, L.LossConfig(tau=tau), None if head is None else [head])
            step(x[None], labels[None])
            grads = step.grads[0].copy()

            def f(flat):
                step.params[0][...] = flat
                return step(x[None], labels[None])[0]

            fd = central_diff(f, step.params[0].copy(), step=1e-5)
            worst = max(worst, max_rel_err(grads, fd))
    assert worst < 1e-4


def _tape_train(enc, bank, data, cfg, head=None):
    """The training loop rebuilt on the Tape: per-step loss, final params."""
    params_t = enc.parameters() + ([head.weights] if head is not None else [])
    params = np.concatenate([p.data.ravel() for p in params_t])
    opt = AdamWState.init(params.size)
    rng = np.random.default_rng([cfg.seed, 2])
    losses = []
    for t in range(cfg.steps):
        batch = rng.integers(0, data.features.shape[0], size=cfg.batch_size)
        loss, grads = _tape_loss_and_grad(enc, bank, data.features[batch],
                                          data.labels[batch], cfg.loss, head)
        losses.append(loss)
        params = adamw_step(params.copy(), grads, opt, cosine_lr(t, cfg.steps, cfg.base_lr),
                            cfg.weight_decay)
        offset = 0
        for p in params_t:
            p.data = params[offset:offset + p.data.size].reshape(p.shape).copy()
            offset += p.data.size
    return np.array(losses), params


@pytest.mark.parametrize("head_mode", ["metric", "linear"])
def test_train_equals_tape_replay(head_mode):
    def setup():
        rng = np.random.default_rng(31)
        bank = random_bank(rng, 5, 4)
        enc = Encoder.init(6, 8, 4, rng)
        head = LinearHead.init(5, 4, rng) if head_mode == "linear" else None
        data = TrainSet(rng.standard_normal((40, 6)), rng.integers(0, 5, size=40))
        return enc, bank, head, data

    cfg = TrainerConfig(steps=20, batch_size=8, seed=3, head=head_mode, ensemble_mode="none")
    enc, bank, head, data = setup()
    result = train(enc, bank, data, cfg, head=head)
    oracle_enc, oracle_bank, oracle_head, oracle_data = setup()
    want_losses, want_params = _tape_train(oracle_enc, oracle_bank, oracle_data, cfg, oracle_head)
    assert np.array_equal(result.loss_curve, want_losses)
    assert np.array_equal(result.final_params, want_params)
    # the model tensors hold the final parameters after the run
    tensors = enc.parameters() + ([head.weights] if head is not None else [])
    assert np.array_equal(np.concatenate([p.data.ravel() for p in tensors]), want_params)


def _toy():
    rng = np.random.default_rng(5)
    bank = random_bank(rng, 3, 4)
    enc = Encoder.init(4, 5, 4, rng)
    data = TrainSet(rng.standard_normal((12, 4)), rng.integers(0, 3, size=12))
    return enc, bank, data


def test_nan_features_raise_naming_the_step():
    enc, bank, data = _toy()
    data.features[7, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"step 0: .*row 7"):
        train(enc, bank, data, TrainerConfig(steps=3, batch_size=4))


def test_overflowing_preactivation_raises_naming_the_step():
    # one AdamW step at this rate moves every weight to about 1e308,
    # so the next x @ w1 overflows; tanh would hide the inf from the loss
    enc, bank, data = _toy()
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match=r"step 1: .*pre-activation"):
        train(enc, bank, data, TrainerConfig(steps=3, batch_size=4, base_lr=1e308,
                                             weight_decay=0.0))
