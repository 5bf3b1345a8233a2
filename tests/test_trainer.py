import math

import numpy as np
import pytest

from oodtune import tensor as T
from oodtune import trainer as tr
from oodtune.ensemble import temporal_ensemble
from oodtune.losses import LossConfig, metric_softmax_loss
from oodtune.model import Encoder, embed, similarities
from oodtune.tensor import Tensor
from oodtune.trainer import (
    AdamWState,
    TrainSet,
    TrainerConfig,
    adamw_step,
    cosine_lr,
    train,
)

from helpers import random_bank, random_head


def _toy_task(rng, num_classes=3, dim=4, per_class=30, sigma=0.05):
    bank = random_bank(rng, num_classes, dim)
    feats = []
    labels = []
    for c in range(num_classes):
        feats.append(bank.embeddings[c] + sigma * rng.standard_normal((per_class, dim)))
        labels.extend([c] * per_class)
    return bank, TrainSet(np.concatenate(feats), np.asarray(labels))


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 0.5) == 0.5
    assert abs(cosine_lr(50, 100, 0.5) - 0.25) < 1e-15
    expected = 1e-3 * 0.5 * (1.0 + math.cos(math.pi * 4999 / 5000))
    assert abs(cosine_lr(4999, 5000, 1e-3) - expected) < 1e-18
    with pytest.raises(ValueError):
        cosine_lr(5000, 5000, 1e-3)


def test_adamw_zero_grads_no_decay():
    params = np.array([1.0, -2.0])
    state = AdamWState.init(2)
    out = adamw_step(params.copy(), np.zeros(2), state, lr=0.01, weight_decay=0.0)
    np.testing.assert_array_equal(out, params)


def test_adamw_updates_in_place_with_unchanged_arithmetic():
    rng = np.random.default_rng(12)
    params = rng.standard_normal(50)
    state = AdamWState.init(50)
    m, v = state.m, state.v
    ref, ref_m, ref_v = params.copy(), np.zeros(50), np.zeros(50)
    for t in range(1, 6):
        grads = rng.standard_normal(50)
        out = adamw_step(params, grads, state, lr=0.01, weight_decay=0.1)
        assert out is params and state.m is m and state.v is v
        # the out-of-place expression the update must reproduce bit for bit
        ref_m = 0.9 * ref_m + (1.0 - 0.9) * grads
        ref_v = 0.999 * ref_v + (1.0 - 0.999) * grads ** 2
        m_hat = ref_m / (1.0 - 0.9 ** t)
        v_hat = ref_v / (1.0 - 0.999 ** t)
        ref = ref - 0.01 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.1 * ref)
        assert np.array_equal(params, ref)
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


def test_adamw_decoupled_decay_closed_form():
    params = np.array([1.0, -2.0])
    state = AdamWState.init(2)
    for step in range(1, 4):
        params = adamw_step(params, np.zeros(2), state, lr=0.01, weight_decay=0.1)
        expected = np.array([1.0, -2.0]) * (1.0 - 0.001) ** step
        np.testing.assert_allclose(params, expected, rtol=1e-14)


def test_adamw_scalar_recurrence_oracle():
    lr, wd = 0.1, 0.0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta = 0.5
    m = v = 0.0
    params = np.array([0.5])
    state = AdamWState.init(1)
    for t in range(1, 4):
        m = beta1 * m + (1 - beta1) * 1.0
        v = beta2 * v + (1 - beta2) * 1.0
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta)
        params = adamw_step(params, np.ones(1), state, lr, wd)
        assert abs(params[0] - theta) < 1e-12


def test_adamw_shape_mismatch():
    with pytest.raises(ValueError):
        adamw_step(np.zeros(2), np.zeros(3), AdamWState.init(2), 0.1, 0.0)


def test_train_single_step_bma_is_midpoint():
    rng = np.random.default_rng(0)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    theta0 = enc.get_flat()
    cfg = TrainerConfig(steps=1, batch_size=4, seed=1)
    result = train(enc, bank, data, cfg)
    np.testing.assert_allclose(
        result.ensemble_params, (theta0 + result.final_params) / 2.0, rtol=1e-12
    )


def test_train_zero_lr_is_noop():
    rng = np.random.default_rng(1)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    theta0 = enc.get_flat()
    cfg = TrainerConfig(steps=20, batch_size=4, base_lr=0.0, seed=2)
    def full_loss():
        sims = similarities(bank, embed(enc, Tensor(data.features)))
        return float(metric_softmax_loss(sims, data.labels, cfg.loss.tau).data)

    initial = full_loss()
    result = train(enc, bank, data, cfg)
    np.testing.assert_array_equal(result.final_params, theta0)
    np.testing.assert_allclose(result.ensemble_params, theta0, rtol=1e-12)
    assert full_loss() == initial  # parameters never moved


def test_train_reduces_loss_on_separable_task():
    rng = np.random.default_rng(7)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 16, 4, rng)
    cfg = TrainerConfig(steps=200, batch_size=16, base_lr=3e-3, seed=7)
    result = train(enc, bank, data, cfg)
    assert result.loss_curve[-1] < 0.2 * result.loss_curve[0]


def test_train_is_deterministic():
    curves = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        bank, data = _toy_task(rng)
        enc = Encoder.init(4, 5, 4, rng)
        cfg = TrainerConfig(steps=30, batch_size=8, seed=4)
        result = train(enc, bank, data, cfg)
        curves.append((result.loss_curve.copy(), result.final_params.copy()))
    np.testing.assert_array_equal(curves[0][0], curves[1][0])
    np.testing.assert_array_equal(curves[0][1], curves[1][1])


def test_train_keeps_bank_frozen():
    rng = np.random.default_rng(4)
    bank, data = _toy_task(rng)
    before = bank.embeddings.copy()
    enc = Encoder.init(4, 5, 4, rng)
    train(enc, bank, data, TrainerConfig(steps=10, batch_size=4, seed=5))
    np.testing.assert_array_equal(bank.embeddings, before)


def test_train_loss_curve_finite():
    rng = np.random.default_rng(5)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    result = train(enc, bank, data, TrainerConfig(steps=50, batch_size=8, seed=6))
    assert np.all(np.isfinite(result.loss_curve))
    assert result.loss_curve.shape == (50,)


@pytest.mark.parametrize("mode,every", [("bma", 1), ("bma", 3), ("avg", 1), ("avg", 3),
                                        ("ema", 1), ("none", 1)])
@pytest.mark.parametrize("ranges", [1, 2])
def test_train_ensemble_matches_trajectory_oracle(monkeypatch, mode, every, ranges):
    rng = np.random.default_rng(6)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    cfg = TrainerConfig(steps=25, batch_size=8, seed=7, beta=0.5, ensemble_mode=mode,
                        bma_every=every, ema_decay=0.9)
    if ranges == 2:
        monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    assert len(tr.FusedStep([enc], bank, cfg.loss, cfg.batch_size).ranges) == ranges
    result = train(enc, bank, data, cfg, keep_trajectory=True)
    if mode in ("bma", "avg"):
        # theta_0 and every `every`-th snapshot, weighted as the config says
        oracle = temporal_ensemble(result.trajectory[::every], 0.5 if mode == "bma" else 1.0)
        rel = np.abs(result.ensemble_params - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert rel.max() < 1e-10
    elif mode == "ema":
        oracle = result.trajectory[0]
        for theta in result.trajectory[1:]:
            oracle = 0.9 * oracle + (1.0 - 0.9) * theta
        np.testing.assert_array_equal(result.ensemble_params, oracle)
    else:
        np.testing.assert_array_equal(result.ensemble_params, result.final_params)


def test_train_no_margin_no_ensemble_degenerates_to_metric_softmax():
    # recompute each step's loss with metric_softmax_loss on a replayed
    # batch stream: structurally the same training signal
    rng = np.random.default_rng(8)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    theta0 = enc.get_flat()
    cfg = TrainerConfig(
        steps=15, batch_size=6, seed=9,
        loss=LossConfig(lam=0.0), ensemble_mode="none",
    )
    result = train(enc, bank, data, cfg, keep_trajectory=True)
    np.testing.assert_array_equal(result.ensemble_params, result.final_params)

    batch_rng = np.random.default_rng([cfg.seed, 2])
    enc.set_flat(theta0)
    for t in range(cfg.steps):
        batch = batch_rng.integers(0, data.features.shape[0], size=cfg.batch_size)
        enc.set_flat(result.trajectory[t])
        sims = similarities(bank, embed(enc, Tensor(data.features[batch])))
        expected = float(metric_softmax_loss(sims, data.labels[batch], cfg.loss.tau).data)
        assert abs(result.loss_curve[t] - expected) < 1e-12


def test_train_rejects_bad_data():
    rng = np.random.default_rng(9)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    with pytest.raises(ValueError):
        train(enc, bank, TrainSet(np.zeros((0, 4)), np.zeros(0, dtype=int)),
              TrainerConfig(steps=1, seed=0))
    bad = TrainSet(data.features, np.full_like(data.labels, bank.num_classes))
    with pytest.raises(ValueError):
        train(enc, bank, bad, TrainerConfig(steps=1, seed=0))
    negative = TrainSet(data.features, np.full_like(data.labels, -1))
    with pytest.raises(ValueError, match="label -1"):
        train(enc, bank, negative, TrainerConfig(steps=1, seed=0))
    with pytest.raises(ValueError, match="features"):
        train(enc, bank, TrainSet(data.features[:, :3], data.labels),
              TrainerConfig(steps=1, seed=0))
    n = data.labels.size
    with pytest.raises(T.ShapeError, match=rf"\({n - 1},\) labels for {n} feature rows"):
        train(enc, bank, TrainSet(data.features, data.labels[1:]), TrainerConfig(steps=1, seed=0))
    with pytest.raises(T.ShapeError, match="encoder output dim 3 vs bank dim 4"):
        train(Encoder.init(4, 5, 3, rng), bank, data, TrainerConfig(steps=1, seed=0))
    wide = random_head(bank.num_classes + 1, 4, rng)
    with pytest.raises(T.ShapeError, match=f"linear head is {bank.num_classes + 1}x4, expected "
                                           f"{bank.num_classes}x4"):
        train(enc, bank, data, TrainerConfig(steps=1, seed=0, head="linear"), head=wide)


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(steps=0)
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainerConfig(ensemble_mode="bogus")
    with pytest.raises(ValueError):
        TrainerConfig(head="bogus")
    for field, value in (("base_lr", -1e-3), ("weight_decay", -0.1), ("bma_every", 0)):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            TrainerConfig(**{field: value})
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("beta", "base_lr", "weight_decay", "ema_decay"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TrainerConfig(**{field: bad})
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"beta must be > 0, got {beta}"):
            TrainerConfig(beta=beta)
    for decay in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError, match=rf"ema_decay must lie in \(0, 1\), got {decay}"):
            TrainerConfig(ema_decay=decay)
    assert TrainerConfig(beta=2.0, ema_decay=0.5).beta == 2.0
    with pytest.raises(ValueError, match=r"base_lr \* weight_decay must be < 2, got 2.0"):
        TrainerConfig(base_lr=2.0, weight_decay=1.0)
    assert TrainerConfig(base_lr=1.999, weight_decay=1.0).base_lr == 1.999
    assert TrainerConfig(base_lr=1e308, weight_decay=0.0).base_lr == 1e308


@pytest.mark.parametrize("batch", [2, 36, 256])
def test_trainer_config_rejects_a_batch_whose_summed_logits_overflow(batch):
    # the tau at which B (1 + lambda * 2) / tau reaches half float64's max;
    # LossConfig's own edge, one row's, lies at half of it from B = 2 on
    edge = batch * (1.0 + 0.3 * 2.0) / (np.finfo(float).max / 2)
    loss = LossConfig(tau=edge * 1.01)
    assert loss.logit_bound == 1.6 / loss.tau
    assert TrainerConfig(batch_size=batch, loss=loss).loss is loss
    with pytest.raises(ValueError, match=rf"^tau \S+ and lambda 0.3 give a loss whose sum over "
                                         rf"a batch of {batch} rows overflows float64$"):
        TrainerConfig(batch_size=batch, loss=LossConfig(tau=edge * 0.99))
    # the losses beyond float32 that train reports when storing the run, not here
    for loss in (LossConfig(tau=1e-300), LossConfig(lam=1e300),
                 LossConfig(margin_mode="fixed", fixed_margin=1e300)):
        for size in (8, 36):
            TrainerConfig(batch_size=size, loss=loss)


@pytest.mark.parametrize("mode", ["bma", "avg"])
def test_trainer_config_rejects_an_ensemble_that_would_get_no_update(mode):
    with pytest.raises(ValueError, match=f"bma_every 4 exceeds steps 3: the {mode} ensemble"):
        TrainerConfig(steps=3, bma_every=4, ensemble_mode=mode)
    assert TrainerConfig(steps=3, bma_every=3, ensemble_mode=mode).bma_every == 3


@pytest.mark.parametrize("mode", ["ema", "none"])
def test_ema_and_no_ensemble_ignore_bma_every(mode):
    rng = np.random.default_rng(12)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    result = train(enc, bank, data, TrainerConfig(steps=3, batch_size=4, bma_every=4,
                                                  ensemble_mode=mode))
    assert result.loss_curve.shape == (3,)


def test_train_rejects_a_head_the_config_mode_does_not_match():
    rng = np.random.default_rng(13)
    bank, data = _toy_task(rng)
    enc = Encoder.init(4, 5, 4, rng)
    head = random_head(bank.num_classes, 4, rng)
    with pytest.raises(ValueError, match="metric head mode takes no LinearHead"):
        train(enc, bank, data, TrainerConfig(steps=1), head=head)
    with pytest.raises(ValueError, match="metric head mode takes no LinearHead"):
        train([enc], bank, [data], [TrainerConfig(steps=1)], head=[head])
    with pytest.raises(ValueError, match="linear head mode requires a LinearHead"):
        train(enc, bank, data, TrainerConfig(steps=1, head="linear"))
    with pytest.raises(ValueError, match="linear head mode requires a LinearHead"):
        train([enc, enc], bank, [data, data],
              [TrainerConfig(steps=1, head="linear", seed=i) for i in range(2)],
              head=[head, None])


def test_batches_drawn_in_chunks_equal_a_replay_drawing_one_step_at_a_time(monkeypatch):
    rng = np.random.default_rng(5)
    bank, data = _toy_task(rng)
    other = TrainSet(data.features[::-1].copy(), data.labels[::-1].copy())
    steps = 2 * tr.BATCH_DRAW_STEPS + 37  # two whole chunks and a part
    cfgs = [TrainerConfig(steps=steps, batch_size=7, seed=seed) for seed in (4, 9)]
    init = Encoder.init(4, 5, 4, rng).get_flat()
    seen = []

    class Recording(tr.FusedStep):
        def __call__(self, xs, ys, crew, update=None):
            seen.append(xs.copy())
            return super().__call__(xs, ys, crew, update)

    def run():
        encoders = [Encoder.init(4, 5, 4, rng) for _ in cfgs]
        for enc in encoders:
            enc.set_flat(init)
        return train(encoders, bank, [data, other], cfgs)

    monkeypatch.setattr(tr, "FusedStep", Recording)
    chunked = run()
    batches = np.stack(seen)
    for lane, (cfg, dataset) in enumerate(zip(cfgs, [data, other])):
        replay = np.random.default_rng([cfg.seed, 2])
        for t in range(steps):
            rows = replay.integers(0, dataset.labels.size, size=cfg.batch_size)
            assert np.array_equal(batches[t, lane], dataset.features[rows]), (lane, t)
    monkeypatch.setattr(tr, "BATCH_DRAW_STEPS", 1)
    for got, want in zip(chunked, run()):
        np.testing.assert_array_equal(got.loss_curve, want.loss_curve)
        np.testing.assert_array_equal(got.final_params, want.final_params)
        np.testing.assert_array_equal(got.ensemble_params, want.ensemble_params)
