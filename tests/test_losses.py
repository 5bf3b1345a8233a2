import math

import mpmath
import numpy as np
import pytest

from oodtune import tensor as T
from oodtune.losses import (
    LabelError,
    LossConfig,
    metric_softmax_loss,
    mms_loss,
)
from oodtune.model import ClassBank, Encoder, embed, similarities
from oodtune.tensor import ShapeError, Tensor

from helpers import central_diff, max_rel_err, random_bank, tape_grad


def _random_sims(rng, batch, classes):
    return Tensor(rng.uniform(-1.0, 1.0, size=(batch, classes)))


def test_metric_softmax_single_class_is_zero():
    loss = metric_softmax_loss(Tensor([[0.7]]), [0], tau=0.01)
    assert float(loss.data) == 0.0


def test_metric_softmax_hand_value():
    loss = metric_softmax_loss(Tensor([[1.0, 0.0]]), [0], tau=1.0)
    with mpmath.workdps(50):
        expected = float(mpmath.log(1 + mpmath.e ** -1))
    assert abs(float(loss.data) - expected) < 1e-12


def test_metric_softmax_uniform_row():
    for c in (2, 5, 11):
        sims = Tensor(np.full((1, c), 0.37))
        loss = metric_softmax_loss(sims, [0], tau=0.5)
        assert abs(float(loss.data) - math.log(c)) < 1e-12


def test_metric_softmax_label_out_of_range():
    with pytest.raises(LabelError, match="3"):
        metric_softmax_loss(Tensor(np.zeros((1, 3))), [3], tau=1.0)


def test_mms_lambda_zero_equals_metric_softmax():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(2, 9))
        b = int(rng.integers(1, 6))
        bank = random_bank(rng, c, 6)
        sims = _random_sims(rng, b, c)
        labels = rng.integers(0, c, size=b)
        cfg = LossConfig(tau=0.3, lam=0.0)
        a = float(mms_loss(sims, labels, bank, cfg).data)
        m = float(metric_softmax_loss(sims, labels, cfg.tau).data)
        assert abs(a - m) < 1e-12


def test_mms_hand_value_two_classes():
    bank = ClassBank(np.eye(2), ["a", "b"])
    sims = Tensor([[1.0, 0.0]])  # image embedding equals class 0
    cfg = LossConfig(tau=1.0, lam=1.0)
    loss = float(mms_loss(sims, [0], bank, cfg).data)
    # margin D[0][1] = 1, so both logits are 1: -log(e / (e + e)) = ln 2
    assert abs(loss - math.log(2)) < 1e-12


def test_mms_dominates_metric_softmax():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c = int(rng.integers(2, 8))
        bank = random_bank(rng, c, 5)
        sims = _random_sims(rng, 4, c)
        labels = rng.integers(0, c, size=4)
        cfg = LossConfig(tau=0.1, lam=0.5)
        a = float(mms_loss(sims, labels, bank, cfg).data)
        m = float(metric_softmax_loss(sims, labels, cfg.tau).data)
        assert a >= m - 1e-12
        assert a >= -1e-12


def test_mms_monotone_in_lambda():
    rng = np.random.default_rng(2)
    lambdas = [0.0, 0.1, 0.3, 1.0]
    for _ in range(50):
        c = int(rng.integers(2, 8))
        bank = random_bank(rng, c, 5)
        sims = _random_sims(rng, 3, c)
        labels = rng.integers(0, c, size=3)
        values = [
            float(mms_loss(sims, labels, bank, LossConfig(tau=0.2, lam=lam)).data)
            for lam in lambdas
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_mms_margin_locality():
    # all class embeddings identical: D == 0, so any lambda is inert
    row = np.ones(4) / 2.0
    bank = ClassBank(np.tile(row, (3, 1)), ["a", "b", "c"])
    rng = np.random.default_rng(3)
    sims = _random_sims(rng, 5, 3)
    labels = rng.integers(0, 3, size=5)
    for lam in (0.0, 0.3, 2.0):
        a = float(mms_loss(sims, labels, bank, LossConfig(tau=0.5, lam=lam)).data)
        m = float(metric_softmax_loss(sims, labels, 0.5).data)
        assert abs(a - m) < 1e-12


def test_mms_temperature_consistency():
    # the logit is (S + lambda*D)/tau: scaling S, lambda and tau by k cancels
    rng = np.random.default_rng(4)
    bank = random_bank(rng, 5, 6)
    sims = _random_sims(rng, 4, 5)
    labels = rng.integers(0, 5, size=4)
    base = float(mms_loss(sims, labels, bank, LossConfig(tau=0.2, lam=0.3)).data)
    for k in (0.5, 2.0, 10.0):
        scaled = float(
            mms_loss(
                Tensor(sims.data * k), labels, bank,
                LossConfig(tau=0.2 * k, lam=0.3 * k),
            ).data
        )
        assert abs(scaled - base) < 1e-9


def test_mms_fixed_margin_variant():
    rng = np.random.default_rng(5)
    bank = random_bank(rng, 4, 5)
    sims = _random_sims(rng, 3, 4)
    labels = rng.integers(0, 4, size=3)
    cfg = LossConfig(tau=0.5, lam=1.0, margin_mode="fixed", fixed_margin=0.7)
    got = float(mms_loss(sims, labels, bank, cfg).data)
    # oracle: add 0.7 to every negative logit before softmax
    logits = sims.data.copy()
    margins = np.full_like(logits, 0.7)
    margins[np.arange(3), labels] = 0.0
    z = (logits + margins) / 0.5
    ls = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - z.max(axis=1, keepdims=True)
    expected = float(-ls[np.arange(3), labels].mean())
    assert abs(got - expected) < 1e-12


def test_mms_none_margin_mode():
    rng = np.random.default_rng(6)
    bank = random_bank(rng, 4, 5)
    sims = _random_sims(rng, 3, 4)
    labels = rng.integers(0, 4, size=3)
    cfg = LossConfig(tau=0.5, lam=1.0, margin_mode="none")
    a = float(mms_loss(sims, labels, bank, cfg).data)
    m = float(metric_softmax_loss(sims, labels, 0.5).data)
    assert abs(a - m) < 1e-12


def test_mms_bank_size_mismatch():
    bank = random_bank(np.random.default_rng(7), 4, 5)
    with pytest.raises(ShapeError):
        mms_loss(Tensor(np.zeros((2, 3))), [0, 1], bank, LossConfig())


@pytest.mark.parametrize("loss", [
    lambda scores: metric_softmax_loss(scores, [0], tau=1.0),
    lambda scores: mms_loss(scores, [0], random_bank(np.random.default_rng(7), 3, 2),
                            LossConfig()),
])
def test_losses_take_only_b_x_c_scores(loss):
    with pytest.raises(ShapeError, match=r"must be B x C, got \(3,\)"):
        loss(Tensor(np.zeros(3)))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(margin_mode="bogus")
    with pytest.raises(ValueError):
        LossConfig(margin_mode="fixed", fixed_margin=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("tau", "lam", "fixed_margin"):
            with pytest.raises(ValueError, match="must be finite"):
                LossConfig(**{field: bad})


# (mode, fixed margin, the largest margin a logit can get per unit of lambda)
MARGIN_BOUNDS = [("adaptive", 0.0, 2.0), ("fixed", 5.0, 5.0), ("none", 7.0, 0.0)]


@pytest.mark.parametrize("mode, fixed, margin", MARGIN_BOUNDS)
def test_loss_config_rejects_logits_whose_differences_overflow(mode, fixed, margin):
    # the tau at which (1 + lambda * margin) / tau reaches half float64's max
    edge = (1.0 + 0.3 * margin) / (np.finfo(float).max / 2)
    LossConfig(tau=edge * 1.01, lam=0.3, margin_mode=mode, fixed_margin=fixed)
    with pytest.raises(ValueError, match=rf"^tau \S+ and lambda 0.3 give logits up to \(1 \+ "
                                         rf"lambda \* {margin}\) / tau = "):
        LossConfig(tau=edge * 0.99, lam=0.3, margin_mode=mode, fixed_margin=fixed)
    # lambda counts only with a margin, and the fixed margin only in fixed mode
    for cfg, counts in (({"tau": 1e-310}, True), ({"lam": 1e308}, mode != "none"),
                        ({"lam": 10.0, "fixed_margin": 1e308}, mode == "fixed")):
        cfg = {"margin_mode": mode, "fixed_margin": fixed, **cfg}
        if counts:
            with pytest.raises(ValueError, match="differences overflow float64"):
                LossConfig(**cfg)
        else:
            LossConfig(**cfg)


@pytest.mark.parametrize("mode, fixed, margin", MARGIN_BOUNDS)
def test_a_rows_loss_at_the_smallest_accepted_tau_is_finite_without_a_warning(mode, fixed,
                                                                              margin):
    # the bound keeps each row's log-softmax finite; a mean over many such
    # rows can still overflow
    rng = np.random.default_rng(12)
    bank = random_bank(rng, 6, 4)
    cfg = LossConfig(tau=(1.0 + 0.3 * margin) / (np.finfo(float).max / 2) * 1.01, lam=0.3,
                     margin_mode=mode, fixed_margin=fixed)
    for label, row in zip((0, 5, 2), ([[-1.0, 1, 1, 1, 1, 1]], [[1.0, 1, 1, 1, 1, -1]],
                                      [[1.0, -1, -1, -1, -1, -1]])):
        with np.errstate(over="raise", invalid="raise"):
            loss = mms_loss(Tensor(row), [label], bank, cfg)
        assert math.isfinite(float(loss.data)) and float(loss.data) > 0.0


def test_cross_entropy_trivial_values():
    loss = metric_softmax_loss(Tensor(np.zeros((1, 4))), [2], tau=1.0)
    assert abs(float(loss.data) - math.log(4)) < 1e-12

    big = np.zeros((1, 3))
    big[0, 1] = 1000.0
    loss = metric_softmax_loss(Tensor(big), [1], tau=1.0)
    assert float(loss.data) < 1e-12


def test_cross_entropy_scalar_oracle():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    got = float(metric_softmax_loss(Tensor(logits), labels, tau=1.0).data)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for b in range(5):
            denom = mpmath.fsum(mpmath.e ** mpmath.mpf(v) for v in logits[b])
            total += -mpmath.log(mpmath.e ** mpmath.mpf(logits[b, labels[b]]) / denom)
        expected = float(total / 5)
    assert abs(got - expected) < 1e-10


@pytest.mark.parametrize("tau", [1.0, 0.01])
def test_composed_mms_gradient_vs_finite_differences(tau):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        enc = Encoder.init(4, 5, 3, rng)
        bank = random_bank(rng, 6, 3)
        x = rng.standard_normal((4, 4))
        labels = rng.integers(0, 6, size=4)
        cfg = LossConfig(tau=tau)

        def build():
            sims = similarities(bank, embed(enc, Tensor(x)))
            return mms_loss(sims, labels, bank, cfg)

        grads = tape_grad(build, enc.parameters())
        flat_grad = np.concatenate([g.ravel() for g in grads])

        def f(flat):
            enc.set_flat(flat)
            sims = similarities(bank, embed(enc, Tensor(x)))
            return float(mms_loss(sims, labels, bank, cfg).data)

        flat0 = enc.get_flat()
        fd = central_diff(f, flat0)
        enc.set_flat(flat0)
        worst = max(worst, max_rel_err(flat_grad, fd))
    assert worst < 1e-4
