"""The training step split into two row blocks and two parameter ranges:
the halves depend on the shapes alone, so one and two threads give the
same bits; errors are those of the first failing half; the worker thread
sees the caller's numpy error state and never outlives `train`."""

import gc
import threading
from dataclasses import replace

import numpy as np
import pytest

from oodtune import parallel
from oodtune import trainer as tr
from oodtune.model import Encoder
from oodtune.tensor import NonFiniteError
from oodtune.trainer import FusedStep, TrainerConfig, TrainSet, train

from helpers import random_bank, random_head, recorded_crew_threads, recorded_trajectories

# trained parameters and losses of a reordered but correct step stay this
# close over a few mid-size steps: the tolerance perfbench's replica check uses
AGREE_ATOL = 1e-6


@pytest.fixture
def split_small(monkeypatch):
    """Split every step in two, whatever its size."""
    monkeypatch.setattr(tr, "SPLIT_WORK", 0)


def _threads(monkeypatch, count):
    monkeypatch.setattr(parallel, "worker_threads", lambda: count)


def _serial(step, x, labels):
    """One call of `step` on the caller alone."""
    with parallel.Crew(1) as crew:
        return step(x, labels, crew)


def _lanes(lanes, linear, dtype, d_in=6, hidden=8, classes=5, dim=4):
    bank = random_bank(np.random.default_rng(40), classes, dim)
    built = []
    for i in range(lanes):
        rng = np.random.default_rng([41, i])
        enc = Encoder.init(d_in, hidden, dim, rng)
        head = random_head(classes, dim, rng) if linear else None
        n = 23 + 7 * i
        data = TrainSet(rng.standard_normal((n, d_in)).astype(dtype),
                        rng.integers(0, classes, size=n))
        built.append((enc, head, data))
    return bank, built


def _train(lanes, linear, dtype, cfg):
    bank, built = _lanes(lanes, linear, dtype)
    cfgs = [replace(cfg, seed=10 + i) for i in range(lanes)]
    return train([e for e, _, _ in built], bank, [d for _, _, d in built], cfgs,
                 head=[h for _, h, _ in built] if linear else None)


def _runs(steps, lanes, linear, dtype, cfg):
    """Each lane's result of one `_train`, with its trajectory from the
    `steps` that `recorded_trajectories` returned."""
    results = _train(lanes, linear, dtype, cfg)
    return [(result, [snap[i] for snap in steps[-1]]) for i, result in enumerate(results)]


def _assert_same(got, want):
    for (a, a_trajectory), (b, b_trajectory) in zip(got, want, strict=True):
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        np.testing.assert_array_equal(a.ensemble_params, b.ensemble_params)
        assert len(a_trajectory) == len(b_trajectory)
        for x, y in zip(a_trajectory, b_trajectory):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ensemble,every", [("bma", 1), ("bma", 3), ("ema", 1), ("avg", 1),
                                            ("none", 1)])
def test_one_and_two_threads_train_the_same_bits(monkeypatch, split_small, lanes, linear, dtype,
                                                 ensemble, every):
    cfg = TrainerConfig(steps=10, batch_size=7, ensemble_mode=ensemble, ema_decay=0.9,
                        bma_every=every, head="linear" if linear else "metric")
    crews = []
    monkeypatch.setattr(parallel.Crew, "__enter__", lambda self: crews.append(self) or self)
    steps = recorded_trajectories(monkeypatch)
    _threads(monkeypatch, 1)
    serial = _runs(steps, lanes, linear, dtype, cfg)
    assert [crew.threads for crew in crews] == [1]
    assert not any(crew._threads for crew in crews)  # no worker started
    crews.clear()
    _threads(monkeypatch, 2)
    threaded = _runs(steps, lanes, linear, dtype, cfg)
    assert [crew.threads for crew in crews] == [2]
    assert [len(crew._threads) for crew in crews] == [1]  # the step ran on a worker
    _assert_same(threaded, serial)


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("split", [True, False])
def test_the_steps_crew_has_no_thread_past_its_parts(monkeypatch, linear, split):
    if split:
        monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    cfg = TrainerConfig(steps=6, batch_size=7, head="linear" if linear else "metric")
    steps = recorded_trajectories(monkeypatch)
    _threads(monkeypatch, 2)
    two = _runs(steps, 2, linear, np.float64, cfg)
    seen = recorded_crew_threads(monkeypatch)
    _threads(monkeypatch, 4)
    four = _runs(steps, 2, linear, np.float64, cfg)
    assert seen == [2 if split else 1]  # one thread per part, not per core
    _assert_same(four, two)


@pytest.mark.parametrize("cores", [1, 2])
def test_train_runs_a_desk_step_on_one_thread_and_a_split_step_on_two(monkeypatch, cores):
    _threads(monkeypatch, cores)
    seen = recorded_crew_threads(monkeypatch)
    bank = random_bank(np.random.default_rng(3), 20, 32)
    rng = np.random.default_rng(4)
    data = TrainSet(rng.standard_normal((50, 48)), rng.integers(0, 20, size=50))
    desk = Encoder.init(48, 64, 32, np.random.default_rng(5))
    train(desk, bank, data, TrainerConfig(steps=2, batch_size=36))
    assert seen == [1]
    seen.clear()
    monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    train(desk, bank, data, TrainerConfig(steps=2, batch_size=36))
    assert seen == [cores]


def test_halves_split_the_batch_rows_and_the_parameters_at_a_matrix_row(split_small):
    bank, built = _lanes(2, True, np.float64)
    encoders, heads = [e for e, _, _ in built], [h for _, h, _ in built]
    step = FusedStep(encoders, bank, tr.L.LossConfig(), 7, heads)
    assert step.blocks == [slice(0, 4), slice(4, 7)]
    p = step.params.shape[1]  # w1 6x8, b1 8, w2 8x4, b2 4, head 5x4: P = 112
    assert step.ranges == [slice(0, 56), slice(56, p)] and p == 112
    one = FusedStep(encoders, bank, tr.L.LossConfig(), 1, heads)
    assert (one.blocks, one.ranges) == ([slice(0, 1)], [slice(0, p)])


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("linear", [False, True])
def test_halves_give_the_whole_steps_losses_and_gradients(monkeypatch, lanes, linear):
    bank, built = _lanes(lanes, linear, np.float64)

    def build():
        return FusedStep([e for e, _, _ in built], bank, tr.L.LossConfig(), 9,
                         [h for _, h, _ in built] if linear else None)

    rng = np.random.default_rng(6)
    x, labels = rng.standard_normal((lanes, 9, 6)), rng.integers(0, 5, size=(lanes, 9))
    whole = build()
    assert len(whole.blocks) == len(whole.ranges) == 1
    whole_losses = _serial(whole, x, labels)
    monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    halves = build()
    assert len(halves.blocks) == len(halves.ranges) == 2
    # each row block waits until the other has started, so the two run on
    # two threads at once: one of them a worker
    both_started, ran_on, rows = threading.Barrier(2, timeout=10), set(), halves._rows

    def meeting(*args):
        ran_on.add(threading.get_ident())
        both_started.wait()
        rows(*args)

    monkeypatch.setattr(halves, "_rows", meeting)
    _threads(monkeypatch, 2)
    with parallel.Crew(len(halves.blocks)) as crew:
        assert crew.threads == 2
        halves_losses = halves(x, labels, crew)
    assert len(ran_on) == 2 and threading.get_ident() in ran_on
    np.testing.assert_allclose(halves_losses, whole_losses, rtol=1e-13, atol=0)
    np.testing.assert_allclose(halves.grads, whole.grads, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("split", [False, True])
def test_a_call_runs_its_update_once_per_range(monkeypatch, split):
    if split:
        monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    bank, built = _lanes(2, False, np.float64)
    step = FusedStep([e for e, _, _ in built], bank, tr.L.LossConfig(), 7)
    rng = np.random.default_rng(9)
    x, labels = rng.standard_normal((2, 7, 6)), rng.integers(0, 5, size=(2, 7))
    before = step.params.copy()
    _serial(step, x, labels)  # no update: the parameters stay
    np.testing.assert_array_equal(step.params, before)
    assert len(step.ranges) == (2 if split else 1)
    _threads(monkeypatch, 2)
    with parallel.Crew(len(step.blocks)) as crew:
        assert crew.threads == len(step.ranges)
        for _ in range(3):
            parts = []
            step(x, labels, crew, parts.append)
            assert sorted(parts) == list(range(len(step.ranges)))


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("split", [False, True])
def test_a_failed_call_leaves_nothing_for_the_next(monkeypatch, linear, split):
    if split:
        monkeypatch.setattr(tr, "SPLIT_WORK", 0)
    bank, built = _lanes(2, linear, np.float64)

    def build():
        return FusedStep([e for e, _, _ in built], bank, tr.L.LossConfig(), 7,
                         [h for _, h, _ in built] if linear else None)

    rng = np.random.default_rng(10)
    x, labels = rng.standard_normal((2, 7, 6)), rng.integers(0, 5, size=(2, 7))
    nan = x.copy()
    nan[1, 6, 2] = np.nan  # the last block of lane 1
    step, fresh = build(), build()
    with pytest.raises(NonFiniteError):
        _serial(step, nan, labels)
    assert _serial(step, x, labels) == _serial(fresh, x, labels)
    np.testing.assert_array_equal(step.grads, fresh.grads)


def _mid(lanes=1, batch=256):
    """The mid-size workload's shapes: C=400, d=128, d_in=256, h=256."""
    rng = np.random.default_rng(7)
    bank = random_bank(rng, 400, 128)
    encoders = [Encoder.init(256, 256, 128, np.random.default_rng([7, i])) for i in range(lanes)]
    return bank, encoders


@pytest.mark.parametrize("lanes,batch,halves", [
    (1, 36, 1),   # desk-train: C=20, d=32, d_in=48, h=64
    (5, 36, 1),   # ablate-sweep: 5 seeds of desk size
    (1, 256, 2),  # mid-train
])
def test_benchmark_shapes_get_their_halves(lanes, batch, halves):
    if halves == 1:
        bank = random_bank(np.random.default_rng(3), 20, 32)
        encoders = [Encoder.init(48, 64, 32, np.random.default_rng(i)) for i in range(lanes)]
    else:
        bank, encoders = _mid(lanes)
    step = FusedStep(encoders, bank, tr.L.LossConfig(), batch)
    assert len(step.blocks) == len(step.ranges) == halves
    if halves == 2:
        # w1 is 256 x 256 and P = 98,688: the cut is w1's row 193
        assert step.ranges[0] == slice(0, 193 * 256)


def test_mid_size_halves_agree_with_one_block(monkeypatch):
    bank, (enc,) = _mid()
    rng = np.random.default_rng(8)
    data = TrainSet(rng.standard_normal((600, 256)).astype(np.float32),
                    rng.integers(0, 400, size=600))
    cfg = TrainerConfig(steps=3, batch_size=256)
    init = enc.get_flat()

    def run():
        enc.set_flat(init)
        return train(enc, bank, data, cfg)

    _threads(monkeypatch, 2)
    halves = run()
    monkeypatch.setattr(tr, "SPLIT_WORK", float("inf"))
    whole = run()
    for got, want in ((halves.loss_curve, whole.loss_curve),
                      (halves.final_params, whole.final_params),
                      (halves.ensemble_params, whole.ensemble_params)):
        np.testing.assert_allclose(got, want, rtol=0, atol=AGREE_ATOL)


def _fail(monkeypatch, step, x, labels, threads):
    _threads(monkeypatch, threads)
    with parallel.Crew(len(step.blocks)) as crew, pytest.raises(NonFiniteError) as info:
        step(x, labels, crew)
    assert crew.threads == threads
    return str(info.value)


def test_a_failing_second_block_raises_the_serial_error(monkeypatch, split_small):
    bank, built = _lanes(3, False, np.float64)
    step = FusedStep([e for e, _, _ in built], bank, tr.L.LossConfig(), 7)
    rng = np.random.default_rng(2)
    x, labels = rng.standard_normal((3, 7, 6)), rng.integers(0, 5, size=(3, 7))
    first, second = step.blocks
    nan = x.copy()
    nan[2, second.start + 1, 3] = np.nan  # lane 2, second block
    assert _fail(monkeypatch, step, nan, labels, 1) == _fail(monkeypatch, step, nan, labels, 2) \
        == "lane 2: non-finite pre-activation x @ w1 + b1"
    both = nan.copy()
    both[1, first.start, 0] = np.inf  # lane 1, first block
    assert _fail(monkeypatch, step, both, labels, 1) == _fail(monkeypatch, step, both, labels, 2) \
        == "lane 1: non-finite pre-activation x @ w1 + b1"


def test_an_overflowing_pre_activation_names_the_step_at_every_thread_count(monkeypatch,
                                                                            split_small):
    # one AdamW step at this rate moves every weight to about 1e308
    cfg = TrainerConfig(steps=3, batch_size=7, base_lr=1e308, weight_decay=0.0)
    messages = []
    for threads in (1, 2):
        _threads(monkeypatch, threads)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            _train(3, False, np.float64, cfg)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 1: lane 0: ")


def test_the_worker_runs_under_the_callers_error_state(monkeypatch, split_small):
    # zero biases, zero first-block rows and large head weights: the first
    # block's logits are all zero, and only the second block's softmax underflows
    bank, built = _lanes(1, True, np.float64)
    enc, head, _ = built[0]
    enc.b1.data[:] = enc.b2.data[:] = 0.0
    head.weights.data *= 1e4
    step = FusedStep([enc], bank, tr.L.LossConfig(), 8, [head])
    rng = np.random.default_rng(4)
    x, labels = rng.standard_normal((1, 8, 6)), rng.integers(0, 5, size=(1, 8))
    first, _ = step.blocks
    x[:, first] = 0.0
    _serial(step, x, labels)  # ignored underflow: no error
    for threads in (1, 2):
        _threads(monkeypatch, threads)
        with parallel.Crew(len(step.blocks)) as crew, np.errstate(under="raise"), \
                pytest.raises(FloatingPointError, match="underflow"):
            step(x, labels, crew)
        assert crew.threads == threads


def test_no_thread_outlives_train(monkeypatch, split_small):
    _threads(monkeypatch, 2)
    before = threading.active_count()
    cfg = TrainerConfig(steps=4, batch_size=7)
    _train(2, False, np.float64, cfg)
    assert threading.active_count() == before
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        _train(2, False, np.float64, replace(cfg, base_lr=1e308, weight_decay=0.0))
    assert threading.active_count() == before


def test_train_frees_its_step_without_the_cycle_collector(monkeypatch, split_small):
    # each call gets train's update, which the step does not keep: a cycle
    # between them would keep every run's parameter blocks alive until a collection
    _threads(monkeypatch, 2)
    gc.collect()
    gc.disable()
    try:
        _train(2, True, np.float64, TrainerConfig(steps=3, batch_size=7, head="linear"))
        assert gc.collect() == 0
    finally:
        gc.enable()
