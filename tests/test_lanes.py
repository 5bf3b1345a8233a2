"""Lane-batched training: every lane of one `train` call equals its own
single run bit for bit, and `run_ablation` equals the sweep rebuilt from
one sequential `train` per variant and seed."""

from dataclasses import replace

import numpy as np
import pytest

from oodtune import databench as db
from oodtune import losses as L
from oodtune import trainer as tr
from oodtune.evalcli import ABLATION_GRID, evaluate, run_ablation
from oodtune.model import Encoder, LinearHead
from oodtune.tensor import NonFiniteError
from oodtune.trainer import TrainerConfig, TrainSet, train

from helpers import random_bank

SIZES = [30, 47, 12]  # train rows per lane: every lane draws from its own set


def _bank():
    return random_bank(np.random.default_rng(40), 5, 4)


def _lane(i, bank, linear, skip, d_in=6, hidden=8):
    """Initial encoder, head and training set of lane i, rebuilt identically
    on every call."""
    rng = np.random.default_rng([41, i])
    enc = Encoder.init(d_in, hidden, bank.dim, rng)
    enc.skip_nonlinearity = skip
    head = LinearHead.init(bank.num_classes, bank.dim, rng) if linear else None
    n = SIZES[i]
    features = rng.standard_normal((n, d_in))
    if i == 1:
        features = features.astype(np.float32)  # gathered as float32, cast per batch
    return enc, head, TrainSet(features, rng.integers(0, bank.num_classes, size=n))


def _tensors(enc, head):
    return enc.parameters() + ([head.weights] if head is not None else [])


@pytest.mark.parametrize("lanes", [1, 3])
@pytest.mark.parametrize("ensemble", ["bma", "ema", "avg", "none"])
@pytest.mark.parametrize("linear,skip", [(False, False), (True, False), (False, True)])
def test_every_lane_equals_its_sequential_run(lanes, ensemble, linear, skip):
    bank = _bank()
    base = TrainerConfig(steps=12, batch_size=5, ensemble_mode=ensemble, ema_decay=0.9,
                         bma_every=2, head="linear" if linear else "metric")
    cfgs = [replace(base, seed=10 + i) for i in range(lanes)]
    built = [_lane(i, bank, linear, skip) for i in range(lanes)]
    heads = [h for _, h, _ in built] if linear else None
    got = train([e for e, _, _ in built], bank, [d for _, _, d in built], cfgs, head=heads,
                keep_trajectory=True)
    assert isinstance(got, list) and len(got) == lanes
    for i, (result, cfg, (enc, head, _)) in enumerate(zip(got, cfgs, built)):
        want_enc, want_head, data = _lane(i, bank, linear, skip)
        want = train(want_enc, bank, TrainSet(np.asarray(data.features, dtype=np.float64),
                                              data.labels),
                     cfg, head=want_head, keep_trajectory=True)
        assert result.config == cfg
        assert np.array_equal(result.loss_curve, want.loss_curve)
        assert np.array_equal(result.final_params, want.final_params)
        assert np.array_equal(result.ensemble_params, want.ensemble_params)
        assert len(result.trajectory) == len(want.trajectory) == cfg.steps + 1
        assert all(np.array_equal(a, b) for a, b in zip(result.trajectory, want.trajectory))
        # each lane's model tensors hold that lane's final parameters
        for a, b in zip(_tensors(enc, head), _tensors(want_enc, want_head)):
            assert np.array_equal(a.data, b.data)


def test_without_ensemble_the_run_ends_at_the_bma_runs_final_params():
    bank = _bank()
    runs = {}
    for mode in ("bma", "none"):
        enc, _, data = _lane(0, bank, False, False)
        runs[mode] = train(enc, bank, data, TrainerConfig(steps=15, batch_size=6,
                                                           ensemble_mode=mode))
    assert np.array_equal(runs["none"].final_params, runs["bma"].final_params)
    assert np.array_equal(runs["none"].ensemble_params, runs["bma"].final_params)
    assert not np.array_equal(runs["bma"].ensemble_params, runs["bma"].final_params)


def _three_lanes(bank):
    built = [_lane(i, bank, False, False) for i in range(3)]
    return [e for e, _, _ in built], [d for _, _, d in built]


def test_lane_with_nan_features_is_named():
    bank = _bank()
    encoders, data = _three_lanes(bank)
    data[1].features[7, 2] = np.nan
    cfgs = [TrainerConfig(steps=3, batch_size=4, seed=i) for i in range(3)]
    with pytest.raises(NonFiniteError, match=r"step 0: lane 1: .*row 7"):
        train(encoders, bank, data, cfgs)


def test_lane_with_overflowing_preactivation_is_named():
    bank = _bank()
    encoders, data = _three_lanes(bank)
    # six terms of 1e308 each: every pre-activation of lane 2 overflows
    data[2] = TrainSet(np.full_like(data[2].features, 1e308), data[2].labels)
    encoders[2].w1.data = np.ones_like(encoders[2].w1.data)
    cfgs = [TrainerConfig(steps=3, batch_size=4, seed=i) for i in range(3)]
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match=r"step 0: lane 2: .*pre-activation"):
        train(encoders, bank, data, cfgs)


def test_lane_with_non_finite_loss_is_named():
    # an infinite class vector gives inf - inf logits, while the encoder stays finite
    bank = _bank()
    built = [_lane(i, bank, True, False) for i in range(3)]
    built[1][1].weights.data[0, 0] = np.inf
    cfgs = [TrainerConfig(steps=3, batch_size=4, seed=i, head="linear") for i in range(3)]
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteError, match=r"step 0: lane 1: non-finite loss"):
        train([e for e, _, _ in built], bank, [d for _, _, d in built], cfgs,
              head=[h for _, h, _ in built])


@pytest.mark.parametrize("change,field", [
    ({"steps": 4}, "steps"),
    ({"base_lr": 1e-2}, "base_lr"),
    ({"ensemble_mode": "none"}, "ensemble_mode"),
    ({"loss": L.LossConfig(margin_mode="none")}, "loss.margin_mode"),
    ({"loss": L.LossConfig(tau=0.1)}, "loss.tau"),
])
def test_lane_configs_may_differ_only_in_seed(change, field):
    bank = _bank()
    encoders, data = _three_lanes(bank)
    cfgs = [TrainerConfig(steps=3, batch_size=4, seed=i) for i in range(3)]
    cfgs[2] = replace(cfgs[2], **change)
    with pytest.raises(ValueError, match=rf"lane 2: config field {field} "):
        train(encoders, bank, data, cfgs)


def test_lanes_must_share_model_shapes_and_list_lengths():
    bank = _bank()
    cfgs = [TrainerConfig(steps=3, batch_size=4, seed=i) for i in range(3)]
    encoders, data = _three_lanes(bank)
    encoders[1] = _lane(1, bank, False, False, hidden=9)[0]
    with pytest.raises(ValueError, match="lane 1: encoder shapes"):
        train(encoders, bank, data, cfgs)
    encoders, data = _three_lanes(bank)
    encoders[2].skip_nonlinearity = True
    with pytest.raises(ValueError, match="lane 2: skip_nonlinearity"):
        train(encoders, bank, data, cfgs)
    encoders, data = _three_lanes(bank)
    with pytest.raises(ValueError, match="equal, non-empty lists"):
        train(encoders, bank, data[:2], cfgs)
    with pytest.raises(ValueError, match="equal, non-empty lists"):
        train([], bank, [], [])


def _sequential_sweep(archive, seeds, steps, batch, hidden):
    """run_ablation rebuilt with one train call per variant and seed."""
    m = archive.num_domains
    out = {}
    for margin, ensemble in ABLATION_GRID:
        rows = []
        for seed in seeds:
            spec = db.BenchmarkSpec(num_classes=archive.bank.num_classes, num_domains=m,
                                    embed_dim=archive.bank.dim, input_dim=archive.input_dim,
                                    test_domain=m - 1, seed=seed)
            splits = db.split(archive, spec)
            enc = Encoder.init(archive.input_dim, hidden, archive.bank.dim,
                               np.random.default_rng([seed, 0]))
            cfg = TrainerConfig(steps=steps, batch_size=batch, seed=seed,
                                loss=L.LossConfig(margin_mode=margin), ensemble_mode=ensemble)
            result = train(enc, archive.bank,
                           TrainSet(splits.train.features.astype(np.float64),
                                    splits.train.labels), cfg)
            enc.set_flat(result.ensemble_params)
            rep = evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
            rows.append((rep.acc_base, rep.acc_new, rep.acc_h))
        arr = np.array(rows)
        out[f"{margin}+{ensemble}"] = {"acc_base": float(arr[:, 0].mean()),
                                       "acc_new": float(arr[:, 1].mean()),
                                       "acc_h": float(arr[:, 2].mean())}
    return out


@pytest.mark.parametrize("archive_seed", [0, 1])
def test_run_ablation_equals_the_sequential_sweep(archive_seed):
    archive = db.generate(db.BenchmarkSpec(samples_per_class_per_domain=10, seed=archive_seed))
    seeds = [3, 4]
    got = run_ablation(archive, seeds, steps=20, batch=8, hidden=16)
    assert got == _sequential_sweep(archive, seeds, steps=20, batch=8, hidden=16)
    assert list(got) == [f"{m}+{e}" for m, e in ABLATION_GRID]


def test_run_ablation_trains_each_margin_variant_once(monkeypatch):
    archive = db.generate(db.BenchmarkSpec(samples_per_class_per_domain=5))
    calls = []
    real = tr.train

    def counted(encoder, bank, dataset, cfg, **kwargs):
        calls.append(len(encoder))
        return real(encoder, bank, dataset, cfg, **kwargs)

    monkeypatch.setattr(tr, "train", counted)
    run_ablation(archive, [0, 1, 2], steps=3, batch=4, hidden=8)
    assert calls == [3, 3]


def test_run_ablation_rejects_an_empty_seed_list():
    archive = db.generate(db.BenchmarkSpec(samples_per_class_per_domain=5))
    with pytest.raises(ValueError, match="at least one seed"):
        run_ablation(archive, [], steps=3)
