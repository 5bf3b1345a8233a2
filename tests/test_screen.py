"""evaluate's float32 screen of the plain metric-head argmax: each report
equals the one of the same call with the shape rule turned off, which
scores every block in float64."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oodtune import databench as db
from oodtune import scoring
from oodtune.databench import BenchmarkSpec, generate, split
from oodtune.scoring import evaluate
from oodtune.model import ClassBank, Encoder

from helpers import identity_encoder, screen_flags

C, D = 400, 32  # the smallest shape the rule screens


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _held_subset(features, num_classes):
    n = features.shape[0]
    return db.SplitSubset(features, np.arange(n), labels=np.arange(n) % num_classes,
                          domains=np.zeros(n, dtype=np.uint32))


def _aimed_at(targets):
    """Features that `identity_encoder` maps onto the unit rows `targets`,
    up to rounding: it embeds x as normalize(tanh(x))."""
    return np.arctanh(0.5 * targets)


def _screened_and_unscreened(mp, encoder, bank, subset, screens=True):
    """The flags of a screened call, after checking that its report equals
    the one of the same call with the shape rule turned off."""
    flags = screen_flags(mp)
    if screens is not True:
        mp.setattr(scoring, "_screens", screens)
    base = list(range(bank.embeddings.shape[0] // 2))
    got = evaluate(encoder, bank, subset, base).to_json()
    assert flags  # the screen ran
    with pytest.MonkeyPatch.context() as off:
        off.setattr(scoring, "_screens", lambda num_classes, dim: False)
        assert evaluate(encoder, bank, subset, base).to_json() == got
    assert len(flags) == len(scoring._row_blocks(subset.labels.size, bank.embeddings.shape[0]))
    return flags


def test_the_rule_screens_open_eval_and_mid_but_not_desk_shapes():
    assert scoring._screens(1000, 64) and scoring._screens(400, 128)
    assert not scoring._screens(20, 32) and not scoring._screens(100, 64)
    assert not scoring._screens(400, 256) and not scoring._screens(1000, 16)


def test_duplicate_bank_rows_tie_exactly_and_the_lowest_id_wins(monkeypatch):
    rng = np.random.default_rng(0)
    rows = _unit(rng.standard_normal((C, D)))
    rows[C // 2:] = rows[:C // 2]  # class c + 200 is class c
    bank = ClassBank(rows, [f"c{i}" for i in range(C)])
    first = rng.integers(0, C // 2, size=700)
    targets = rows[first + rng.integers(0, 2, size=700) * (C // 2)]
    subset = db.SplitSubset(_aimed_at(targets), np.arange(700), labels=first,
                            domains=np.zeros(700, dtype=np.uint32))
    flags = _screened_and_unscreened(monkeypatch, identity_encoder(D), bank, subset)
    assert flags == [True, True]  # each block holds a tie, so it is scored in float64
    report = evaluate(identity_encoder(D), bank, subset, list(range(C // 2)))
    assert report.acc_base == 1.0  # the lower id of each pair, never its twin


@pytest.mark.parametrize("exponent", [-17, -14, -11, -8, -6, -5])
def test_near_tied_bank_rows_give_the_float64_report(monkeypatch, exponent):
    rng = np.random.default_rng(-exponent)
    rows = _unit(rng.standard_normal((C, D)))
    rows[-50:] = _unit(rows[:50] + 10.0 ** exponent * rng.standard_normal((50, D)))
    bank = ClassBank(rows, [f"c{i}" for i in range(C)])
    # 20 blocks of 6 rows each: aimed at one of the first 50 classes or
    # between it and its near twin; near a class without a twin; and near
    # such classes but for one row, whose two best classes differ by 1e-9
    # to 1e-3, around the gap the screen flags at
    twins = rng.integers(0, 50, size=120)
    tied = _unit(rows[twins] + rng.integers(0, 2, size=(120, 1)) * rows[twins + C - 50])
    loose = _unit(rows[rng.integers(50, C - 50, size=240)] + 0.05 * rng.standard_normal((240, D)))
    for block, gap in enumerate(np.logspace(-9, -3, 20)):
        i, j = rng.choice(np.arange(50, C - 50), size=2, replace=False)
        w = rows[i] - rows[j]
        loose[120 + 6 * block] = _unit(_unit(rows[i] + rows[j]) + gap * w / (w @ w))
    features = _aimed_at(np.concatenate([tied, loose]))
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 6 * C)
    flags = _screened_and_unscreened(monkeypatch, identity_encoder(D), bank,
                                     _held_subset(features, C))
    assert len(flags) == 60 and 20 < sum(flags) < 40


def test_zero_norm_encoder_rows_give_the_float64_report(monkeypatch):
    rng = np.random.default_rng(1)
    bank = ClassBank(_unit(rng.standard_normal((C, D))), [f"c{i}" for i in range(C)])
    features = _aimed_at(_unit(rng.standard_normal((8, D))))
    features[2] = 0.0  # embeds to the zero vector: every score ties at 0
    features[5] = 1e-300 * rng.standard_normal(D)  # below NORM_EPS: v / NORM_EPS
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 2 * C)
    flags = _screened_and_unscreened(monkeypatch, identity_encoder(D), bank,
                                     _held_subset(features, C))
    assert sum(flags) >= 2  # the blocks of rows 2 and 5, in any order the threads give


def test_one_row_subsets_give_the_float64_report(monkeypatch):
    rng = np.random.default_rng(2)
    bank = ClassBank(_unit(rng.standard_normal((C, D))), [f"c{i}" for i in range(C)])
    enc = Encoder.init(48, 64, D, np.random.default_rng(3))
    for row in rng.standard_normal((5, 1, 48)):
        with pytest.MonkeyPatch.context() as mp:
            assert _screened_and_unscreened(mp, enc, bank, _held_subset(row, C)) == [False]


def test_a_forced_flag_scores_each_whole_block_in_float64(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=2, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    monkeypatch.setattr(scoring, "_screen_gap", lambda bank_t: np.inf)
    embedded = []
    inner = scoring._embed

    def recording(encoder, x, normalize):
        embedded.append(x.shape[0])
        return inner(encoder, x, normalize)

    monkeypatch.setattr(scoring, "_embed", recording)
    flags = _screened_and_unscreened(monkeypatch, enc, archive.bank, splits.test_both)
    blocks = scoring._row_blocks(splits.test_both.labels.size, spec.num_classes)
    assert len(blocks) > 1 and flags == [True] * len(blocks)
    # each block is embedded once by the screened call and once by the unscreened one
    assert sorted(embedded) == sorted(2 * [b.stop - b.start for b in blocks])


def test_float32_scores_lie_within_half_the_gap_of_the_float64_ones():
    rng = np.random.default_rng(4)
    for dim in (32, 64, 128, 256):
        bank_t = np.ascontiguousarray(_unit(rng.standard_normal((600, dim))).T)
        bank_t[:, :100] = np.abs(bank_t[:, :100])  # same-sign terms: no cancellation
        z = _unit(rng.standard_normal((300, dim)))
        z[:100] = np.abs(z[:100])
        z[100:200, ::2] *= 1e-40  # float32 subnormals after the cast
        z = _unit(z)
        err = np.abs((z.astype(np.float32) @ bank_t.astype(np.float32)) - z @ bank_t)
        assert err.max() < scoring._screen_gap(bank_t) / 2


@given(data=st.data(), num_classes=st.integers(2, 12), dim=st.integers(4, 10),
       rows=st.integers(1, 20))
def test_screened_reports_on_drawn_banks_equal_the_float64_ones(data, num_classes, dim, rows):
    raw = data.draw(hnp.arrays(np.float64, (num_classes, dim),
                               elements=st.floats(-1, 1, allow_subnormal=False)))
    norms = np.linalg.norm(raw, axis=1)
    raw[norms < 1e-3] = 1.0  # a bank row must have a norm
    bank_rows = _unit(raw)
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, num_classes - 1),
                                             st.integers(0, num_classes - 1)), max_size=4)):
        bank_rows[b] = bank_rows[a]
    bank = ClassBank(bank_rows, [f"c{i}" for i in range(num_classes)])
    picks = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=rows, max_size=rows))
    scale = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    noise = data.draw(hnp.arrays(np.float64, (rows, dim),
                                 elements=st.floats(-1, 1, allow_subnormal=False)))
    features = _aimed_at(0.9 * _unit(bank.embeddings[picks] + scale * noise + 1e-300))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 3 * num_classes)
        _screened_and_unscreened(mp, identity_encoder(dim), bank,
                                 _held_subset(features, num_classes),
                                 screens=lambda num_classes, dim: True)


def test_the_screen_scores_few_open_eval_blocks_in_float64(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    flags = screen_flags(monkeypatch)
    blocks = 0
    for cell in ("test_domain_shift", "test_open", "test_both", "train"):
        subset = getattr(splits, cell)
        evaluate(enc, archive.bank, subset, splits.base_classes)
        blocks += len(scoring._row_blocks(subset.labels.size, spec.num_classes))
    assert len(flags) == blocks == 308  # the screen sees every block
    assert sum(flags) <= 0.1 * blocks
