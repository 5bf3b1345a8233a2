import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from oodtune import databench as db
from oodtune import evalcli
from oodtune import parallel
from oodtune import scoring
from oodtune import trainer as tr
from oodtune.databench import BenchmarkSpec, generate, split
from oodtune.evalcli import RunFileError, RunSpec, UsageError, load_run, main, save_run
from oodtune.losses import LabelError
from oodtune.model import (ClassBank, Encoder, embed, flatten_params, similarities, trainables,
                           unflatten_params)
from oodtune.scoring import EvalReport, TopK, evaluate, harmonic_mean
from oodtune.tensor import NonFiniteError, ShapeError, Tensor

from helpers import (identity_encoder, linear_head_logits, random_bank, random_head,
                     recorded_crew_threads, screen_flags)


NOISELESS = BenchmarkSpec(
    num_classes=6,
    num_domains=2,
    embed_dim=16,
    input_dim=16,
    samples_per_class_per_domain=4,
    test_domain=1,
    noise_sigma=0.0,
    domain_strength=0.0,
    identity_lift=True,
    seed=3,
)


def test_harmonic_mean_identities():
    assert harmonic_mean(0.7, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert harmonic_mean(0.0, 0.9) == 0.0
    assert harmonic_mean(0.9, 0.0) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0
    assert harmonic_mean(1.0, 1.0) == 1.0


def test_harmonic_mean_reference_value():
    # 83.9 base / 74.5 new should summarize to roughly 78.9
    assert abs(harmonic_mean(0.839, 0.745) - 0.789) < 5e-4


def test_harmonic_mean_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0.01, 1.0, size=2)
        h = harmonic_mean(a, b)
        assert min(a, b) - 1e-12 <= h <= (a + b) / 2.0 + 1e-12
        assert abs(h - harmonic_mean(b, a)) < 1e-15


def test_evaluate_perfect_on_noiseless_archive():
    archive = generate(NOISELESS)
    splits = split(archive, NOISELESS)
    enc = identity_encoder(16)
    for subset in (splits.test_domain_shift, splits.test_open, splits.test_both):
        report = evaluate(enc, archive.bank, subset, splits.base_classes)
        assert report.per_domain[1] == 1.0 or report.per_domain.get(0, 1.0) == 1.0
        for acc in report.per_class.values():
            assert acc == 1.0
    both = evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
    assert both.acc_base == 1.0
    assert both.acc_new == 1.0
    assert both.acc_h == 1.0


def test_evaluate_random_encoder_near_chance():
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    chance = 1.0 / spec.num_classes
    accs = []
    for seed in range(10):
        enc = Encoder.init(spec.input_dim, 64, spec.embed_dim,
                           np.random.default_rng([seed, 0]))
        report = evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
        accs.append(report.per_domain[spec.test_domain])
    # the mean over seeds should sit near chance, not at a trained level
    assert 0.5 * chance <= np.mean(accs) <= 4.0 * chance


def test_evaluate_accuracy_invariant_to_tau():
    archive = generate(NOISELESS)
    splits = split(archive, NOISELESS)
    enc = Encoder.init(16, 8, 16, np.random.default_rng(1))
    a = evaluate(enc, archive.bank, splits.test_both, splits.base_classes, tau=0.01)
    b = evaluate(enc, archive.bank, splits.test_both, splits.base_classes, tau=1.0)
    assert a.acc_base == b.acc_base
    assert a.acc_new == b.acc_new
    assert a.per_class == b.per_class


def test_evaluate_ties_break_to_lowest_class():
    # identical bank rows give identical scores for every class
    row = np.ones(4) / 2.0
    bank = ClassBank(np.tile(row, (3, 1)), ["a", "b", "c"])
    subset = db.SplitSubset(np.eye(4)[:3], np.arange(3),
                            labels=np.array([0, 1, 2], dtype=np.uint32),
                            domains=np.zeros(3, dtype=np.uint32))
    report = evaluate(identity_encoder(4), bank, subset, [0, 1], topk=3)
    assert report.per_class[0] == 1.0  # only class 0 ever predicted
    assert report.per_class[1] == 0.0
    assert report.per_class[2] == 0.0
    for _, ranked in report.topk:
        assert [c for c, _ in ranked] == [0, 1, 2]
        assert all(abs(s - 1.0 / 3.0) < 1e-12 for _, s in ranked)


def _recorded_blocks(monkeypatch, keep=np.copy):
    """Make evaluate record every block it scores in float64, in the order
    scored, which threads may make any order: a copy of the block's first
    input row, taken by the `_embed` call before it on the same thread, and
    `keep` of the scores `_scores` writes."""
    blocks = []
    first = threading.local()
    inner_embed, inner_scores = scoring._embed, scoring._scores

    def embedding(encoder, x, normalize):
        first.row = x[0].copy()
        return inner_embed(encoder, x, normalize)

    def recording(z, weights_t, out):
        out = inner_scores(z, weights_t, out)
        blocks.append((first.row, keep(out)))
        return out

    monkeypatch.setattr(scoring, "_embed", embedding)
    monkeypatch.setattr(scoring, "_scores", recording)
    return blocks


def _embedded_blocks(monkeypatch):
    """Make evaluate record the row count of every block it embeds, which
    every block is, whether its argmax is screened in float32 or scored in
    float64."""
    sizes = []
    inner = scoring._embed

    def recording(encoder, x, normalize):
        sizes.append(x.shape[0])
        return inner(encoder, x, normalize)

    monkeypatch.setattr(scoring, "_embed", recording)
    return sizes


def _in_row_order(blocks, features):
    """The recorded blocks' kept values in row order, each block placed at
    the subset row that equals its first input row; the blocks must tile
    the rows with no gap or overlap."""
    x = np.asarray(features, dtype=np.float64)
    placed = []
    for first, kept in blocks:
        rows = np.flatnonzero((x == first).all(axis=1))
        assert rows.size == 1  # the subset's rows are distinct
        placed.append((int(rows[0]), kept))
    placed.sort(key=lambda p: p[0])
    starts = [start for start, _ in placed]
    ends = [start + kept.shape[0] for start, kept in placed]
    assert starts == [0] + ends[:-1] and ends[-1] == x.shape[0]
    return [kept for _, kept in placed]


@pytest.mark.parametrize("rows", [3, 7, 1000])
def test_block_scores_equal_tape_scores(monkeypatch, rows):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    n = subset.labels.size
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", rows * spec.num_classes)
    sizes = _embedded_blocks(monkeypatch)
    blocks = _recorded_blocks(monkeypatch)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    x = Tensor(subset.features.astype(np.float64))

    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert len(sizes) == -(-n // rows)
    assert n % rows  # the last block ends short of a full one
    blocks.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes, topk=1)  # every block in float64
    assert len(blocks) == -(-n // rows)
    assert np.array_equal(np.concatenate(_in_row_order(blocks, subset.features)),
                          similarities(archive.bank, embed(enc, x)).data)

    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    blocks.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes, head=head)
    assert len(blocks) == -(-n // rows)
    assert np.array_equal(np.concatenate(_in_row_order(blocks, subset.features)),
                          linear_head_logits(head, enc.forward_raw(x)).data)


def test_one_row_tail_joins_the_block_before(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    n = subset.labels.size  # 200 rows
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 199 * spec.num_classes)
    sizes = _embedded_blocks(monkeypatch)
    blocks = _recorded_blocks(monkeypatch)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert sizes == [n]
    blocks.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes, topk=1)  # scored in float64
    assert [b.shape[0] for _, b in blocks] == [n]
    x = Tensor(subset.features.astype(np.float64))
    assert np.array_equal(blocks[0][1], similarities(archive.bank, embed(enc, x)).data)

    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 1)  # C > the cap: two rows a block
    sizes.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert set(sizes) == {2}


def test_each_block_equals_the_tapes_scores_of_its_own_rows(monkeypatch):
    # blocks of 13,107 and 50 rows: a tail whose product BLAS may sum in
    # another order than the same rows of the whole product
    rng = np.random.default_rng(0)
    n, num_classes = 13_157, 20
    rows = rng.standard_normal((num_classes, 32))
    bank = ClassBank(rows / np.linalg.norm(rows, axis=1, keepdims=True),
                     [f"c{i}" for i in range(num_classes)])
    subset = db.SplitSubset(rng.standard_normal((n, 48)).astype(np.float32), np.arange(n),
                            labels=np.arange(n) % num_classes,
                            domains=np.zeros(n, dtype=np.uint32))
    enc = Encoder.init(48, 64, 32, np.random.default_rng(3))
    blocks = _recorded_blocks(monkeypatch)
    evaluate(enc, bank, subset, range(10), topk=1)
    x = subset.features.astype(np.float64)
    start = 0
    for kept in _in_row_order(blocks, subset.features):
        part = slice(start, start + kept.shape[0])
        assert np.array_equal(kept, similarities(bank, embed(enc, Tensor(x[part]))).data)
        start = part.stop
    assert sorted(b.shape[0] for _, b in blocks) == [50, 13_107]
    assert scoring._row_blocks(n, num_classes) == [slice(0, 13_107), slice(13_107, n)]

    # the partition depends on N and C alone, so the reports do not depend on W
    def run():
        return [evaluate(enc, bank, subset, range(10), topk=topk).to_json()
                for topk in (None, 3)]

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    assert all(reports == serial for reports in threaded)


def test_evaluate_report_independent_of_block_size(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    reports = []
    for rows in (10_000, 7, 2):
        monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", rows * spec.num_classes)
        reports.append([
            evaluate(enc, archive.bank, getattr(splits, cell), splits.base_classes, topk=topk)
            for cell in ("test_domain_shift", "test_open", "test_both", "train")
            for topk in (None, 5)
        ])
    assert reports[0] == reports[1] == reports[2]
    assert [r.to_json() for r in reports[0]] == [r.to_json() for r in reports[2]]


def _tied_bank_case():
    """Bank of 12 classes: the last row alone is best for the first sample,
    and the other eleven share one row, so they tie for every place after it."""
    rows = np.tile(np.ones(4) / 2.0, (12, 1))
    rows[11] = np.eye(4)[0]
    bank = ClassBank(rows, [f"c{i}" for i in range(12)])
    source = np.zeros((42, 4))
    source[40:] = np.eye(4)[:2]  # the two samples, named 40 and 41
    subset = db.SplitSubset(source, np.array([40, 41]),
                            labels=np.array([11, 3], dtype=np.uint32),
                            domains=np.zeros(2, dtype=np.uint32))
    return bank, subset


def test_evaluate_topk_tie_across_kth_place_keeps_lower_ids():
    bank, subset = _tied_bank_case()
    report = evaluate(identity_encoder(4), bank, subset, [11], topk=3)
    first, second = report.topk
    assert first[0] == 40 and [c for c, _ in first[1]] == [11, 0, 1]
    # the second sample scores 0 on class 11 and ties the other eleven
    assert second[0] == 41 and [c for c, _ in second[1]] == [0, 1, 2]
    assert all(p == second[1][0][1] for _, p in second[1])


def test_evaluate_topk_above_class_count_returns_every_class():
    bank, subset = _tied_bank_case()
    report = evaluate(identity_encoder(4), bank, subset, [11], topk=50)
    first, second = report.topk
    assert [c for c, _ in first[1]] == [11] + list(range(11))
    assert [c for c, _ in second[1]] == list(range(11)) + [11]
    assert abs(sum(p for _, p in first[1]) - 1.0) < 1e-12


def test_evaluate_rejects_empty_split():
    archive = generate(NOISELESS)
    empty = db.SplitSubset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64),
                           labels=np.zeros(0, dtype=np.uint32),
                           domains=np.zeros(0, dtype=np.uint32))
    with pytest.raises(ValueError):
        evaluate(identity_encoder(16), archive.bank, empty, [0])


def test_evaluate_rejects_topk_below_one():
    archive = generate(NOISELESS)
    subset = split(archive, NOISELESS).test_open
    with pytest.raises(ValueError, match="topk must be >= 1, got 0"):
        evaluate(identity_encoder(16), archive.bank, subset, [0], topk=0)


def test_evaluate_rejects_shapes_that_do_not_fit():
    archive = generate(NOISELESS)
    subset = split(archive, NOISELESS).test_open
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match="encoder expects N x 12 features"):
        evaluate(Encoder.init(12, 8, 16, rng), archive.bank, subset, [0])
    with pytest.raises(ShapeError, match="encoder output dim 10 vs bank dim 16"):
        evaluate(Encoder.init(16, 8, 10, rng), archive.bank, subset, [0])
    head = random_head(archive.bank.num_classes, 10, rng)
    with pytest.raises(ShapeError, match="linear head input dim 10 vs encoder output dim 16"):
        evaluate(identity_encoder(16), archive.bank, subset, [0], head=head)


def test_report_json_round_trip():
    report = EvalReport(
        acc_base=0.5,
        acc_new=0.25,
        acc_h=harmonic_mean(0.5, 0.25),
        per_domain={0: 0.5, 2: 0.25},
        per_class={3: 1.0},
        config={"seed": 7},
        topk=[(12, [(3, 0.9), (1, 0.05)])],
    )
    payload = {"acc_base": 0.5, "acc_new": 0.25, "acc_h": harmonic_mean(0.5, 0.25),
               "per_domain": {"0": 0.5, "2": 0.25}, "per_class": {"3": 1.0},
               "config": {"seed": 7}, "topk": [[12, [[3, 0.9], [1, 0.05]]]]}
    assert json.loads(report.to_json()) == payload
    # serialized form is deterministic: sorted keys, no spaces
    assert report.to_json() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_report_json_appends_topk_rows_as_the_nested_payload_would_dump_them():
    probs = [0.9, 1e-300, 5e-324, float("nan"), float("inf"), -float("inf"), 0.1, 1 / 3]
    report = EvalReport(
        acc_base=0.5, acc_new=float("nan"), acc_h=0.0, per_domain={0: 0.5}, per_class={3: 1.0},
        config={"seed": 7, "zzz": [1.5, None], "shots": None},
        topk=[(12, [(3, p), (1, 0.05)]) for p in probs] + [(4, [(np.int64(2), np.float64(0.5))]),
                                                          (5, [])],
    )
    payload = {
        "acc_base": report.acc_base,
        "acc_new": report.acc_new,
        "acc_h": report.acc_h,
        "per_domain": {str(k): v for k, v in report.per_domain.items()},
        "per_class": {str(k): v for k, v in report.per_class.items()},
        "config": report.config,
        "topk": [[sample, [[int(c), float(s)] for c, s in ranked]]
                 for sample, ranked in report.topk],
    }
    assert report.to_json() == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    report.topk = []
    payload["topk"] = []
    assert report.to_json() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _old_topk_rows(top):
    """The rows as evaluate built them before reports held arrays: one flat
    list of (id, probability) pairs, k of them per sample."""
    n, k = top.ids.shape
    pairs = list(zip(top.ids.ravel().tolist(), top.probs.ravel().tolist()))
    return [(sample, pairs[start:start + k])
            for sample, start in zip(top.samples.tolist(), range(0, n * k, k))]


def test_topk_rows_equal_the_list_built_the_old_way(monkeypatch):
    spec = BenchmarkSpec(num_classes=30, samples_per_class_per_domain=4, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    enc = Encoder.init(spec.input_dim, 16, spec.embed_dim, np.random.default_rng(3))
    report = evaluate(enc, archive.bank, subset, splits.base_classes, topk=3)
    top = report.topk
    assert isinstance(top, TopK)
    n = subset.labels.size
    assert top.ids.shape == top.probs.shape == (n, 3)
    assert (top.samples.dtype, top.ids.dtype, top.probs.dtype) == (np.int64, np.int64, np.float64)
    assert np.array_equal(top.samples, subset.indices)
    old = _old_topk_rows(top)
    text = report.to_json()
    # blocks of seven rows, the last one short
    monkeypatch.setattr(scoring, "REPORT_BLOCK_PAIRS", 21)
    assert scoring._block_rows(3) == 7
    assert n % 7 and len(top) == n
    assert list(top) == old
    first, *_, last = top
    assert (first, last) == (old[0], old[-1])
    sample, ranked = top[0]
    assert type(sample) is int and all(type(c) is int and type(p) is float for c, p in ranked)
    for i in (0, 1, n // 2, n - 1, -1, -2, -n, np.int64(4)):
        assert top[i] == old[i]
    for index in (slice(None), slice(3, 11), slice(-5, None), slice(None, None, 3),
                  slice(n - 2, n + 5), slice(5, 2), slice(None, None, -4)):
        assert top[index] == old[index]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            top[i]
    assert top == old and old == top and top == top[:]
    assert top != old[:-1] and top != old[::-1]
    assert report == replace(report, topk=old) and replace(report, topk=old) == report
    assert report.to_json() == replace(report, topk=old).to_json() == text
    assert json.loads(text)["topk"] == [[sample, [list(pair) for pair in ranked]]
                                        for sample, ranked in old]
    with pytest.raises(ValueError):
        top.ids[0, 0] = 1  # the arrays are read-only
    for arrays in ((top.samples[1:], top.ids, top.probs), (top.samples, top.ids, top.probs[:, 1:]),
                   (top.samples, top.ids[:, 0], top.probs[:, 0])):
        with pytest.raises(ShapeError, match="expected N, N x k and N x k"):
            TopK(*arrays)


# sha256 of evaluate(...).to_json() on _pinned_case, as the N x k tuple
# reports wrote them; one k per ranking method, one above C, and a linear head
PINNED_REPORTS = [
    (5, False, "a295166aa55b864c959334032332e822f290e2be94fbdfaa71970abc4ac86d17"),
    (64, False, "92f255768d90d92fc36b4dfe23af0da2e8766b09d5d0375ddb04da4d3fdd6bc0"),
    (640, False, "b0039bf556c61a6ae139ed7fc570436703cc83860b33894a343c95a6242c1df6"),
    (1500, False, "86ec58ab0fe9428396c28d18c8c6e3f2e4ff72b7211da8bd67694a36c59ac516"),
    (7, True, "a6e5468595ba4040af230ebc0f20383b70d68efea4ea2c34a9a11adf0308673c"),
]


@pytest.fixture(scope="module")
def _pinned_case():
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=1, seed=7)
    archive = generate(spec)
    splits = split(archive, spec)
    both = splits.test_both
    rows = slice(0, 300)  # two score blocks
    subset = db.SplitSubset(archive.features, both.indices[rows], labels=both.labels[rows],
                            domains=both.domains[rows])
    enc = Encoder.init(spec.input_dim, 32, spec.embed_dim, np.random.default_rng([7, 0]))
    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng([7, 1]))
    return archive, subset, splits.base_classes, enc, head


# sha256 of a plain (no top-k) metric-head report on _pinned_case, whose
# C=1000 and d=64 are screened
PINNED_PLAIN_REPORT = "753bfb3ae6586df0846055dfd248e8dfafeff2f745cd500c1a9b825787ffbb2f"


def test_plain_report_bytes_are_pinned_when_screened_flagged_or_unscreened(_pinned_case,
                                                                           monkeypatch):
    archive, subset, base, enc, _ = _pinned_case
    flags = screen_flags(monkeypatch)

    def digest():
        report = evaluate(enc, archive.bank, subset, base)
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    assert digest() == PINNED_PLAIN_REPORT and flags == [False, False]
    monkeypatch.setattr(scoring, "_screen_gap", lambda bank_t: np.inf)  # every block flags
    assert digest() == PINNED_PLAIN_REPORT and flags == [False, False, True, True]
    monkeypatch.setattr(scoring, "_screens", lambda num_classes, dim: False)
    assert digest() == PINNED_PLAIN_REPORT and len(flags) == 4


def test_pinned_reports_cover_every_ranking():
    assert [scoring._ranking(min(k, 1000), 1000) for k, _, _ in PINNED_REPORTS] == \
        ["sweeps", "partial", "argsort", "argsort", "sweeps"]


@pytest.mark.parametrize("k, linear, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(_pinned_case, k, linear, digest):
    archive, subset, base, enc, head = _pinned_case
    report = evaluate(enc, archive.bank, subset, base, head=head if linear else None, topk=k)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_top_k_evaluate_memory_is_its_arrays_and_its_score_blocks(monkeypatch, threads):
    spec = BenchmarkSpec(num_classes=200, samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    monkeypatch.setattr(parallel, "worker_threads", lambda: threads)
    n, k = subset.labels.size, 50
    assert n == 4000
    tracemalloc.start()
    try:
        evaluate(enc, archive.bank, subset, splits.base_classes, topk=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the N x k ids and probabilities, and the blocks being scored; the
    # 200k (id, prob) tuples of a list report took about 23 MB
    assert peak < 2 * (n * k * 16 + threads * scoring.SCORE_BLOCK_ELEMENTS * 8)


def test_run_file_round_trip(tmp_path):
    path = tmp_path / "r.run"
    config = {"seed": 1, "steps": 3}
    curve = np.array([2.0, 1.5, 1.0], dtype=np.float32)
    final = np.linspace(-1, 1, 7)
    ens = final * 0.5
    save_run(path, config, curve, final, ens)
    run = load_run(path)
    assert run.config == config
    np.testing.assert_array_equal(run.loss_curve, curve)
    np.testing.assert_array_equal(run.final_params, final)
    np.testing.assert_array_equal(run.ensemble_params, ens)


def test_save_run_rejects_final_and_ensemble_vectors_of_different_lengths(tmp_path):
    path = tmp_path / "r.run"
    with pytest.raises(ValueError, match="differ in length"):
        save_run(path, {}, np.zeros(2, dtype=np.float32), np.zeros(3), np.zeros(4))
    assert not path.exists()


def _with_tail(path, values: np.ndarray) -> None:
    """Overwrite the last `values.size` float64s of the run file at `path`
    (the end of its ensemble vector) with `values`: a v1 file that
    `save_run` refuses to write, as a writer without its checks wrote it."""
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 8 * values.size] + values.astype("<f8").tobytes())


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38, np.inf, -np.inf, np.nan])
def test_save_run_rejects_a_loss_beyond_float32_before_opening_the_file(tmp_path, value):
    path = tmp_path / "r.run"
    with pytest.raises(ValueError, match=r"^the loss at step 1, .*, is not finite in float32"):
        save_run(path, {}, [2.0, value, 1.0], np.zeros(3), np.zeros(3))
    assert not path.exists()


@pytest.mark.parametrize("which", ["final", "ensemble"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_save_run_rejects_parameters_that_are_not_finite(tmp_path, which, value):
    path = tmp_path / "r.run"
    vectors = {"final": np.zeros(3), "ensemble": np.zeros(3)}
    vectors[which][1] = value
    with pytest.raises(ValueError, match=f"^the {which} parameters are not finite$"):
        save_run(path, {}, [1.0], vectors["final"], vectors["ensemble"])
    assert not path.exists()


def test_save_run_stores_the_extremes_of_float32(tmp_path):
    path = tmp_path / "r.run"
    curve = [F32_MAX, -F32_MAX, 1e-45, 0.0, 1e-300]
    save_run(path, {}, curve, np.full(2, 1e300), np.full(2, -1e300))
    run = load_run(path)
    np.testing.assert_array_equal(run.loss_curve, np.array(curve, dtype=np.float32))
    assert run.final_params.tolist() == [1e300, 1e300]


def test_load_run_reads_a_v1_file_with_an_inf_curve_and_nan_parameters(tmp_path):
    path = tmp_path / "r.run"
    save_run(path, {"seed": 0}, [1.0, 2.0], np.zeros(3), np.zeros(3))
    raw = bytearray(path.read_bytes())
    curve_at = _final_length_offset(raw) - 8
    raw[curve_at:curve_at + 8] = np.array([np.inf, -np.inf], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    _with_tail(path, np.array([np.nan]))
    run = load_run(path)
    assert run.loss_curve.tolist() == [np.inf, -np.inf]
    assert run.final_params.tolist() == [0.0] * 3
    assert np.isnan(run.ensemble_params[-1]) and run.ensemble_params[:2].tolist() == [0.0] * 2


def test_run_file_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "r.run"
    save_run(path, {}, np.zeros(2, dtype=np.float32), np.zeros(3), np.zeros(3))
    raw = path.read_bytes()

    bad = tmp_path / "bad.run"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(RunFileError, match="magic"):
        load_run(bad)

    trunc = tmp_path / "trunc.run"
    trunc.write_bytes(raw[:-10])
    with pytest.raises(RunFileError, match="expected"):
        load_run(trunc)

    trailing = tmp_path / "trailing.run"
    trailing.write_bytes(raw + b"junk")
    with pytest.raises(RunFileError, match="4 trailing bytes"):
        load_run(trailing)


def _final_length_offset(raw: bytes) -> int:
    (clen,) = struct.unpack_from("<I", raw, 5)
    (t,) = struct.unpack_from("<I", raw, 9 + clen)
    return 9 + clen + 4 + 4 * t


def test_run_file_final_length_beyond_the_file_is_truncation(tmp_path):
    path = tmp_path / "r.run"
    save_run(path, {"seed": 0}, np.zeros(2, dtype=np.float32), np.zeros(3), np.zeros(3))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, _final_length_offset(raw), 2**32 - 1)  # a 34 GB claim
    path.write_bytes(bytes(raw))
    with pytest.raises(RunFileError, match=f"final params: expected {8 * (2**32 - 1)} bytes"):
        load_run(path)


@pytest.mark.parametrize("config, reason", [(b"\xff", "can't decode byte 0xff"),
                                            (b"{", "Expecting property name")])
def test_run_file_config_that_is_not_utf8_json(tmp_path, config, reason):
    path = tmp_path / "r.run"
    save_run(path, {}, np.zeros(0, dtype=np.float32), np.zeros(1), np.zeros(1))
    raw = path.read_bytes()
    assert raw[5:11] == struct.pack("<I", 2) + b"{}"
    path.write_bytes(raw[:5] + struct.pack("<I", len(config)) + config + raw[11:])
    with pytest.raises(RunFileError, match=f"run config is not UTF-8 JSON: .*{reason}"):
        load_run(path)


# ---------------------------------------------------------------------------
# CLI


def _gen_args(out, per_class=6, seed=0):
    return [
        "gen", "--classes", "8", "--domains", "2", "--embed-dim", "12",
        "--input-dim", "16", "--per-class", str(per_class),
        "--test-domain", "1", "--seed", str(seed), "--out", str(out),
    ]


def test_cli_gen_holds_out_the_last_domain_by_default(tmp_path):
    flags = _gen_args(tmp_path / "given.emba")
    assert main(flags) == 0
    at = flags.index("--test-domain")
    default = flags[:at] + flags[at + 2:]
    default[default.index("--out") + 1] = str(tmp_path / "default.emba")
    assert main(default) == 0
    assert (tmp_path / "default.emba").read_bytes() == (tmp_path / "given.emba").read_bytes()


def test_cli_gen_train_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    run = tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    assert main([
        "train", "--data", str(data), "--out", str(run),
        "--steps", "10", "--batch", "8", "--hidden", "16",
        "--test-domain", "1",
    ]) == 0
    assert main([
        "eval", "--run", str(run), "--data", str(data),
        "--split", "both", "--params", "ensemble", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in ("acc_base", "acc_new", "acc_h", "per_domain", "per_class"):
        assert key in payload
    assert 0.0 <= payload["acc_h"] <= 1.0


@pytest.mark.parametrize("flag", ["--noise-sigma", "--domain-strength"])
def test_cli_gen_of_features_beyond_float32_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                          flag):
    out = tmp_path / "bench.emba"
    assert main(_gen_args(out) + [flag, "1e39"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: features overflow float32 at noise_sigma ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_cli_gen_of_a_singular_rotation_exits_two_naming_the_settings(tmp_path, capsys):
    out = tmp_path / "x.emba"
    assert main(["gen", "--out", str(out), "--input-dim", "3", "--embed-dim", "3",
                 "--domain-strength", "1e20", "--seed", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: domain 2's rotation cannot be computed at domain_strength 1e+20 and "
        "input_dim 3 (Singular matrix)\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--tau", "1e-300"), ("--lambda", "1e300"),
                                         ("--margin", "fixed:1e300")])
def test_cli_train_of_a_loss_beyond_float32_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                          flag, value):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    capsys.readouterr()
    # --tau 1e-300 also overflows AdamW's squared gradients, with a warning
    # that the divergence guard is to turn into an error; the others warn not
    with (pytest.warns(RuntimeWarning, match="overflow encountered in multiply")
          if flag == "--tau" else warnings.catch_warnings()):
        warnings.simplefilter("always" if flag == "--tau" else "error")
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "5",
                     "--batch", "8", "--hidden", "16", "--test-domain", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the loss at step 0, \S+, is not finite in float32, so the run "
                        r"file cannot store it\n", err)
    assert not run.exists()


@pytest.mark.parametrize("tau", ["1.8e-308", "1e-307", "2e-307"])
def test_cli_train_of_a_batch_loss_beyond_float64_exits_two_before_a_step(tmp_path, capsys,
                                                                         monkeypatch, tau):
    # each row's logits pass LossConfig, but the default batch of 36 sums
    # their losses past float64
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    capsys.readouterr()

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(tr.FusedStep, "__call__", no_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "5",
                     "--tau", tau]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: tau {tau} and lambda 0.3 give a loss whose sum over a batch "
                        r"of 36 rows overflows float64\n", err)
    assert not run.exists()


@pytest.mark.parametrize("flags", [["--lambda", "1e308"],
                                   ["--margin", "fixed:1e308", "--lambda", "10"],
                                   ["--tau", "1e-310"], ["--head", "linear", "--tau", "1e-310"]])
def test_cli_train_of_logits_beyond_float64_exits_two_before_a_step(tmp_path, capsys,
                                                                    monkeypatch, flags):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    capsys.readouterr()

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(tr.FusedStep, "__call__", no_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "5"]
                    + flags) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: tau \S+ and lambda \S+ give logits up to \(1 \+ lambda \* \S+\) / "
                        r"tau = inf, whose differences overflow float64\n", err)
    assert err.count("\n") == 1 and err.endswith("differences overflow float64\n")
    assert not run.exists()


def test_cli_train_with_underflowing_beta_weights_exits_two_before_a_step(tmp_path, capsys,
                                                                         monkeypatch):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    capsys.readouterr()

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(tr.FusedStep, "__call__", no_step)
    for flags, beta, total in ((["--beta", "100"], 100.0, 5000),
                               (["--beta", "400", "--steps", "200"], 400.0, 200)):
        assert main(["train", "--data", str(data), "--out", str(run)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: beta {beta} is too large for total_steps {total}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    assert not run.exists()


def test_cli_usage_errors_exit_one(capsys):
    assert main(["train"]) == 1  # missing required flags
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert main(["gen", "--classes", "8", "--out", "/tmp/x", "--margin"]) == 1
    capsys.readouterr()


def test_cli_bad_margin_and_ensemble_exit_one(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data)) == 0
    run = tmp_path / "r.bin"
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", "1", "--margin", "wat"]) == 1
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", "1", "--ensemble", "wat"]) == 1
    for flag, value in (("--margin", "fixed:abc"), ("--margin", "fixed:"),
                        ("--ensemble", "ema:abc"), ("--ensemble", "ema:")):
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(run),
                     "--steps", "1", flag, value]) == 1, (flag, value)
        assert f"usage error: bad {flag} value {value!r}" in capsys.readouterr().err
    assert not run.exists()


def test_cli_flag_prefixes_are_unrecognized(tmp_path, capsys):
    data, run = tmp_path / "bench.emba", tmp_path / "r.bin"
    assert main(_gen_args(data, per_class=4)) == 0
    capsys.readouterr()
    # argparse would read --seed as --seeds, and each of these as its flag
    for argv, extra in ((["ablate", "--data", str(data), "--steps", "2", "--json"],
                         ["--seed", "2"]),
                        (["train", "--data", str(data), "--out", str(run)],
                         ["--st", "2", "--ens", "none", "--marg", "none", "--hid", "8"])):
        assert main(argv + extra) == 1, extra
        out = capsys.readouterr()
        assert out.err == f"usage error: unrecognized arguments: {' '.join(extra)}\n"
        assert out.out == ""
    assert not run.exists()


@pytest.mark.parametrize("case,problem", [
    ("missing", "is in a missing directory"),
    ("slash", "is in a missing directory"),
    ("read-only", "is in a directory that is not writable"),
    ("directory", "is a directory"),
])
def test_cli_unwritable_out_exits_two_before_any_work(tmp_path, capsys, monkeypatch, case,
                                                      problem):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data)) == 0
    out = {"missing": tmp_path / "nope" / "x.bin", "slash": f"{tmp_path}/nope/",
           "read-only": tmp_path / "x.bin", "directory": tmp_path}[case]
    if case == "read-only":  # the test may run as root, whom os.access lets write anywhere
        real = os.access
        monkeypatch.setattr(evalcli.os, "access", lambda path, mode, **kwargs:
                            real(path, mode, **kwargs) and Path(path) != tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("the work began before --out was checked")

    monkeypatch.setattr(evalcli.tr, "train", no_work)
    monkeypatch.setattr(evalcli.db, "generate", no_work)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    for argv in (["train", "--data", str(data), "--out", str(out), "--steps", "2"],
                 _gen_args(out)):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: --out {out} {problem}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.emba"
    run = tmp_path / "r.bin"
    assert main(["train", "--data", str(missing), "--out", str(run),
                 "--steps", "1"]) == 2

    corrupt = tmp_path / "corrupt.emba"
    corrupt.write_bytes(b"NOPE" + bytes(40))
    assert main(["train", "--data", str(corrupt), "--out", str(run),
                 "--steps", "1"]) == 2

    data = tmp_path / "bench.emba"
    assert main(_gen_args(data)) == 0
    trailing = tmp_path / "trailing.emba"
    trailing.write_bytes(data.read_bytes() + b"junk")
    assert main(["train", "--data", str(trailing), "--out", str(run),
                 "--steps", "1"]) == 2

    # prototype placement that cannot satisfy the separation bound
    assert main(["gen", "--classes", "64", "--embed-dim", "2",
                 "--input-dim", "2", "--per-class", "1",
                 "--out", str(tmp_path / "x.emba")]) == 2
    capsys.readouterr()


def test_cli_length_fields_beyond_the_file_exit_two(tmp_path, capsys):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "1",
                 "--hidden", "4"]) == 0
    huge_run = tmp_path / "huge.run"
    raw = bytearray(run.read_bytes())
    struct.pack_into("<I", raw, _final_length_offset(raw), 2**32 - 1)
    huge_run.write_bytes(bytes(raw))
    assert main(["eval", "--run", str(huge_run), "--data", str(data)]) == 2
    assert "truncated while reading final params" in capsys.readouterr().err

    for n, d_in in ((2**32 - 1, 2**30), (2**31, 2**29)):
        huge = tmp_path / "huge.emba"
        huge.write_bytes(db.MAGIC + bytes([db.VERSION]) + struct.pack("<5I", n, d_in, 4, 2, 2))
        assert main(["train", "--data", str(huge), "--out", str(run), "--steps", "1"]) == 2
        assert "truncated while reading features" in capsys.readouterr().err
        assert main(["eval", "--run", str(run), "--data", str(huge)]) == 2
        assert "truncated while reading features" in capsys.readouterr().err


# the config echo of `train --steps 1` on the default `gen` archive, as the
# hand-written echo wrote it
ECHO_DEFAULTS = (
    '{"base_fraction":0.5,"base_lr":0.003,"batch_size":36,"beta":0.5,"bma_every":1,'
    '"ema_decay":0.999,"embed_dim":32,"ensemble_mode":"bma","fixed_margin":0.0,'
    '"head":"metric","hidden":64,"input_dim":48,"lambda":0.3,"margin_mode":"adaptive",'
    '"num_classes":20,"num_domains":3,"seed":0,"shots":null,"steps":1,"tau":0.01,'
    '"test_domain":2,"weight_decay":0.1}'
)
ECHO_LINEAR = (
    '{"base_fraction":0.5,"base_lr":0.003,"batch_size":36,"beta":0.5,"bma_every":1,'
    '"ema_decay":0.9,"embed_dim":32,"ensemble_mode":"ema","fixed_margin":0.2,'
    '"head":"linear","hidden":64,"input_dim":48,"lambda":0.3,"margin_mode":"fixed",'
    '"num_classes":20,"num_domains":3,"seed":0,"shots":5,"steps":1,"tau":0.01,'
    '"test_domain":2,"weight_decay":0.1}'
)


@pytest.mark.parametrize("flags, echo", [
    ([], ECHO_DEFAULTS),
    (["--head", "linear", "--ensemble", "ema:0.9", "--margin", "fixed:0.2", "--shots", "5"],
     ECHO_LINEAR),
])
def test_cli_train_config_echo_bytes(tmp_path, capsys, flags, echo):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(["gen", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "1"] + flags) == 0
    capsys.readouterr()
    raw = run.read_bytes()
    (clen,) = struct.unpack_from("<I", raw, 5)
    assert raw[9:9 + clen] == echo.encode()


def test_cli_train_margin_none_is_echoed(tmp_path, capsys):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data, per_class=4)) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                 "--batch", "4", "--hidden", "8", "--margin", "none"]) == 0
    capsys.readouterr()
    config = load_run(run).config
    assert config["margin_mode"] == "none" and config["fixed_margin"] == 0.0


def test_cli_kind_values_without_a_number_take_the_config_defaults(tmp_path, capsys):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data, per_class=4)) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                 "--batch", "4", "--hidden", "8", "--margin", "fixed", "--ensemble", "ema"]) == 0
    config = load_run(run).config
    assert (config["margin_mode"], config["fixed_margin"]) == ("fixed", 0.0)
    assert (config["ensemble_mode"], config["ema_decay"]) == ("ema", 0.999)
    # only fixed and ema take a number
    for flag, value in (("--margin", "adaptive:0.1"), ("--margin", "none:0"),
                        ("--ensemble", "bma:3"), ("--ensemble", "avg:0.5"), ("--ensemble", "")):
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "1",
                     flag, value]) == 1, (flag, value)
        assert f"usage error: bad {flag} value {value!r}" in capsys.readouterr().err


def test_cli_zero_lr_train_equals_zero_shot(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    run = tmp_path / "run.bin"
    assert main(_gen_args(data, per_class=4, seed=2)) == 0
    assert main([
        "train", "--data", str(data), "--out", str(run),
        "--steps", "5", "--batch", "4", "--hidden", "16",
        "--lr", "0", "--test-domain", "1",
    ]) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data),
                 "--split", "both", "--params", "ensemble", "--json"]) == 0
    trained = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["eval", "--run", str(run), "--data", str(data),
                 "--split", "both", "--params", "zero", "--json"]) == 0
    zero = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for key in ("acc_base", "acc_new", "acc_h", "per_domain", "per_class"):
        assert trained[key] == zero[key]


def test_cli_ablate_runs(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    assert main(["ablate", "--data", str(data), "--seeds", "1",
                 "--steps", "3", "--batch", "4", "--hidden", "8",
                 "--test-domain", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload) == {"adaptive+bma", "adaptive+none", "none+bma", "none+none"}
    for row in payload.values():
        assert set(row) == {"acc_base", "acc_new", "acc_h"}


def test_cli_ablate_json_is_run_ablation_over_the_seed_lanes(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    capsys.readouterr()
    assert main(["ablate", "--data", str(data), "--seeds", "3", "--steps", "4",
                 "--batch", "4", "--hidden", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    want = evalcli.run_ablation(db.load(data), [0, 1, 2], steps=4, batch=4, hidden=8)
    assert payload == want
    assert list(payload) == sorted(want)  # printed with sorted keys


def test_cli_ablate_text_prints_a_header_and_run_ablations_rows(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    capsys.readouterr()
    assert main(["ablate", "--data", str(data), "--seeds", "2", "--steps", "4",
                 "--batch", "4", "--hidden", "8"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["variant", "base", "new", "H"]
    want = evalcli.run_ablation(db.load(data), [0, 1], steps=4, batch=4, hidden=8)
    assert [row.split() for row in rows] == [
        [name] + [f"{want[name][key]:.4f}" for key in ("acc_base", "acc_new", "acc_h")]
        for name in (f"{m}+{e}" for m, e in evalcli.ABLATION_GRID)]


def test_cli_train_rejects_beta_and_ema_decay_out_of_range(tmp_path, capsys, monkeypatch):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    run = tmp_path / "r.bin"

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(tr, "train", no_training)
    for flags, message in (
            (["--beta", "-1", "--ensemble", "none"], "beta must be > 0, got -1.0"),
            (["--beta", "-1", "--ensemble", "avg"], "beta must be > 0, got -1.0"),
            (["--beta", "0"], "beta must be > 0, got 0.0"),
            (["--ensemble", "ema:1.5"], "ema_decay must lie in (0, 1), got 1.5"),
            (["--ensemble", "ema:0"], "ema_decay must lie in (0, 1), got 0.0"),
            (["--ensemble", "ema:-0.5"], "ema_decay must lie in (0, 1), got -0.5")):
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                     *flags]) == 2, flags
        assert f"error: {message}" in capsys.readouterr().err
        assert not run.exists()


def test_cli_train_rejects_a_weight_decay_that_diverges(tmp_path, capsys, monkeypatch):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    run = tmp_path / "r.bin"

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(tr, "train", no_training)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(run), "--lr", "1e6",
                 "--steps", "50"]) == 2
    assert "error: base_lr * weight_decay must be < 2, got 100000.0" in capsys.readouterr().err
    assert not run.exists()


def test_cli_sizes_below_one(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    assert main(_gen_args(data, per_class=4)) == 0
    run = tmp_path / "r.bin"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                 "--hidden", "0"]) == 1
    assert "--hidden must be >= 1" in capsys.readouterr().err
    assert not run.exists()
    for flag in ("--seeds", "--hidden"):
        assert main(["ablate", "--data", str(data), "--steps", "2", flag, "0"]) == 1
        assert f"{flag} must be >= 1" in capsys.readouterr().err
    for shots in ("0", "-3"):
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                     "--shots", shots]) == 1
        assert "--shots must be >= 1" in capsys.readouterr().err
        assert not run.exists()
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "2",
                 "--seed", "-1"]) == 1
    assert "usage error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not run.exists()
    # gen draws no split: it takes neither --shots nor --base-fraction
    for flag, value in (("--shots", "2"), ("--base-fraction", "0.3")):
        out = tmp_path / "split.emba"
        assert main(_gen_args(out) + [flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()
    for flag, name in (("--embed-dim", "embed_dim"), ("--input-dim", "input_dim"),
                       ("--per-class", "samples_per_class_per_domain")):
        out = tmp_path / f"{name}.emba"
        args = _gen_args(out)
        args[args.index(flag) + 1] = "0"
        assert main(args) == 2
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not out.exists()
    # a non-finite or negative noise, or a non-finite domain strength, would
    # write an archive whose every feature is NaN
    for flag, value, message in (("--noise-sigma", "nan", "noise_sigma must be finite and >= 0"),
                                 ("--noise-sigma", "-0.5", "noise_sigma must be finite and >= 0"),
                                 ("--domain-strength", "inf", "domain_strength must be finite"),
                                 ("--domain-strength", "nan", "domain_strength must be finite")):
        out = tmp_path / "noise.emba"
        assert main(_gen_args(out) + [flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_eval_text_prints_the_topk_report(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open",
                 "--topk", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open",
                 "--topk", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    samples = [line for line in lines if line.startswith("  sample ")]
    assert len(samples) == len(report["topk"]) > 0
    for line, (sample, ranked) in zip(samples, report["topk"]):
        head, entries = line.split(": ", 1)
        assert head == f"  sample {sample}"
        pairs = [entry.split(":") for entry in entries.split(" ")]
        assert len(pairs) == 3
        assert [int(c) for c, _ in pairs] == [c for c, _ in ranked]
        assert [float(p) for _, p in pairs] == [round(p, 4) for _, p in ranked]
    # the ranking follows the accuracy lines
    assert lines.index(samples[0]) > max(i for i, line in enumerate(lines)
                                         if line.startswith("  domain "))


def test_cli_eval_json_streams_the_report_text(tmp_path, capsys, monkeypatch):
    data, run = _trained_run(tmp_path)
    capsys.readouterr()
    to_json = EvalReport.to_json
    monkeypatch.setattr(scoring, "REPORT_BLOCK_PAIRS", 4)  # one row per piece
    with monkeypatch.context() as patched:
        patched.setattr(EvalReport, "to_json", lambda self: pytest.fail("whole text built"))
        assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open",
                     "--topk", "3", "--json"]) == 0
    out = capsys.readouterr().out
    archive, saved = db.load(data), load_run(run)
    spec = RunSpec.from_config(saved.config, archive)
    splits = spec.splits(archive)
    enc, _ = spec.model(archive)
    enc.set_flat(saved.ensemble_params)
    report = evaluate(enc, archive.bank, splits.test_open, splits.base_classes,
                      tau=spec.tau, topk=3)
    report.config = dict(saved.config, split="open", params="ensemble")
    assert len(report.topk) > 1
    # the head, one piece per row, and the closing brackets
    assert sum(1 for _ in report.json_chunks()) == len(report.topk) + 2
    assert out == to_json(report) + "\n"


def test_cli_eval_calls_evaluate_through_the_evalcli_attribute(tmp_path, capsys, monkeypatch):
    """A wrapper set as `evalcli.evaluate`, as a traced benchmark run sets
    one, sees eval's call."""
    data, run = _trained_run(tmp_path)
    cells = []
    real = evalcli.evaluate

    def recorded(encoder, bank, subset, *args, **kwargs):
        cells.append(subset)
        return real(encoder, bank, subset, *args, **kwargs)

    monkeypatch.setattr(evalcli, "evaluate", recorded)
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open"]) == 0
    archive, saved = db.load(data), load_run(run)
    splits = RunSpec.from_config(saved.config, archive).splits(archive)
    assert len(cells) == 1
    assert np.array_equal(cells[0].indices, splits.test_open.indices)


def test_cli_sizes_that_do_not_fit_in_memory_exit_two(tmp_path, capsys):
    data, run = tmp_path / "bench.emba", tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    huge = str(10**12)  # every allocation is larger than a 47-bit address space
    out = tmp_path / "huge.emba"
    gen = _gen_args(out)
    gen[gen.index("--per-class") + 1] = huge
    train = ["train", "--data", str(data), "--out", str(run), "--steps", "2"]
    cases = [(gen, "--per-class", out),
             (train + ["--batch", huge], "--batch", run),
             (train + ["--hidden", huge], "--hidden", run),
             (["ablate", "--data", str(data), "--steps", "2", "--seeds", "1", "--batch", huge],
              "--batch", None)]
    capsys.readouterr()
    for argv, flag, written in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{flag} {huge}" in err and "does not fit in memory" in err
        assert written is None or not written.exists()


def _trained_run(tmp_path):
    data = tmp_path / "bench.emba"
    run = tmp_path / "run.bin"
    assert main(_gen_args(data)) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", "2", "--batch", "4", "--hidden", "8",
                 "--test-domain", "1"]) == 0
    return data, run


def test_cli_eval_rejects_wrong_parameter_count(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    saved = load_run(run)
    p = saved.final_params.size
    for extra in (1, -1):
        size = p + extra
        final = np.resize(saved.final_params, size)
        save_run(run, saved.config, saved.loss_curve, final, final)
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data),
                     "--params", "final"]) == 2
        err = capsys.readouterr().err
        assert f"{size} entries" in err and f"expected {p}" in err


def test_cli_eval_checks_the_parameter_count_before_building_the_model(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    archive = db.load(data)
    d_in, d, num_classes = archive.input_dim, archive.bank.dim, archive.bank.num_classes
    saved = load_run(run)
    p = saved.final_params.size
    assert p == 8 * (d_in + 1 + d) + d
    huge = 10**12 * (d_in + 1 + d) + d  # an encoder of that size does not fit in memory
    save_run(run, dict(saved.config, hidden=10**12), saved.loss_curve, saved.final_params,
             saved.ensemble_params)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{p} entries" in err and f"expected {huge}" in err

    # both stored vectors are checked, whichever --params picks; save_run
    # writes equal lengths, so the longer ensemble section is spliced in
    save_run(run, saved.config, saved.loss_curve, saved.final_params, saved.ensemble_params)
    ensemble = np.resize(saved.ensemble_params, p + 1).astype("<f8")
    run.write_bytes(run.read_bytes()[:-(4 + 8 * p)] + struct.pack("<I", p + 1)
                    + ensemble.tobytes())
    assert main(["eval", "--run", str(run), "--data", str(data), "--params", "final"]) == 2
    assert f"ensemble parameter vector has {p + 1} entries" in capsys.readouterr().err

    linear = tmp_path / "linear.bin"
    assert main(["train", "--data", str(data), "--out", str(linear), "--head", "linear",
                 "--steps", "2", "--batch", "4", "--hidden", "8", "--test-domain", "1"]) == 0
    saved = load_run(linear)
    assert saved.final_params.size == p + num_classes * d
    save_run(linear, dict(saved.config, hidden=9), saved.loss_curve, saved.final_params,
             saved.ensemble_params)
    capsys.readouterr()
    assert main(["eval", "--run", str(linear), "--data", str(data), "--params", "zero"]) == 2
    assert f"expected {9 * (d_in + 1 + d) + d + num_classes * d}" in capsys.readouterr().err


def test_cli_eval_rejects_trailing_run_bytes(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    run.write_bytes(run.read_bytes() + b"junk")
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data)]) == 2
    assert "trailing" in capsys.readouterr().err


def test_cli_eval_topk_below_one_is_usage_error(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    for k in ("0", "-1"):
        assert main(["eval", "--run", str(run), "--data", str(data), "--topk", k]) == 1
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data), "--topk", "1",
                 "--json"]) == 0


def test_cli_eval_rejects_non_finite_parameters(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    saved = load_run(run)
    # first entry: a w1 weight, caught in the pre-activation; last: a b2 bias
    for where in (0, -1):
        ens = saved.ensemble_params.copy()
        ens[where] = np.nan
        save_run(run, saved.config, saved.loss_curve, saved.final_params, saved.final_params)
        _with_tail(run, ens)
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data)]) == 2
        assert "non-finite" in capsys.readouterr().err

    linear = tmp_path / "linear.bin"
    assert main(["train", "--data", str(data), "--out", str(linear), "--head", "linear",
                 "--steps", "2", "--batch", "4", "--hidden", "8", "--test-domain", "1"]) == 0
    saved = load_run(linear)
    ens = saved.ensemble_params.copy()
    ens[-1] = np.inf  # a linear-head weight
    _with_tail(linear, ens)
    capsys.readouterr()
    assert main(["eval", "--run", str(linear), "--data", str(data)]) == 2
    assert "non-finite linear head" in capsys.readouterr().err


def test_cli_eval_rejects_run_config_that_does_not_fit_the_archive(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    saved = load_run(run)
    other = tmp_path / "nine.emba"
    nine = _gen_args(other)
    nine[nine.index("--classes") + 1] = "9"
    assert main(nine) == 0
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(other)]) == 2
    assert "'num_classes' is 8, the archive has 9" in capsys.readouterr().err

    cases = [
        ("tau", None, "lacks the field 'tau'"),
        ("seed", None, "lacks the field 'seed'"),
        ("hidden", "8", "'hidden' has the wrong type"),
        ("num_domains", True, "'num_domains' has the wrong type"),
        ("shots", 1.5, "'shots' has the wrong type"),
        ("shots", 0, "'shots' must be >= 1 or null"),
        ("shots", -3, "'shots' must be >= 1 or null"),
        ("head", "bogus", "'head' is unknown"),
        ("tau", -1.0, "'tau' must be finite and positive"),
        ("tau", 1e-310, "'tau' must be finite and positive, with a finite reciprocal: 1e-310"),
        ("embed_dim", 13, "'embed_dim' is 13, the archive has 12"),
        ("input_dim", 17, "'input_dim' is 17, the archive has 16"),
        ("num_domains", 3, "'num_domains' is 3, the archive has 2"),
        ("seed", -1, "'seed' must be >= 0: -1"),
        ("hidden", -3, "'hidden' must be >= 1: -3"),
        ("hidden", 0, "'hidden' must be >= 1: 0"),
        ("test_domain", 5, "'test_domain': test_domain 5 out of range"),
        ("test_domain", -1, "'test_domain': test_domain -1 out of range"),
        ("base_fraction", 2.0, "'base_fraction': base_fraction must lie in (0, 1), got 2.0"),
        ("base_fraction", 0.01, "'base_fraction': base_fraction leaves an empty base or new"),
    ]
    # every field but the optional shots, and every archive size, is required
    required = [f.name for f in fields(RunSpec) if f.default is MISSING]
    assert [f.name for f in fields(RunSpec) if f.name not in required] == ["shots"]
    cases += [(key, None, f"lacks the field {key!r}")
              for key in required + ["input_dim", "embed_dim", "num_classes", "num_domains"]]
    for key, value, message in cases:
        config = dict(saved.config)
        if value is None:
            del config[key]
        else:
            config[key] = value
        save_run(run, config, saved.loss_curve, saved.final_params, saved.ensemble_params)
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data)]) == 2, key
        assert message in capsys.readouterr().err

    save_run(run, list(saved.config), saved.loss_curve, saved.final_params,
             saved.ensemble_params)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data)]) == 2
    assert "run config is not a JSON object" in capsys.readouterr().err

    config = dict(saved.config)
    del config["shots"]  # optional: no cap on the train split
    save_run(run, config, saved.loss_curve, saved.final_params, saved.ensemble_params)
    assert main(["eval", "--run", str(run), "--data", str(data)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("shots", [None, 5])
@pytest.mark.parametrize("head", [tr.HEAD_METRIC, tr.HEAD_LINEAR])
def test_run_spec_is_read_back_from_its_echo(head, shots):
    archive = generate(NOISELESS)
    spec = RunSpec(seed=4, hidden=8, head=head, tau=0.05, base_fraction=0.5, test_domain=0,
                   shots=shots)
    echo = json.loads(json.dumps(spec.echo(tr.TrainerConfig(seed=4, head=head), archive)))
    assert RunSpec.from_config(echo, archive) == spec
    assert spec.param_count(archive) == flatten_params(trainables(*spec.model(archive))).size


@pytest.mark.parametrize("head", [tr.HEAD_METRIC, tr.HEAD_LINEAR])
def test_trainables_hold_a_runs_parameter_vector_in_order(head):
    archive = generate(NOISELESS)
    spec = RunSpec(seed=4, hidden=8, head=head, tau=0.05, base_fraction=0.5, test_domain=0)
    encoder, linear = spec.model(archive)
    tensors = trainables(encoder, linear)
    expected = [encoder.w1, encoder.b1, encoder.w2, encoder.b2] + (
        [] if linear is None else [linear.weights])
    assert len(tensors) == len(expected) and all(a is b for a, b in zip(tensors, expected))
    size = spec.param_count(archive)
    assert flatten_params(tensors).size == size
    flat = np.arange(size, dtype=np.float64)
    unflatten_params(tensors, flat)
    np.testing.assert_array_equal(flatten_params(trainables(encoder, linear)), flat)


def test_cli_train_rejects_non_finite_hyperparameters(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    run = tmp_path / "r.bin"
    assert main(_gen_args(data)) == 0
    for flag in ("--beta", "--lr", "--weight-decay", "--tau", "--lambda"):
        for value in ("nan", "inf"):
            capsys.readouterr()
            assert main(["train", "--data", str(data), "--out", str(run),
                         "--steps", "2", flag, value]) == 2, (flag, value)
            assert "must be finite" in capsys.readouterr().err
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", "2", "--ensemble", "ema:nan"]) == 2
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps", "2", "--margin", "fixed:inf"]) == 2
    assert not run.exists()
    capsys.readouterr()


def test_cli_bma_every_above_steps_is_usage_error(tmp_path, capsys):
    data = tmp_path / "bench.emba"
    run = tmp_path / "r.bin"
    assert main(_gen_args(data)) == 0
    for ensemble in ("bma", "avg"):
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "3",
                     "--bma-every", "4", "--ensemble", ensemble]) == 1
        assert "--bma-every 4 exceeds --steps 3" in capsys.readouterr().err
    assert not run.exists()
    # bma_every == steps gives the ensemble its one update
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "3",
                 "--bma-every", "3", "--batch", "4", "--hidden", "8"]) == 0
    # ema and none never read bma_every
    for ensemble in ("ema", "none"):
        assert main(["train", "--data", str(data), "--out", str(run), "--steps", "3",
                     "--bma-every", "4", "--ensemble", ensemble,
                     "--batch", "4", "--hidden", "8"]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "oodtune", "eval"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 1
    assert done.stderr.startswith("usage error: ")


@pytest.mark.parametrize("tau", [0.0, float("nan"), -0.01, 1e-310])
@pytest.mark.parametrize("topk", [None, 2])
def test_evaluate_rejects_a_temperature_that_is_not_finite_and_positive(tau, topk):
    archive = generate(NOISELESS)
    splits = split(archive, NOISELESS)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        evaluate(identity_encoder(16), archive.bank, splits.test_both, splits.base_classes,
                 tau=tau, topk=topk)


def test_evaluate_at_a_tiny_temperature_reports_finite_probabilities():
    # 1 / tau is finite, and the scaled scores and their differences too
    archive = generate(NOISELESS)
    splits = split(archive, NOISELESS)
    report = evaluate(identity_encoder(16), archive.bank, splits.test_both, splits.base_classes,
                      tau=1e-300, topk=2)
    probs = report.topk.probs
    assert np.isfinite(probs).all() and (probs[:, 0] == 1.0).all()


def _sweep_cutoff(num_classes):
    """The largest k for which _top_k still runs argmax sweeps."""
    return max(k for k in range(1, num_classes) if scoring._ranking(k, num_classes) == "sweeps")


@pytest.mark.parametrize("num_classes", [20, 60])
def test_top_k_is_a_stable_argsort_on_tied_scores(num_classes):
    rng = np.random.default_rng(num_classes)
    scores = rng.choice([-0.5, 0.0, 0.25], size=(300, num_classes))  # ties everywhere
    before = scores.copy()
    cutoff = _sweep_cutoff(num_classes)
    assert 1 < cutoff < num_classes - 1
    want = np.argsort(-scores, axis=1, kind="stable")
    for k in sorted({1, 2, 5, cutoff, cutoff + 1, num_classes - 1, num_classes,
                     num_classes + 3}):
        ids, vals = scoring._top_k(scores, k)
        assert np.array_equal(ids, want[:, :k]), k
        assert np.array_equal(vals, np.take_along_axis(scores, want[:, :k], axis=1)), k
        assert scores.tobytes() == before.tobytes()


def test_top_k_ranks_rows_holding_minus_infinity_like_the_stable_argsort():
    rng = np.random.default_rng(7)
    scores = rng.choice([-np.inf, -1.0, 0.0, 2.0], size=(50, 12))
    scores[[0, 1, 4]] = -np.inf
    scores[0, 9] = 3.0  # all but one score is -inf
    scores[4, 0] = 3.0  # the second sweep picks id 0 again
    scores[2, 4] = np.nan  # NaN sorts last, as in the argsort
    scores[3, [2, 5]] = np.inf
    before = scores.copy()
    want = np.argsort(-scores, axis=1, kind="stable")
    for k in (1, 2, 3, 5, 11):
        ids, _ = scoring._top_k(scores, k)
        assert np.array_equal(ids, want[:, :k]), k
        assert scores.tobytes() == before.tobytes()


def test_linear_head_logits_overflowing_to_minus_infinity_rank_like_the_argsort(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    enc.b2.data[:] = 100.0  # every encoder output is positive
    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    overflow = [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
    head.weights.data[overflow] = -1e308  # finite weights, logits of -inf
    blocks = _recorded_blocks(monkeypatch)
    for k in (8, 9, 16):
        blocks.clear()
        with np.errstate(over="ignore"):
            report = evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                              head=head, topk=k)
        scores = np.concatenate(_in_row_order(blocks, splits.test_both.features))
        assert np.isneginf(scores[:, overflow]).all()
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert np.array_equal([[c for c, _ in ranked] for _, ranked in report.topk], want)


def test_top_k_predictions_equal_the_plain_argmax_on_an_open_eval_archive(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    blocks = _recorded_blocks(monkeypatch, keep=lambda scores: np.argmax(scores, axis=1))
    top = evaluate(enc, archive.bank, splits.test_open, splits.base_classes, topk=5)
    assert len(blocks) == len(scoring._row_blocks(splits.test_open.labels.size, spec.num_classes))
    assert np.array_equal([ranked[0][0] for _, ranked in top.topk],
                          np.concatenate(_in_row_order(blocks, splits.test_open.features)))
    plain = evaluate(enc, archive.bank, splits.test_open, splits.base_classes)
    assert (top.acc_base, top.acc_new, top.per_domain, top.per_class) == \
        (plain.acc_base, plain.acc_new, plain.per_domain, plain.per_class)


@pytest.mark.parametrize("num_classes", [200, 1000])
def test_top_k_equals_the_stable_argsort_for_every_k_below_the_class_count(num_classes):
    rng = np.random.default_rng(num_classes)
    scores = np.round(rng.standard_normal((24, num_classes)), 1)  # ties at some places
    scores[:8] = rng.standard_normal((8, num_classes))  # no ties
    scores[8:12] = rng.choice([-np.inf, -1.0, 0.0, 1.0], size=(4, num_classes))  # ties everywhere
    scores[12, 5] = np.nan
    before = scores.copy()
    want = np.argsort(-scores, axis=1, kind="stable")
    rankings = set()
    for k in range(1, num_classes):
        rankings.add(scoring._ranking(k, num_classes))
        ids, vals = scoring._top_k(scores, k)
        assert np.array_equal(ids, want[:, :k]), k
        assert np.array_equal(vals, np.take_along_axis(scores, want[:, :k], axis=1),
                              equal_nan=True), k
    assert scores.tobytes() == before.tobytes()
    assert rankings == {"sweeps", "partial", "argsort"}


def _stable_argsort_top_k(scores, k):
    ids = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(scores, ids, axis=1)


def test_top_k_reports_at_a_thousand_classes_equal_the_stable_argsort_ones(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=2, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    both = splits.test_both
    first = slice(0, 400)  # two score blocks
    subset = db.SplitSubset(archive.features, both.indices[first], labels=both.labels[first],
                            domains=both.domains[first])
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    ks = (5, 64, 200)
    assert [scoring._ranking(k, spec.num_classes) for k in ks] == ["sweeps", "partial", "partial"]
    got = [evaluate(enc, archive.bank, subset, splits.base_classes, topk=k).to_json()
           for k in ks]
    monkeypatch.setattr(scoring, "_top_k", _stable_argsort_top_k)
    want = [evaluate(enc, archive.bank, subset, splits.base_classes, topk=k).to_json()
            for k in ks]
    assert got == want


# --- row blocks scored on threads; the thread count is forced with a
# monkeypatch, so these run on a one-core machine too


def _reports_by_threads(monkeypatch, run, threads=(1, 2, 4)):
    """run() under each forced thread count; the first is serial."""
    out = []
    for count in threads:
        monkeypatch.setattr(parallel, "worker_threads", lambda count=count: count)
        out.append(run())
    return out


def _threads_case(monkeypatch, rows=7, **spec_fields):
    spec = BenchmarkSpec(**{"samples_per_class_per_domain": 10, "seed": 5, **spec_fields})
    archive = generate(spec)
    splits = split(archive, spec)
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", rows * spec.num_classes)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    return spec, archive, splits, enc


def test_threaded_plain_and_top_k_reports_equal_the_serial_ones(monkeypatch):
    _, archive, splits, enc = _threads_case(monkeypatch)

    def run():
        return [evaluate(enc, archive.bank, getattr(splits, cell), splits.base_classes,
                         topk=topk).to_json()
                for cell in ("test_domain_shift", "test_open", "test_both", "train")
                for topk in (None, 5)]

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    assert all(reports == serial for reports in threaded)


def test_threaded_top_k_reports_equal_the_serial_ones_for_every_ranking(monkeypatch):
    spec, archive, splits, enc = _threads_case(monkeypatch, num_classes=60)
    cutoff = _sweep_cutoff(spec.num_classes)
    ks = (cutoff, cutoff + 1, 40)
    assert [scoring._ranking(k, spec.num_classes) for k in ks] == ["sweeps", "partial", "argsort"]

    def run():
        return [evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                         topk=k).to_json() for k in ks]

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    assert all(reports == serial for reports in threaded)


def test_threaded_linear_head_reports_equal_the_serial_ones(monkeypatch):
    spec, archive, splits, enc = _threads_case(monkeypatch)
    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng(4))

    def run():
        return [evaluate(enc, archive.bank, splits.test_both, splits.base_classes, head=head,
                         topk=topk).to_json() for topk in (None, 3)]

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    assert all(reports == serial for reports in threaded)


def _overflowing_head(spec, enc, classes):
    """A linear head whose logits are -inf for the given classes."""
    enc.b2.data[:] = 100.0  # every encoder output is positive
    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    head.weights.data[classes] = -1e308
    return head


def test_threaded_reports_equal_the_serial_ones_on_rows_the_argsort_ranks(monkeypatch):
    spec, archive, splits, enc = _threads_case(monkeypatch, num_classes=60)
    head = _overflowing_head(spec, enc, np.arange(40))
    ks = (5, 20)
    assert [scoring._ranking(k, spec.num_classes) for k in ks] == ["sweeps", "partial"]
    inner = scoring._scores
    blocks = []

    def with_a_nan(*args, **kwargs):
        out = inner(*args, **kwargs)
        out[:, 45] = np.nan
        # every row holds 19 finite scores, 40 of -inf and a NaN: the sweeps
        # pick the NaN first, and the partial sort's 20th and 21st best
        # scores are both -inf, so every row is ranked again
        blocks.append(bool((np.isfinite(out).sum(axis=1) == 19).all()))
        return out

    monkeypatch.setattr(scoring, "_scores", with_a_nan)

    def run():
        with np.errstate(over="ignore"):
            return [evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                             head=head, topk=k).to_json() for k in ks]

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    count = len(scoring._row_blocks(splits.test_both.labels.size, spec.num_classes))
    assert count > 4 and blocks == [True] * (3 * len(ks) * count)
    assert all(reports == serial for reports in threaded)


def test_threads_score_under_the_callers_numpy_error_state(monkeypatch):
    spec, archive, splits, enc = _threads_case(monkeypatch)
    head = _overflowing_head(spec, enc, [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16])
    monkeypatch.setattr(parallel, "worker_threads", lambda: 2)
    assert len(scoring._row_blocks(splits.test_both.labels.size, spec.num_classes)) > 2
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate(enc, archive.bank, splits.test_both, splits.base_classes, head=head)
    with np.errstate(over="ignore"):  # no RuntimeWarning, which the suite makes an error
        threaded = evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                            head=head, topk=9)
        monkeypatch.setattr(parallel, "worker_threads", lambda: 1)
        serial = evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                          head=head, topk=9)
    assert threaded.to_json() == serial.to_json()


def test_threaded_nan_weight_raises_the_serial_error(monkeypatch):
    _, archive, splits, enc = _threads_case(monkeypatch)
    enc.w2.data[3, 1] = np.nan  # passes the pre-activation check

    def run():
        with pytest.raises(NonFiniteError) as caught:
            evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
        return str(caught.value)

    serial, *threaded = _reports_by_threads(monkeypatch, run)
    assert serial == "non-finite encoder output"
    assert threaded == [serial, serial]


def test_threaded_error_is_the_first_failing_block_in_row_order(monkeypatch):
    _, archive, splits, enc = _threads_case(monkeypatch, rows=2)
    features = splits.test_both.features.astype(np.float64)
    later_failed = threading.Event()
    inner = scoring._embed

    def failing(encoder, x, normalize):
        block = int(np.flatnonzero((features == x[0]).all(axis=1))[0]) // 2
        if block == 2:  # fails only once block 9 has
            later_failed.wait(timeout=10)
            raise ValueError("block 2")
        if block == 9:
            later_failed.set()
            raise ValueError("block 9")
        return inner(encoder, x, normalize)

    monkeypatch.setattr(scoring, "_embed", failing)
    before = threading.active_count()
    monkeypatch.setattr(parallel, "worker_threads", lambda: 4)
    with pytest.raises(ValueError, match="^block 2$"):
        evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
    assert later_failed.is_set()
    assert threading.active_count() == before  # every thread has stopped


@pytest.mark.parametrize("cores", [1, 2])
def test_evaluate_scores_one_block_on_one_thread_and_many_on_every_core(monkeypatch, cores):
    spec, archive, splits, enc = _threads_case(monkeypatch)
    seen = recorded_crew_threads(monkeypatch)
    monkeypatch.setattr(parallel, "worker_threads", lambda: cores)
    assert len(scoring._row_blocks(splits.test_both.labels.size, spec.num_classes)) > 2
    evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
    assert seen == [cores]
    seen.clear()
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 1 << 18)
    evaluate(enc, archive.bank, splits.test_both, splits.base_classes, topk=3)
    assert seen == [1]


def test_one_block_call_starts_no_thread(monkeypatch):
    _, archive, splits, enc = _threads_case(monkeypatch)
    counts = []
    inner = scoring._embed

    def counting(*args, **kwargs):
        counts.append(threading.active_count())
        return inner(*args, **kwargs)

    monkeypatch.setattr(scoring, "_embed", counting)
    monkeypatch.setattr(parallel, "worker_threads", lambda: 4)
    before = threading.active_count()
    evaluate(enc, archive.bank, splits.test_both, splits.base_classes)
    assert len(counts) > 1 and max(counts) > before  # many blocks: threads score them
    counts.clear()
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 1 << 18)
    evaluate(enc, archive.bank, splits.test_both, splits.base_classes, topk=3)
    assert counts == [before]
    assert threading.active_count() == before


def test_threaded_blocks_are_each_scored_once_under_frequent_switches(monkeypatch):
    _, archive, splits, enc = _threads_case(monkeypatch, rows=2)
    subset = splits.test_both
    monkeypatch.setattr(parallel, "worker_threads", lambda: 1)
    serial = evaluate(enc, archive.bank, subset, splits.base_classes, topk=2)
    blocks = _recorded_blocks(monkeypatch, keep=lambda scores: np.argmax(scores, axis=1))
    monkeypatch.setattr(parallel, "worker_threads", lambda: 8)  # more threads than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = evaluate(enc, archive.bank, subset, splits.base_classes, topk=2)
    finally:
        sys.setswitchinterval(interval)
    assert len(blocks) == subset.labels.size // 2
    _in_row_order(blocks, subset.features)  # each row scored once
    assert threaded.to_json() == serial.to_json()


@pytest.mark.parametrize("path", ["screened", "near tie", "top-k", "linear head"])
def test_two_threads_score_every_block_into_two_buffers(monkeypatch, path):
    # C=400 and d=32 are screened; ten rows a block make ten blocks
    rng = np.random.default_rng(0)
    num_classes, dim, n = 400, 32, 100
    bank = random_bank(rng, num_classes, dim)
    subset = db.SplitSubset(rng.standard_normal((n, dim)), np.arange(n),
                            labels=np.arange(n) % num_classes, domains=np.zeros(n, dtype=np.uint32))
    head = random_head(num_classes, dim, rng) if path == "linear head" else None
    topk = 3 if path == "top-k" else None
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 10 * num_classes)
    if path == "near tie":
        monkeypatch.setattr(scoring, "_screen_gap", lambda bank_t: np.inf)  # every block flags

    def run():
        return evaluate(identity_encoder(dim), bank, subset, range(200), head=head,
                        topk=topk).to_json()

    serial = _reports_by_threads(monkeypatch, run, threads=(1,))[0]
    # the array that owns each block's scores, by the call that writes them,
    # kept alive so that no two blocks' arrays can share an identity
    owners, flags = {"screen": [], "scores": []}, []
    inner_scores, inner_screen = scoring._scores, scoring._screened_argmax

    def scores(z, weights_t, out):
        out = inner_scores(z, weights_t, out)
        owners["scores"].append(out if out.base is None else out.base)
        return out

    def screened(z, bank32_t, gap, out):
        owners["screen"].append(out if out.base is None else out.base)
        ids = inner_screen(z, bank32_t, gap, out)
        flags.append(ids is None)
        return ids

    monkeypatch.setattr(scoring, "_scores", scores)
    monkeypatch.setattr(scoring, "_screened_argmax", screened)
    assert _reports_by_threads(monkeypatch, run, threads=(2,))[0] == serial
    blocks = len(scoring._row_blocks(n, num_classes))
    assert blocks >= 6
    # a near-tied block is screened, then scored in float64
    assert len(owners["screen"]) == (blocks if path in ("screened", "near tie") else 0)
    assert len(owners["scores"]) == (0 if path == "screened" else blocks)
    assert len({id(owner) for owner in owners["screen"] + owners["scores"]}) <= 2
    want = {"screened": False, "near tie": True}
    assert flags == ([want[path]] * blocks if path in want else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_near_tied_blocks_are_scored_as_the_tape_scores_their_own_rows(monkeypatch, threads):
    # C=400 and d=32 are screened; ten rows a block make ten blocks, and an
    # infinite gap flags every one of them
    rng = np.random.default_rng(1)
    num_classes, dim, n = 400, 32, 100
    bank = random_bank(rng, num_classes, dim)
    subset = db.SplitSubset(rng.standard_normal((n, 48)), np.arange(n),
                            labels=np.arange(n) % num_classes, domains=np.zeros(n, dtype=np.uint32))
    enc = Encoder.init(48, 64, dim, np.random.default_rng(3))
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 10 * num_classes)
    monkeypatch.setattr(scoring, "_screen_gap", lambda bank_t: np.inf)
    monkeypatch.setattr(parallel, "worker_threads", lambda: threads)
    flags = screen_flags(monkeypatch)
    blocks = _recorded_blocks(monkeypatch)
    evaluate(enc, bank, subset, range(200))
    count = len(scoring._row_blocks(n, num_classes))
    assert count == 10 and flags == [True] * count and len(blocks) == count
    x = subset.features
    start = 0
    for kept in _in_row_order(blocks, x):
        rows = slice(start, start + kept.shape[0])
        assert np.array_equal(kept, similarities(bank, embed(enc, Tensor(x[rows]))).data)
        start = rows.stop


@pytest.mark.parametrize("env,cores,want", [
    ({}, 8, 1),  # the BLAS takes every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 8, 8),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "4,2", "MKL_NUM_THREADS": "3"}, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 7, 3),
    ({"MKL_NUM_THREADS": "16"}, 8, 1),
    ({"OMP_NUM_THREADS": "1"}, 1, 1),
])
def test_score_threads_are_the_usable_cores_over_the_blas_threads(monkeypatch, env, cores,
                                                                  want):
    for name in parallel.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # not read when the affinity is known
    assert parallel.worker_threads() == want
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert parallel.worker_threads() == want
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one core
    assert parallel.worker_threads() == 1


@pytest.mark.parametrize("choice, cell", [("domain", "test_domain_shift"), ("open", "test_open"),
                                          ("both", "test_both"), ("train", "train")])
def test_cli_eval_scores_the_named_split_cell(tmp_path, capsys, monkeypatch, choice, cell):
    data, run = _trained_run(tmp_path)
    scored = []
    real = evalcli.evaluate

    def recorded(encoder, bank, subset, *args, **kwargs):
        scored.append(subset)
        return real(encoder, bank, subset, *args, **kwargs)

    monkeypatch.setattr(evalcli, "evaluate", recorded)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", choice,
                 "--json"]) == 0
    archive = db.load(data)
    splits = RunSpec.from_config(load_run(run).config, archive).splits(archive)
    assert len(scored) == 1
    np.testing.assert_array_equal(scored[0].indices, getattr(splits, cell).indices)


# --- a protocol cell is scored from the archive's rows, not from a copy


def _hand_built(cell, archive):
    """A `SplitSubset` of the cell's rows over a copy of the archive's
    features, so it shares no memory with the archive."""
    rows = cell.indices.copy()
    return db.SplitSubset(archive.features.copy(), rows, labels=archive.labels[rows],
                          domains=archive.domains[rows])


def test_cell_reports_equal_the_reports_of_hand_built_subsets(monkeypatch):
    spec, archive, splits, enc = _threads_case(monkeypatch)
    head = random_head(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    cells = [getattr(splits, cell)
             for cell in ("test_domain_shift", "test_open", "test_both", "train")]
    assert all(len(scoring._row_blocks(cell.labels.size, spec.num_classes)) > 1
               for cell in cells)

    def reports(subset):
        return [evaluate(enc, archive.bank, subset, splits.base_classes, **kwargs).to_json()
                for kwargs in ({}, {"topk": 5}, {"head": head})]

    monkeypatch.setattr(parallel, "worker_threads", lambda: 1)
    want = [reports(_hand_built(cell, archive)) for cell in cells]
    for read in (False, True):
        if read:
            for cell in cells:
                cell.features  # a fresh gather, which the cell does not keep
        for count in (1, 2):
            monkeypatch.setattr(parallel, "worker_threads", lambda count=count: count)
            assert [reports(cell) for cell in cells] == want, (read, count)
        assert all(cell.source is archive.features for cell in cells)


@pytest.mark.parametrize("head_classes, bad", [(None, -1), (None, 20), (19, 19), (19, -1)])
def test_evaluate_rejects_a_label_outside_the_classes_of_the_bank_or_the_head(head_classes, bad):
    spec = BenchmarkSpec(samples_per_class_per_domain=5, seed=5)  # 20 classes
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 16, spec.embed_dim, np.random.default_rng(3))
    head = (None if head_classes is None
            else random_head(head_classes, spec.embed_dim, np.random.default_rng(4)))
    subset = _hand_built(splits.test_open, archive)
    subset.labels = subset.labels.astype(np.int64)
    subset.labels[3] = bad
    classes = head_classes or spec.num_classes
    assert issubclass(LabelError, ValueError)  # so the CLI exits 2
    for topk in (None, 3):
        with pytest.raises(LabelError, match=rf"^label {bad} out of range for {classes} classes"):
            evaluate(enc, archive.bank, subset, splits.base_classes, head=head, topk=topk)
    if 0 <= bad < spec.num_classes:  # in range for the bank's classes
        evaluate(enc, archive.bank, subset, splits.base_classes)


def test_scoring_an_open_eval_cell_copies_none_of_its_rows(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    cell = splits.test_open
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    monkeypatch.setattr(parallel, "worker_threads", lambda: 1)
    tracemalloc.start()
    try:
        evaluate(enc, archive.bank, cell, splits.base_classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cell_bytes = cell.labels.size * spec.input_dim * 4  # 11.5 MB of float32 rows
    assert peak < cell_bytes // 2
    assert cell.source is archive.features


@pytest.mark.parametrize("name, size", [("labels", 997), ("domains", 5), ("domains", 1001)])
def test_evaluate_rejects_labels_or_domains_not_one_per_index(name, size):
    n = 1000
    rows = {"labels": np.zeros(n, dtype=np.uint32), "domains": np.zeros(n, dtype=np.uint32)}
    rows[name] = np.resize(rows[name], size)
    subset = db.SplitSubset(np.random.default_rng(0).standard_normal((n, 16)), np.arange(n),
                            **rows)
    with pytest.raises(ShapeError, match=rf"subset {name} of shape \({size},\) for {n} "):
        evaluate(identity_encoder(16), generate(NOISELESS).bank, subset, [0])


@pytest.mark.parametrize("bad", [-1, 40])
def test_evaluate_rejects_an_index_outside_the_source(bad):
    source = np.random.default_rng(0).standard_normal((40, 16))
    indices = np.arange(30)
    indices[7] = bad
    subset = db.SplitSubset(source, indices, labels=np.zeros(30, dtype=np.uint32),
                            domains=np.zeros(30, dtype=np.uint32))
    with pytest.raises(IndexError, match=rf"subset indices {min(bad, 0)}..{max(bad, 29)} outside \[0, 40\)"):
        evaluate(identity_encoder(16), generate(NOISELESS).bank, subset, [0])


def test_evaluate_rejects_indices_that_are_not_one_row_list():
    subset = db.SplitSubset(np.zeros((40, 16)), np.arange(30).reshape(15, 2),
                            labels=np.zeros(15, dtype=np.uint32),
                            domains=np.zeros(15, dtype=np.uint32))
    with pytest.raises(ShapeError, match=r"expects N x 16 features, got \(15, 2, 16\)"):
        evaluate(identity_encoder(16), generate(NOISELESS).bank, subset, [0])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_subset_scores_and_names_the_rows_its_unsorted_repeated_indices_give(monkeypatch,
                                                                               workers):
    rng = np.random.default_rng(9)
    source = rng.standard_normal((50, 16))  # no archive's features
    indices = rng.integers(0, 50, size=120)
    assert np.unique(indices).size < indices.size and (np.diff(indices) < 0).any()
    labels, domains = rng.integers(0, 6, size=120), rng.integers(0, 3, size=120)
    bank = generate(NOISELESS).bank  # 6 classes: blocks of 7 rows below
    monkeypatch.setattr(scoring, "SCORE_BLOCK_ELEMENTS", 7 * bank.num_classes)
    monkeypatch.setattr(parallel, "worker_threads", lambda: workers)

    def report(subset):
        return evaluate(identity_encoder(16), bank, subset, [0, 1, 2], topk=3)

    got = report(db.SplitSubset(source, indices, labels, domains))
    want = report(db.SplitSubset(source[indices], np.arange(120), labels, domains))
    np.testing.assert_array_equal(got.topk.samples, indices)
    np.testing.assert_array_equal(got.topk.ids, want.topk.ids)
    np.testing.assert_array_equal(got.topk.probs, want.topk.probs)
    assert [got.acc_base, got.acc_new, got.per_domain, got.per_class] == \
        [want.acc_base, want.acc_new, want.per_domain, want.per_class]
    assert got.topk[1][0] == indices[1] and got.topk[1][1] == want.topk[1][1]
