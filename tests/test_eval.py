import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodtune import databench as db
from oodtune import evalcli
from oodtune.databench import BenchmarkSpec, generate, split
from oodtune.evalcli import (
    EvalReport,
    RunFileError,
    UsageError,
    evaluate,
    harmonic_mean,
    load_run,
    main,
    save_run,
)
from oodtune.model import (ClassBank, Encoder, LinearHead, embed, linear_head_logits,
                           similarities)
from oodtune.tensor import Tensor

from helpers import identity_encoder


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
    subset = db.SplitSubset(
        features=np.eye(4)[:3],
        labels=np.array([0, 1, 2], dtype=np.uint32),
        domains=np.zeros(3, dtype=np.uint32),
        indices=np.arange(3),
    )
    report = evaluate(identity_encoder(4), bank, subset, [0, 1], topk=3)
    assert report.per_class[0] == 1.0  # only class 0 ever predicted
    assert report.per_class[1] == 0.0
    assert report.per_class[2] == 0.0
    for _, ranked in report.topk:
        assert [c for c, _ in ranked] == [0, 1, 2]
        assert all(abs(s - 1.0 / 3.0) < 1e-12 for _, s in ranked)


def _recorded_blocks(monkeypatch):
    """Make evaluate record a copy of every score block it computes."""
    blocks = []
    inner = evalcli._scores

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        blocks.append(out.copy())
        return out

    monkeypatch.setattr(evalcli, "_scores", recording)
    return blocks


@pytest.mark.parametrize("rows", [3, 7, 1000])
def test_block_scores_equal_tape_scores(monkeypatch, rows):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    n = subset.labels.size
    monkeypatch.setattr(evalcli, "SCORE_BLOCK_ELEMENTS", rows * spec.num_classes)
    blocks = _recorded_blocks(monkeypatch)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    x = Tensor(subset.features.astype(np.float64))

    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert len(blocks) == -(-n // rows)
    assert n % rows  # the last block ends short of a full one
    assert np.array_equal(np.concatenate(blocks), similarities(archive.bank, embed(enc, x)).data)

    head = LinearHead.init(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    blocks.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes, head=head)
    assert np.array_equal(np.concatenate(blocks),
                          linear_head_logits(head, enc.forward_raw(x)).data)


def test_one_row_tail_joins_the_block_before(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    subset = splits.test_both
    n = subset.labels.size  # 200 rows
    monkeypatch.setattr(evalcli, "SCORE_BLOCK_ELEMENTS", 199 * spec.num_classes)
    blocks = _recorded_blocks(monkeypatch)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert [b.shape[0] for b in blocks] == [n]
    x = Tensor(subset.features.astype(np.float64))
    assert np.array_equal(blocks[0], similarities(archive.bank, embed(enc, x)).data)

    monkeypatch.setattr(evalcli, "SCORE_BLOCK_ELEMENTS", 1)  # C > the cap: two rows a block
    blocks.clear()
    evaluate(enc, archive.bank, subset, splits.base_classes)
    assert {b.shape[0] for b in blocks} == {2}


def test_evaluate_report_independent_of_block_size(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    reports = []
    for rows in (10_000, 7, 2):
        monkeypatch.setattr(evalcli, "SCORE_BLOCK_ELEMENTS", rows * spec.num_classes)
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
    subset = db.SplitSubset(
        features=np.eye(4)[:2],
        labels=np.array([11, 3], dtype=np.uint32),
        domains=np.zeros(2, dtype=np.uint32),
        indices=np.array([40, 41]),
    )
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
    empty = db.SplitSubset(
        features=np.zeros((0, 16)),
        labels=np.zeros(0, dtype=np.uint32),
        domains=np.zeros(0, dtype=np.uint32),
        indices=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(ValueError):
        evaluate(identity_encoder(16), archive.bank, empty, [0])


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
    back = EvalReport.from_json(report.to_json())
    assert back == report
    # serialized form is deterministic
    assert report.to_json() == back.to_json()


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
    capsys.readouterr()


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
    for flag, name in (("--embed-dim", "embed_dim"), ("--input-dim", "input_dim"),
                       ("--per-class", "samples_per_class_per_domain")):
        out = tmp_path / f"{name}.emba"
        args = _gen_args(out)
        args[args.index(flag) + 1] = "0"
        assert main(args) == 2
        assert f"{name} must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_cli_eval_text_prints_the_topk_report(tmp_path, capsys):
    data, run = _trained_run(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open",
                 "--topk", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["eval", "--run", str(run), "--data", str(data), "--split", "open",
                 "--topk", "3", "--json"]) == 0
    report = EvalReport.from_json(capsys.readouterr().out.strip().splitlines()[-1])
    samples = [line for line in lines if line.startswith("  sample ")]
    assert len(samples) == len(report.topk) > 0
    for line, (sample, ranked) in zip(samples, report.topk):
        head, entries = line.split(": ", 1)
        assert head == f"  sample {sample}"
        pairs = [entry.split(":") for entry in entries.split(" ")]
        assert len(pairs) == 3
        assert [int(c) for c, _ in pairs] == [c for c, _ in ranked]
        assert [float(p) for _, p in pairs] == [round(p, 4) for _, p in ranked]
    # the ranking follows the accuracy lines
    assert lines.index(samples[0]) > max(i for i, line in enumerate(lines)
                                         if line.startswith("  domain "))


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
        save_run(run, saved.config, saved.loss_curve, saved.final_params, ens)
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data)]) == 2
        assert "non-finite" in capsys.readouterr().err

    linear = tmp_path / "linear.bin"
    assert main(["train", "--data", str(data), "--out", str(linear), "--head", "linear",
                 "--steps", "2", "--batch", "4", "--hidden", "8", "--test-domain", "1"]) == 0
    saved = load_run(linear)
    ens = saved.ensemble_params.copy()
    ens[-1] = np.inf  # a linear-head weight
    save_run(linear, saved.config, saved.loss_curve, saved.final_params, ens)
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
        ("head", "bogus", "'head' is unknown"),
        ("tau", -1.0, "'tau' must be finite and positive"),
        ("embed_dim", 13, "'embed_dim' is 13, the archive has 12"),
        ("input_dim", 17, "'input_dim' is 17, the archive has 16"),
        ("num_domains", 3, "'num_domains' is 3, the archive has 2"),
    ]
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

    config = dict(saved.config)
    del config["shots"]  # optional: no cap on the train split
    save_run(run, config, saved.loss_curve, saved.final_params, saved.ensemble_params)
    assert main(["eval", "--run", str(run), "--data", str(data)]) == 0
    capsys.readouterr()


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


@pytest.mark.parametrize("tau", [0.0, float("nan"), -0.01])
@pytest.mark.parametrize("topk", [None, 2])
def test_evaluate_rejects_a_temperature_that_is_not_finite_and_positive(tau, topk):
    archive = generate(NOISELESS)
    splits = split(archive, NOISELESS)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        evaluate(identity_encoder(16), archive.bank, splits.test_both, splits.base_classes,
                 tau=tau, topk=topk)


def _sweep_cutoff(num_classes):
    """The largest k for which _top_k still runs argmax sweeps."""
    return max(k for k in range(1, num_classes) if evalcli._sweeps_pay(k, num_classes))


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
        ids, vals = evalcli._top_k(scores, k)
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
        ids, _ = evalcli._top_k(scores, k)
        assert np.array_equal(ids, want[:, :k]), k
        assert scores.tobytes() == before.tobytes()


def test_linear_head_logits_overflowing_to_minus_infinity_rank_like_the_argsort(monkeypatch):
    spec = BenchmarkSpec(samples_per_class_per_domain=10, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng(3))
    enc.b2.data[:] = 100.0  # every encoder output is positive
    head = LinearHead.init(spec.num_classes, spec.embed_dim, np.random.default_rng(4))
    overflow = [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16]
    head.weights.data[overflow] = -1e308  # finite weights, logits of -inf
    blocks = _recorded_blocks(monkeypatch)
    for k in (8, 9, 16):
        blocks.clear()
        with np.errstate(over="ignore"):
            report = evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                              head=head, topk=k)
        scores = np.concatenate(blocks)
        assert np.isneginf(scores[:, overflow]).all()
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert np.array_equal([[c for c, _ in ranked] for _, ranked in report.topk], want)


def test_top_k_predictions_equal_the_plain_argmax_on_an_open_eval_archive(monkeypatch):
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    splits = split(archive, spec)
    enc = Encoder.init(spec.input_dim, 64, spec.embed_dim, np.random.default_rng([5, 0]))
    argmax = []
    inner = evalcli._scores

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        argmax.append(np.argmax(out, axis=1))
        return out

    monkeypatch.setattr(evalcli, "_scores", recording)
    top = evaluate(enc, archive.bank, splits.test_open, splits.base_classes, topk=5)
    assert np.array_equal([ranked[0][0] for _, ranked in top.topk], np.concatenate(argmax))
    plain = evaluate(enc, archive.bank, splits.test_open, splits.base_classes)
    assert (top.acc_base, top.acc_new, top.per_domain, top.per_class) == \
        (plain.acc_base, plain.acc_new, plain.per_domain, plain.per_class)
