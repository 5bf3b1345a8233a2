"""Plain-numpy references the benchmark checks the library's outputs against."""

from __future__ import annotations

import numpy as np

from oodtune import databench as db
from oodtune import losses as L
from oodtune import trainer as tr
from oodtune.evalcli import evaluate
from oodtune.model import Encoder

# two classes whose scores differ by less than this may be ranked either way
# by two correct implementations (summation order), so they are not compared
NEAR_TIE = 1e-9
PROB_RTOL = 1e-9


def scores(flat: np.ndarray, d_in: int, hidden: int, d: int, bank: np.ndarray,
           features: np.ndarray) -> np.ndarray:
    """Cosine similarities of the tanh-MLP embeddings against every bank row."""
    sizes = [d_in * hidden, hidden, hidden * d, d]
    w1, b1, w2, b2 = np.split(np.asarray(flat, dtype=np.float64), np.cumsum(sizes)[:-1])
    h = np.tanh(np.asarray(features, dtype=np.float64) @ w1.reshape(d_in, hidden) + b1)
    z = h @ w2.reshape(hidden, d) + b2
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    return z @ bank.T


def _ranked(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k class ids (ties toward the lower id) and a mask of rows whose
    ranking up to k+1 holds a near tie."""
    part = np.argpartition(-s, k, axis=1)[:, :k + 1]
    vals = np.take_along_axis(s, part, axis=1)
    order = np.lexsort((part, -vals), axis=1)
    ids = np.take_along_axis(part, order, axis=1)
    top = np.take_along_axis(vals, order, axis=1)
    gaps = -np.diff(top, axis=1)
    return ids[:, :k], np.any(gaps < NEAR_TIE, axis=1)


def _harmonic(a: float, b: float) -> float:
    return 0.0 if a + b == 0.0 else 2.0 * a * b / (a + b)


def check_report(report, s: np.ndarray, subset, base_classes, tau: float,
                 topk: int | None) -> list[str]:
    """Differences between an EvalReport and the oracle scores `s` of the
    same subset; an empty list means the report is right."""
    problems = []
    labels = np.asarray(subset.labels, dtype=np.int64)
    ids, tied = _ranked(s, 1 if topk is None else topk)
    correct = ids[:, 0] == labels
    is_base = np.isin(labels, np.asarray(base_classes))
    # a near-tied row may land either way; allow each one to flip
    slack_base = tied[is_base].sum() / max(is_base.sum(), 1)
    slack_new = tied[~is_base].sum() / max((~is_base).sum(), 1)
    acc_base = float(correct[is_base].mean()) if is_base.any() else 0.0
    acc_new = float(correct[~is_base].mean()) if (~is_base).any() else 0.0
    if abs(report.acc_base - acc_base) > slack_base + 1e-12:
        problems.append(f"acc_base {report.acc_base} vs oracle {acc_base}")
    if abs(report.acc_new - acc_new) > slack_new + 1e-12:
        problems.append(f"acc_new {report.acc_new} vs oracle {acc_new}")
    if not tied.any() and report.acc_h != _harmonic(acc_base, acc_new):
        problems.append(f"acc_h {report.acc_h} vs oracle {_harmonic(acc_base, acc_new)}")
    for c, acc in report.per_class.items():
        mask = labels == c
        want = float(correct[mask].mean())
        if abs(acc - want) > tied[mask].sum() / mask.sum() + 1e-12:
            problems.append(f"class {c} accuracy {acc} vs oracle {want}")
            break
    if topk is None:
        return problems
    if report.topk is None or len(report.topk) != labels.size:
        return problems + ["top-k report missing or of the wrong length"]
    got_rows = np.array([r[0] for r in report.topk])
    got_ids = np.array([[c for c, _ in r[1]] for r in report.topk])
    got_probs = np.array([[p for _, p in r[1]] for r in report.topk])
    if not np.array_equal(got_rows, subset.indices):
        problems.append("top-k rows do not follow the subset order")
    mismatch = np.any(got_ids != ids, axis=1) & ~tied
    if mismatch.any():
        problems.append(f"top-{topk} ids differ on {int(mismatch.sum())} untied rows")
    logits = s / tau
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    want = np.take_along_axis(probs, ids, axis=1)
    if not np.allclose(got_probs[~tied], want[~tied], rtol=PROB_RTOL, atol=1e-300):
        problems.append("top-k probabilities differ from the oracle softmax")
    return problems


def sweep(archive: db.EmbeddingArchive, seeds: list[int], steps: int, lr: float,
          batch: int, hidden: int, grid) -> dict:
    """run_ablation rebuilt from train/split/evaluate: mean base/new/H on the
    held-out-domain cell for every margin x ensemble variant."""
    m = archive.num_domains
    out = {}
    for margin, ensemble in grid:
        rows = []
        for seed in seeds:
            spec = db.BenchmarkSpec(
                num_classes=archive.bank.num_classes, num_domains=m,
                embed_dim=archive.bank.dim, input_dim=archive.input_dim,
                test_domain=m - 1, seed=seed)
            splits = db.split(archive, spec)
            enc = Encoder.init(archive.input_dim, hidden, archive.bank.dim,
                               np.random.default_rng([seed, 0]))
            cfg = tr.TrainerConfig(steps=steps, batch_size=batch, base_lr=lr, seed=seed,
                                   loss=L.LossConfig(margin_mode=margin),
                                   ensemble_mode=ensemble)
            result = tr.train(enc, archive.bank,
                              tr.TrainSet(splits.train.features.astype(np.float64),
                                          splits.train.labels), cfg)
            enc.set_flat(result.ensemble_params)
            rep = evaluate(enc, archive.bank, splits.test_both, splits.base_classes,
                           tau=cfg.loss.tau)
            rows.append((rep.acc_base, rep.acc_new, rep.acc_h))
        arr = np.array(rows)
        out[f"{margin}+{ensemble}"] = {
            "acc_base": float(arr[:, 0].mean()),
            "acc_new": float(arr[:, 1].mean()),
            "acc_h": float(arr[:, 2].mean()),
        }
    return out
