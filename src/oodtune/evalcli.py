"""Evaluation metrics (base/new/harmonic-mean, per-domain accuracy,
top-k predictions), the run-file container, and the command-line surface.

Run file layout (little-endian):
    magic "RUNF" | version 0x01
    u32 config length | UTF-8 JSON config echo
    u32 T | T f32 loss curve
    u32 P | P f64 final parameter vector
    u32 P | P f64 ensemble parameter vector
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import databench as db
from . import losses as L
from . import trainer as tr
from .databench import ArchiveFormatError, SplitSubset
from .model import ClassBank, Encoder, LinearHead, mlp_forward, text_head_init, unflatten_params
from .tensor import NORM_EPS, NonFiniteError, ShapeError

RUN_MAGIC = b"RUNF"
RUN_VERSION = 1


class RunFileError(ValueError):
    """Raised on malformed run files."""


def harmonic_mean(acc_base: float, acc_new: float) -> float:
    total = acc_base + acc_new
    if total == 0.0:
        return 0.0
    return 2.0 * acc_base * acc_new / total


@dataclass
class EvalReport:
    acc_base: float
    acc_new: float
    acc_h: float
    per_domain: dict[int, float]
    per_class: dict[int, float]
    config: dict = field(default_factory=dict)
    topk: list[tuple[int, list[tuple[int, float]]]] | None = None

    def to_json(self) -> str:
        payload = {
            "acc_base": self.acc_base,
            "acc_new": self.acc_new,
            "acc_h": self.acc_h,
            "per_domain": {str(k): v for k, v in self.per_domain.items()},
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "config": self.config,
        }
        if self.topk is not None:
            payload["topk"] = [
                [sample, [[int(c), float(s)] for c, s in ranked]]
                for sample, ranked in self.topk
            ]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        topk = None
        if "topk" in payload:
            topk = [
                (int(sample), [(int(c), float(s)) for c, s in ranked])
                for sample, ranked in payload["topk"]
            ]
        return cls(
            acc_base=payload["acc_base"],
            acc_new=payload["acc_new"],
            acc_h=payload["acc_h"],
            per_domain={int(k): v for k, v in payload["per_domain"].items()},
            per_class={int(k): v for k, v in payload["per_class"].items()},
            config=payload["config"],
            topk=topk,
        )


# cap on the scores evaluate holds at once: rows are scored in blocks of
# max(2, SCORE_BLOCK_ELEMENTS // C), so its memory does not grow with N
SCORE_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(n: int, num_classes: int) -> list[slice]:
    """Row slices of at most SCORE_BLOCK_ELEMENTS scores, two rows at least.

    A lone last row joins the block before it: numpy multiplies a one-row
    matrix through gemv, whose sums may differ from gemm's in the last bit,
    and each block's scores must equal the rows of the whole-matrix product.
    """
    rows = max(2, SCORE_BLOCK_ELEMENTS // num_classes)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _scores(encoder: Encoder, weights_t: np.ndarray, x: np.ndarray,
            normalize: bool) -> np.ndarray:
    """Scores of the rows of x against the class columns of weights_t.

    With `normalize` the encoder output is L2-normalized first (cosine
    similarities against the bank); without, the raw output gives
    linear-head logits. The floating-point operations are those of
    `similarities(bank, embed(encoder, x))` and `linear_head_logits`.
    """
    _, r = mlp_forward(x, encoder.w1.data, encoder.b1.data, encoder.w2.data,
                       encoder.b2.data, encoder.skip_nonlinearity)
    if not np.isfinite(r).all():  # a NaN in w2 or b2 passes the pre-activation check
        raise NonFiniteError("non-finite encoder output")
    if normalize:
        r /= np.maximum(np.linalg.norm(r, axis=-1, keepdims=True), NORM_EPS)
    return r @ weights_t


def _sweeps_pay(k: int, num_classes: int) -> bool:
    """Whether k masked argmax sweeps over a score block cost less than one
    stable argsort of it.

    Measured per block of 2^18 float64 scores (numpy 2.4, one core): a sweep
    takes 1.5 ms at C=20, 0.27 ms at C=100 and 0.12 ms at C=1000, and the
    stable argsort 11, 14 and 27 ms. So a sweep costs about C + 250 score
    visits per row and the sort at least 100 C; a fixed cutoff on k would be
    7 at C=20 and over 200 at C=1000.
    """
    return k * (num_classes + 250) <= 100 * num_classes


def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and values of the k highest scores of each row, best first, ties
    toward the lower id: the first k columns of a stable argsort of -scores.

    Sweep j takes each row's argmax, which is its first maximum, records it
    and masks it with -inf; the recorded values are written back at the end,
    so `scores` is left as it was found. A row whose picks reach a -inf (or
    a NaN) score could pick an id twice and is ranked by the stable argsort,
    as all rows are when k >= C or when k sweeps cost more than the sort.
    """
    n, num_classes = scores.shape
    if k >= num_classes or not _sweeps_pay(k, num_classes):
        ids = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return ids, np.take_along_axis(scores, ids, axis=1)
    work = np.ascontiguousarray(scores)
    flat = work.reshape(-1)
    ids = np.empty((k, n), dtype=np.intp)
    pos = np.empty((k, n), dtype=np.intp)
    vals = np.empty((k, n), dtype=scores.dtype)
    row_starts = np.arange(0, n * num_classes, num_classes)
    for j in range(k):
        np.argmax(work, axis=1, out=ids[j])
        np.add(row_starts, ids[j], out=pos[j])
        flat.take(pos[j], out=vals[j])
        flat[pos[j]] = -np.inf
    for j in reversed(range(k)):  # a twice-picked id gets its first value last
        flat[pos[j]] = vals[j]
    ids, vals = ids.T, vals.T
    redo = np.flatnonzero(~(vals > -np.inf).all(axis=1))
    if redo.size:
        ids[redo] = np.argsort(-scores[redo], axis=1, kind="stable")[:, :k]
        vals[redo] = np.take_along_axis(scores[redo], ids[redo], axis=1)
    return ids, vals


def _accuracy_by(groups: np.ndarray, correct: np.ndarray) -> dict[int, float]:
    """Accuracy of each group id present, in ascending id order."""
    keys, inverse = np.unique(groups, return_inverse=True)
    hits = np.bincount(inverse, weights=correct, minlength=keys.size)
    counts = np.bincount(inverse, minlength=keys.size)
    return dict(zip(keys.tolist(), (hits / counts).tolist()))


def _share(correct: np.ndarray, mask: np.ndarray) -> float:
    n = int(np.count_nonzero(mask))
    return int(np.count_nonzero(correct & mask)) / n if n else 0.0


def evaluate(
    encoder: Encoder,
    bank: ClassBank,
    subset: SplitSubset,
    base_classes,
    tau: float = 0.01,
    head: LinearHead | None = None,
    topk: int | None = None,
) -> EvalReport:
    """Score every sample against all C classes; argmax predicts
    (ties broken toward the lowest class id).

    Rows are scored in blocks of at most SCORE_BLOCK_ELEMENTS scores. Each
    block keeps only its predictions and, with `topk`, its top-k ids and
    their temperature-scaled softmax probabilities; `topk` > C gives C. With
    `topk` the prediction is the first top-k id, which is the argmax on every
    row without a NaN score (only an overflowing linear head gives one).
    `tau` must be finite and positive.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    features = np.asarray(subset.features)
    n = features.shape[0]
    if n == 0:
        raise ValueError("empty evaluation split")
    if topk is not None and topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    if features.ndim != 2 or features.shape[1] != encoder.d_in:
        raise ShapeError(f"encoder expects N x {encoder.d_in} features, got {features.shape}")
    if head is None:
        if encoder.d_out != bank.dim:
            raise ShapeError(f"encoder output dim {encoder.d_out} vs bank dim {bank.dim}")
        weights_t = np.ascontiguousarray(bank.embeddings.T)
    else:
        if head.d_in != encoder.d_out:
            raise ShapeError(f"linear head input dim {head.d_in} vs encoder output dim "
                             f"{encoder.d_out}")
        if not np.isfinite(head.weights.data).all():
            raise NonFiniteError("non-finite linear head weights")
        weights_t = np.ascontiguousarray(head.weights.data.T)  # as tensor.transpose builds it
    num_classes = weights_t.shape[1]

    preds = np.empty(n, dtype=np.int64)
    if topk is not None:
        k = min(topk, num_classes)
        top_ids = np.empty((n, k), dtype=np.int64)
        top_probs = np.empty((n, k))
    for block in _row_blocks(n, num_classes):
        scores = _scores(encoder, weights_t, np.asarray(features[block], dtype=np.float64),
                         normalize=head is None)
        if topk is None:
            preds[block] = np.argmax(scores, axis=1)
            continue
        ids, vals = _top_k(scores, k)
        preds[block] = ids[:, 0]
        top_ids[block] = ids
        # report temperature-scaled softmax probabilities as scores; for
        # tau > 0 the row maximum of scores / tau is the top score / tau
        scores /= tau
        scores -= vals[:, :1] / tau
        np.exp(scores, out=scores)
        total = scores.sum(axis=1, keepdims=True)
        top_probs[block] = np.take_along_axis(scores, ids, axis=1) / total

    labels = np.asarray(subset.labels, dtype=np.int64)
    correct = preds == labels
    is_base = np.isin(labels, np.asarray(base_classes, dtype=np.int64))
    acc_base = _share(correct, is_base)
    acc_new = _share(correct, ~is_base)

    topk_list = None
    if topk is not None:
        # one flat list of (id, probability) pairs, k of them per sample
        pairs = list(zip(top_ids.ravel().tolist(), top_probs.ravel().tolist()))
        topk_list = [(sample, pairs[start:start + k])
                     for sample, start in zip(np.asarray(subset.indices).tolist(),
                                              range(0, n * k, k))]

    return EvalReport(
        acc_base=acc_base,
        acc_new=acc_new,
        acc_h=harmonic_mean(acc_base, acc_new),
        per_domain=_accuracy_by(np.asarray(subset.domains, dtype=np.int64), correct),
        per_class=_accuracy_by(labels, correct),
        topk=topk_list,
    )


# ---------------------------------------------------------------------------
# Run file container


@dataclass
class RunFile:
    config: dict
    loss_curve: np.ndarray  # float32
    final_params: np.ndarray  # float64
    ensemble_params: np.ndarray  # float64


def save_run(path, config: dict, loss_curve, final_params, ensemble_params) -> None:
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    curve = np.ascontiguousarray(loss_curve, dtype="<f4")
    final = np.ascontiguousarray(final_params, dtype="<f8")
    ens = np.ascontiguousarray(ensemble_params, dtype="<f8")
    if final.shape != ens.shape:
        raise ValueError("final and ensemble parameter vectors differ in length")
    with open(path, "wb") as fh:
        fh.write(RUN_MAGIC)
        fh.write(bytes([RUN_VERSION]))
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        fh.write(struct.pack("<I", curve.size))
        fh.write(curve.tobytes())
        fh.write(struct.pack("<I", final.size))
        fh.write(final.tobytes())
        fh.write(struct.pack("<I", ens.size))
        fh.write(ens.tobytes())


def load_run(path) -> RunFile:
    with open(path, "rb") as fh:
        reader = db.BoundedReader(fh, RunFileError)
        if reader.read(4, "magic") != RUN_MAGIC:
            raise RunFileError("bad run-file magic")
        if reader.read(1, "version")[0] != RUN_VERSION:
            raise RunFileError("unsupported run-file version")
        (clen,) = struct.unpack("<I", reader.read(4, "config length"))
        raw = reader.read(clen, "config")
        try:
            config = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RunFileError(f"run config is not UTF-8 JSON: {exc}") from None
        (t,) = struct.unpack("<I", reader.read(4, "curve length"))
        curve = reader.array("<f4", t, "loss curve")
        (p,) = struct.unpack("<I", reader.read(4, "final length"))
        final = reader.array("<f8", p, "final params")
        (q,) = struct.unpack("<I", reader.read(4, "ensemble length"))
        ens = reader.array("<f8", q, "ensemble params")
    if reader.left:
        raise RunFileError(f"{reader.left} trailing bytes after the ensemble params")
    return RunFile(config=config, loss_curve=curve, final_params=final, ensemble_params=ens)


# ---------------------------------------------------------------------------
# CLI


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_margin(text: str) -> tuple[str, float]:
    if text == "adaptive":
        return L.MARGIN_ADAPTIVE, 0.0
    if text == "none":
        return L.MARGIN_NONE, 0.0
    if text.startswith("fixed:"):
        return L.MARGIN_FIXED, float(text.split(":", 1)[1])
    raise UsageError(f"bad --margin value {text!r}; use adaptive, fixed:<m> or none")


def _parse_ensemble(text: str) -> tuple[str, float]:
    if text in (tr.ENSEMBLE_BMA, tr.ENSEMBLE_AVG, tr.ENSEMBLE_NONE):
        return text, 0.999
    if text.startswith("ema:"):
        return tr.ENSEMBLE_EMA, float(text.split(":", 1)[1])
    if text == "ema":
        return tr.ENSEMBLE_EMA, 0.999
    raise UsageError(f"bad --ensemble value {text!r}; use bma, ema:<decay>, avg or none")


def build_parser() -> _Parser:
    parser = _Parser(prog="oodtune", description="Synthetic OOD fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic embedding archive")
    gen.add_argument("--classes", type=int, default=20)
    gen.add_argument("--domains", type=int, default=3)
    gen.add_argument("--embed-dim", type=int, default=32)
    gen.add_argument("--input-dim", type=int, default=48)
    gen.add_argument("--per-class", type=int, default=50)
    gen.add_argument("--base-fraction", type=float, default=0.5)
    gen.add_argument("--test-domain", type=int, default=2)
    gen.add_argument("--noise-sigma", type=float, default=0.1)
    gen.add_argument("--domain-strength", type=float, default=0.5)
    gen.add_argument("--shots", type=int, default=None,
                     help="per-class-per-domain cap on train samples")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    # the flags train and ablate share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True)
    common.add_argument("--lr", type=float, default=3e-3)
    common.add_argument("--batch", type=int, default=36)
    common.add_argument("--hidden", type=int, default=64)
    common.add_argument("--base-fraction", type=float, default=0.5)
    common.add_argument("--test-domain", type=int, default=None,
                        help="held-out domain; defaults to the last one")

    train = sub.add_parser("train", parents=[common],
                           help="fine-tune on the base-class training domains")
    train.add_argument("--out", required=True)
    train.add_argument("--lambda", dest="lam", type=float, default=0.3)
    train.add_argument("--beta", type=float, default=0.5)
    train.add_argument("--tau", type=float, default=0.01)
    train.add_argument("--steps", type=int, default=5000)
    train.add_argument("--weight-decay", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--margin", default="adaptive")
    train.add_argument("--ensemble", default="bma")
    train.add_argument("--head", choices=[tr.HEAD_METRIC, tr.HEAD_LINEAR], default=tr.HEAD_METRIC)
    train.add_argument("--bma-every", type=int, default=1)
    train.add_argument("--shots", type=int, default=None)

    ev = sub.add_parser("eval", help="evaluate a run file on a protocol split")
    ev.add_argument("--run", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=["domain", "open", "both", "train"], default="both")
    ev.add_argument("--params", choices=["ensemble", "final", "zero"], default="ensemble")
    ev.add_argument("--topk", type=int, default=None)
    ev.add_argument("--json", action="store_true")

    ab = sub.add_parser("ablate", parents=[common],
                        help="sweep margin x ensemble and report mean H")
    ab.add_argument("--seeds", type=int, default=5)
    ab.add_argument("--steps", type=int, default=300)
    ab.add_argument("--json", action="store_true")
    return parser


def _splits(archive: db.EmbeddingArchive, base_fraction: float, test_domain: int | None,
            seed: int, shots: int | None = None) -> db.Splits:
    """The protocol cells of the archive for one seed; a test_domain of None
    holds out the last domain."""
    m = archive.num_domains
    return db.split(archive, db.BenchmarkSpec(
        num_classes=archive.bank.num_classes,
        num_domains=m,
        embed_dim=archive.bank.dim,
        input_dim=archive.input_dim,
        samples_per_class_per_domain=1,  # unused by split()
        base_fraction=base_fraction,
        test_domain=m - 1 if test_domain is None else test_domain,
        seed=seed,
        shots=shots,
    ))


def _init_model(archive: db.EmbeddingArchive, seed: int, hidden: int,
                head: str) -> tuple[Encoder, LinearHead | None]:
    """The seeded initial encoder of a run on the archive, and with the
    linear head mode its head, initialized from the class bank."""
    rng = np.random.default_rng([seed, 0])
    encoder = Encoder.init(archive.input_dim, hidden, archive.bank.dim, rng)
    if head != tr.HEAD_LINEAR:
        return encoder, None
    linear = LinearHead.init(archive.bank.num_classes, archive.bank.dim, rng)
    return encoder, text_head_init(linear, archive.bank)


# run-config fields that eval reads, with the JSON types each may hold
_RUN_CONFIG_FIELDS = {
    "seed": int, "hidden": int, "head": str, "tau": (int, float),
    "input_dim": int, "embed_dim": int, "num_classes": int, "num_domains": int,
    "base_fraction": (int, float), "test_domain": int, "shots": (int, type(None)),
}


def _check_run_config(config, archive: db.EmbeddingArchive) -> None:
    """Raise RunFileError naming the first field of a run config that eval
    cannot use: missing, of the wrong type, or not matching the archive."""
    if not isinstance(config, dict):
        raise RunFileError("run config is not a JSON object")
    for key, kinds in _RUN_CONFIG_FIELDS.items():
        if key not in config:
            if key == "shots":  # optional: no cap on the train split
                continue
            raise RunFileError(f"run config lacks the field {key!r}")
        value = config[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise RunFileError(f"run config field {key!r} has the wrong type: {value!r}")
    if config["head"] not in (tr.HEAD_METRIC, tr.HEAD_LINEAR):
        raise RunFileError(f"run config field 'head' is unknown: {config['head']!r}")
    if not (math.isfinite(config["tau"]) and config["tau"] > 0):
        raise RunFileError(f"run config field 'tau' must be finite and positive: {config['tau']!r}")
    for key, actual in (("num_classes", archive.bank.num_classes), ("embed_dim", archive.bank.dim),
                        ("input_dim", archive.input_dim), ("num_domains", archive.num_domains)):
        if config[key] != actual:
            raise RunFileError(
                f"run config field {key!r} is {config[key]}, the archive has {actual}")


def _cmd_gen(args) -> int:
    spec = db.BenchmarkSpec(
        num_classes=args.classes,
        num_domains=args.domains,
        embed_dim=args.embed_dim,
        input_dim=args.input_dim,
        samples_per_class_per_domain=args.per_class,
        base_fraction=args.base_fraction,
        test_domain=args.test_domain,
        noise_sigma=args.noise_sigma,
        domain_strength=args.domain_strength,
        seed=args.seed,
        shots=args.shots,
    )
    db.save(db.generate(spec), args.out)
    print(f"wrote {args.out}")
    return 0


def _train_config(args, archive: db.EmbeddingArchive) -> tuple[tr.TrainerConfig, dict]:
    margin_mode, fixed_m = _parse_margin(args.margin)
    ensemble_mode, ema_decay = _parse_ensemble(args.ensemble)
    cfg = tr.TrainerConfig(
        steps=args.steps,
        batch_size=args.batch,
        base_lr=args.lr,
        weight_decay=args.weight_decay,
        beta=args.beta,
        loss=L.LossConfig(tau=args.tau, lam=args.lam,
                          margin_mode=margin_mode, fixed_margin=fixed_m),
        seed=args.seed,
        ensemble_mode=ensemble_mode,
        ema_decay=ema_decay,
        bma_every=args.bma_every,
        head=args.head,
    )
    if ensemble_mode in (tr.ENSEMBLE_BMA, tr.ENSEMBLE_AVG) and cfg.bma_every > cfg.steps:
        raise UsageError(f"--bma-every {cfg.bma_every} exceeds --steps {cfg.steps}: "
                         f"the {ensemble_mode} ensemble would get no update")
    # the run config echo: the config's fields with the loss fields inlined
    # and lam named lambda, plus the model, archive and split fields
    echo = asdict(cfg)
    echo.update(echo.pop("loss"))
    echo["lambda"] = echo.pop("lam")
    m = archive.num_domains
    echo.update(hidden=args.hidden, input_dim=archive.input_dim, embed_dim=archive.bank.dim,
                num_classes=archive.bank.num_classes, num_domains=m,
                base_fraction=args.base_fraction,
                test_domain=m - 1 if args.test_domain is None else args.test_domain,
                shots=args.shots)
    return cfg, echo


def _cmd_train(args) -> int:
    if args.hidden < 1:
        raise UsageError(f"--hidden must be >= 1, got {args.hidden}")
    archive = db.load(args.data)
    cfg, echo = _train_config(args, archive)
    splits = _splits(archive, args.base_fraction, args.test_domain, args.seed, args.shots)
    encoder, head = _init_model(archive, args.seed, args.hidden, args.head)
    result = tr.train(encoder, archive.bank,
                      tr.TrainSet(splits.train.features, splits.train.labels), cfg, head=head)
    save_run(args.out, echo, result.loss_curve, result.final_params, result.ensemble_params)
    print(f"wrote {args.out} (final loss {result.loss_curve[-1]:.4f})")
    return 0


def _cmd_eval(args) -> int:
    if args.topk is not None and args.topk < 1:
        raise UsageError(f"--topk must be >= 1, got {args.topk}")
    archive = db.load(args.data)
    run = load_run(args.run)
    config = run.config
    _check_run_config(config, archive)
    splits = _splits(archive, config["base_fraction"], config["test_domain"], config["seed"],
                     config.get("shots"))
    subset = {
        "domain": splits.test_domain_shift,
        "open": splits.test_open,
        "both": splits.test_both,
        "train": splits.train,
    }[args.split]

    encoder, head = _init_model(archive, config["seed"], config["hidden"], config["head"])
    if args.params != "zero":  # "zero" keeps the seeded initialization
        flat = run.final_params if args.params == "final" else run.ensemble_params
        unflatten_params(encoder.parameters() + ([head.weights] if head is not None else []),
                         flat)

    report = evaluate(encoder, archive.bank, subset, splits.base_classes,
                      tau=config["tau"], head=head, topk=args.topk)
    report.config = dict(config, split=args.split, params=args.params)
    if args.json:
        print(report.to_json())
    else:
        print(f"split={args.split} params={args.params}")
        print(f"  base accuracy: {report.acc_base:.4f}")
        print(f"  new accuracy:  {report.acc_new:.4f}")
        print(f"  harmonic mean: {report.acc_h:.4f}")
        for m, acc in sorted(report.per_domain.items()):
            print(f"  domain {m}: {acc:.4f}")
        for sample, ranked in report.topk or []:
            print(f"  sample {sample}: " + " ".join(f"{c}:{p:.4f}" for c, p in ranked))
    return 0


ABLATION_GRID = [
    ("adaptive", "bma"),
    ("adaptive", "none"),
    ("none", "bma"),
    ("none", "none"),
]


def run_ablation(archive: db.EmbeddingArchive, seeds: list[int], steps: int,
                 lr: float = 3e-3, batch: int = 36, hidden: int = 64,
                 base_fraction: float = 0.5, test_domain: int | None = None) -> dict:
    """Train every margin x ensemble variant per seed; report mean
    base/new/H on the domain+class split.

    Each margin variant is one `train` call with one lane per seed. The
    BMA ensemble only reads the parameters, so a run without an ensemble
    follows the same trajectory: its `final_params` give the `+none` row
    and its BMA average the `+bma` row.
    """
    if not seeds:
        raise ValueError("run_ablation needs at least one seed")
    trainsets, bases = [], []
    for seed in seeds:
        splits = _splits(archive, base_fraction, test_domain, seed)
        trainsets.append(tr.TrainSet(splits.train.features, splits.train.labels))
        bases.append(splits.base_classes)
    # the held-out-domain cell does not depend on the seed; the last seed's
    # other cells are not kept
    test = splits.test_both
    del splits
    accs = {}
    for margin in dict.fromkeys(m for m, _ in ABLATION_GRID):
        cfgs = [tr.TrainerConfig(steps=steps, batch_size=batch, base_lr=lr, seed=seed,
                                 loss=L.LossConfig(margin_mode=margin),
                                 ensemble_mode=tr.ENSEMBLE_BMA)
                for seed in seeds]
        encoders = [_init_model(archive, seed, hidden, tr.HEAD_METRIC)[0] for seed in seeds]
        results = tr.train(encoders, archive.bank, trainsets, cfgs)
        for encoder, result, base in zip(encoders, results, bases):
            for ensemble, flat in ((tr.ENSEMBLE_BMA, result.ensemble_params),
                                   (tr.ENSEMBLE_NONE, result.final_params)):
                encoder.set_flat(flat)
                report = evaluate(encoder, archive.bank, test, base, tau=cfgs[0].loss.tau)
                accs.setdefault(f"{margin}+{ensemble}", []).append(
                    (report.acc_base, report.acc_new, report.acc_h))
    results = {}
    for margin, ensemble in ABLATION_GRID:
        arr = np.array(accs[f"{margin}+{ensemble}"])
        results[f"{margin}+{ensemble}"] = {
            "acc_base": float(arr[:, 0].mean()),
            "acc_new": float(arr[:, 1].mean()),
            "acc_h": float(arr[:, 2].mean()),
        }
    return results


def _cmd_ablate(args) -> int:
    for flag, value in (("--seeds", args.seeds), ("--hidden", args.hidden)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    archive = db.load(args.data)
    results = run_ablation(
        archive, seeds=list(range(args.seeds)), steps=args.steps,
        lr=args.lr, batch=args.batch, hidden=args.hidden,
        base_fraction=args.base_fraction, test_domain=args.test_domain,
    )
    if args.json:
        print(json.dumps(results, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{'variant':<18} {'base':>8} {'new':>8} {'H':>8}")
        for name, row in results.items():
            print(f"{name:<18} {row['acc_base']:>8.4f} {row['acc_new']:>8.4f} {row['acc_h']:>8.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ArchiveFormatError, RunFileError, db.GenerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
