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
import contextlib
import json
import math
import os
import struct
import sys
import typing
from collections.abc import Iterator, Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import databench as db
from . import losses as L
from . import parallel
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


# (id, probability) pairs that a block of top-k rows holds at most, when a
# report's rows are built or serialized: their Python objects stay this size
# whatever the report's N
REPORT_BLOCK_PAIRS = 1 << 14


def _block_rows(k: int) -> int:
    return max(1, REPORT_BLOCK_PAIRS // max(k, 1))


class TopK(Sequence):
    """The top-k rows of a report, over three arrays: `samples` (N sample
    indices), `ids` (N x k class ids, best first) and `probs` (their N x k
    probabilities).

    A row is `(sample, [(id, prob), ...])` of Python ints and floats.
    Indexing, slicing (to a list) and iteration build rows on demand, a
    block of at most REPORT_BLOCK_PAIRS pairs at a time; the arrays are
    read-only views. Equal to any sequence of equal rows.
    """

    __slots__ = ("samples", "ids", "probs")

    def __init__(self, samples: np.ndarray, ids: np.ndarray, probs: np.ndarray):
        if ids.ndim != 2 or probs.shape != ids.shape or samples.shape != ids.shape[:1]:
            raise ShapeError(f"top-k arrays of shapes {samples.shape}, {ids.shape} and "
                             f"{probs.shape}; expected N, N x k and N x k")
        self.samples, self.ids, self.probs = samples.view(), ids.view(), probs.view()
        for arr in (self.samples, self.ids, self.probs):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.samples.shape[0]

    def _rows(self, index: slice) -> list[tuple[int, list[tuple[int, float]]]]:
        return [(sample, list(zip(ids, probs))) for sample, ids, probs in
                zip(self.samples[index].tolist(), self.ids[index].tolist(),
                    self.probs[index].tolist())]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._rows(index)
        i = range(len(self))[index]  # IndexError out of range; negative from the end
        return self._rows(slice(i, i + 1))[0]

    def __iter__(self):
        step = _block_rows(self.ids.shape[1])
        for start in range(0, len(self), step):
            yield from self._rows(slice(start, start + step))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclass
class EvalReport:
    acc_base: float
    acc_new: float
    acc_h: float
    per_domain: dict[int, float]
    per_class: dict[int, float]
    config: dict = field(default_factory=dict)
    # a TopK from evaluate; from_json and hand-built reports hold a list
    topk: Sequence[tuple[int, list[tuple[int, float]]]] | None = None

    def json_chunks(self) -> Iterator[str]:
        """The report's JSON text in pieces, the "topk" rows a block at a
        time, so the whole text is never held; `to_json` joins them."""
        payload = {
            "acc_base": self.acc_base,
            "acc_new": self.acc_new,
            "acc_h": self.acc_h,
            "per_domain": {str(k): v for k, v in self.per_domain.items()},
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "config": self.config,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if self.topk is None:
            yield text
            return
        # "topk" sorts after every other key, so its rows are appended a
        # block at a time, each block's list text without its brackets;
        # numpy scalars in hand-built rows are written as their Python values
        yield f'{text[:-1]},"topk":['
        topk = self.topk
        step = _block_rows(len(topk[0][1])) if len(topk) else 1
        for start in range(0, len(topk), step):
            rows = json.dumps(topk[start:start + step], separators=(",", ":"),
                              default=lambda v: v.item())[1:-1]
            yield f",{rows}" if start else rows
        yield "]}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

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

    The partition depends on N and C alone, so a report does not depend on
    the thread count. A block's scores equal the `Tape`'s scores of the
    same rows, not always the same rows of the whole-matrix product: BLAS
    may sum a product of a few rows in another order. A lone last row joins
    the block before it, since numpy multiplies a one-row matrix through
    gemv, whose sums may differ from gemm's in the last bit.
    """
    rows = max(2, SCORE_BLOCK_ELEMENTS // num_classes)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _embed(encoder: Encoder, x: np.ndarray, normalize: bool) -> np.ndarray:
    """The encoder output of the rows of x, L2-normalized with `normalize`
    (for cosine similarities against the bank), raw without (for
    linear-head logits). The floating-point operations are those of
    `embed(encoder, x)` and `encoder.forward_raw(x)`.
    """
    _, r = mlp_forward(x, encoder.w1.data, encoder.b1.data, encoder.w2.data, encoder.b2.data)
    if not np.isfinite(r).all():  # a NaN in w2 or b2 passes the pre-activation check
        raise NonFiniteError("non-finite encoder output")
    if normalize:
        r /= np.maximum(np.linalg.norm(r, axis=-1, keepdims=True), NORM_EPS)
    return r


def _scores(encoder: Encoder, weights_t: np.ndarray, x: np.ndarray,
            normalize: bool) -> np.ndarray:
    """Scores of the rows of x against the class columns of weights_t, with
    the floating-point operations of `similarities(bank, embed(encoder, x))`
    (`normalize`) or `linear_head_logits`."""
    return _embed(encoder, x, normalize) @ weights_t


def _screens(num_classes: int, dim: int) -> bool:
    """Whether `evaluate` screens a plain metric-head argmax in float32:
    where C >= 400, d >= 32 and d^1.5 <= 4C.

    A block's chance of a near tie, which scores it twice, grows about as
    d^1.5 / C: δ grows as d, the gap between a row's two best scores
    shrinks as 1/√d, and a block holds 2^18 / C rows. On blocks of random
    unit rows (numpy 2.4, OpenBLAS, one thread) the screen and the float64
    rescoring of flagged blocks took 0.59-0.95 of the float64 argmax's time
    at 11 shapes inside the rule (C from 400 to 10,000, d from 32 to 256),
    and 1.02-2.02 of it at C = 20 to 200 with d = 32 or 64, at C = 400
    with d = 4 or 8, and at d^1.5 >= 10C. The rule leaves out some shapes
    that gained less (0.80-0.93: C = 600 or 1000 with d = 4 to 16, C = 1000
    with d = 256, C = 200 with d = 64).
    """
    return num_classes >= 400 and dim >= 32 and dim ** 3 <= 16 * num_classes ** 2


def _screen_gap(bank_t: np.ndarray) -> float:
    """2δ, with a few ulps of slack, where δ bounds |float32 score - float64
    score| of a normalized row z from `_embed` against a column b of
    `bank_t` (d x C, d >= 4):

        δ = (2u + u² + γ_d(u)(1 + u)² + γ_d(2⁻⁵³)) A + d 2⁻¹⁴⁹

    with u = 2⁻²⁴, γ_d(v) = dv / (1 - dv) and A >= max ‖z‖ max ‖b‖. The
    two casts to float32 move z_i b_i by at most (2u + u²)|z_i b_i|; a dot
    product of d terms, in any order, with or without fused multiply-adds,
    errs by at most γ_d of its unit roundoff times Σ|z_i b_i| <= A, or
    (1 + u)² A for the cast values; float32 underflow, at most 2⁻¹⁵⁰ per
    cast or product, adds less than d 2⁻¹⁴⁹. `_embed` divides z by its
    computed norm (or by NORM_EPS, when below it), so ‖z‖ <= 1 + (d/2 + 2)
    2⁻⁵³; with the same allowance for the error of the columns' computed
    norms, A = max ‖b‖ (1 + d 2⁻⁵⁰) holds. A `ClassBank` renormalizes its
    rows, so A is about 1.
    """
    dim = bank_t.shape[0]
    u = 2.0 ** -24

    def gamma(v: float) -> float:
        return dim * v / (1 - dim * v)

    a = float(np.linalg.norm(bank_t, axis=0).max()) * (1 + dim * 2.0 ** -50)
    delta = (2 * u + u * u + gamma(u) * (1 + u) ** 2 + gamma(2.0 ** -53)) * a + dim * 2.0 ** -149
    return 2 * delta * (1 + 2.0 ** -48)


def _screened_argmax(z: np.ndarray, bank32_t: np.ndarray, gap: float,
                     out: np.ndarray) -> np.ndarray | None:
    """The argmax of each row of the float64 product of z and the bank,
    read off the float32 product z32 @ bank32_t, or None when some row's
    best and second-best float32 scores lie within `gap` = 2δ
    (`_screen_gap`) of each other.

    Otherwise every row's float32 best beats each other float32 score by
    more than 2δ, so its float64 score beats every other float64 score: the
    float64 argmax is unique and the float32 one, ties to the lowest id
    included. The float32 scores fill the first half of `out`, the N x C
    float64 array that a flagged block's float64 scores then overwrite: a
    block holds one score buffer, of the float64 path's size. The caller
    scores the whole flagged block, since BLAS may sum a product of some of
    its rows in another order.
    """
    n, num_classes = out.shape
    scores = out.reshape(-1).view(np.float32)[:n * num_classes].reshape(n, num_classes)
    np.matmul(z.astype(np.float32), bank32_t, out=scores)
    rows = np.arange(n)
    ids = np.argmax(scores, axis=1)
    best = scores[rows, ids].astype(np.float64)
    scores[rows, ids] = -np.inf
    # the difference of two float32 values in float64 is exact, or rounds
    # by 2⁻⁵³ relatively, which the gap's slack covers
    if (best - scores.max(axis=1) <= gap).any():
        return None
    return ids


def _ranking(k: int, num_classes: int) -> str:
    """The cheapest way for `_top_k` to rank k of C scores per row: "sweeps"
    (k masked argmax sweeps), "partial" (a partition, then a sort of the
    k) or "argsort" (a stable argsort of the whole row).

    The costs are ns per row, fitted to median timings of each method on
    blocks of 2^18 float64 scores, C from 20 to 4000 and k from 1 to C - 1
    (numpy 2.4, one core). Over those 151 points the pick was the fastest
    method at 141, within 4% of it at 146 and never more than 26% slower.
    It takes sweeps up to k = 13 at C = 100 and k = 20 at C = 1000, the
    partial sort from there to k of about 0.6 C, and the argsort above; at
    C = 20 the argsort from k = 6 on.
    """
    if k >= num_classes:
        return "argsort"
    costs = {
        "sweeps": k * (0.44 * num_classes + 113),
        "partial": 9.6 * num_classes + 12.2 * k * math.log2(k) + 585,
        "argsort": 8.0 * num_classes * math.log2(num_classes),
    }
    return min(costs, key=costs.get)


def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids and values of the k highest scores of each row, best first, ties
    toward the lower id: the first k columns of a stable argsort of -scores.

    With sweeps, sweep j takes each row's argmax, which is its first
    maximum, records it and masks it with -inf; the recorded values are
    written back at the end, so `scores` is left as it was found. A row
    whose picks reach a -inf (or a NaN) score could pick an id twice. With
    the partial sort, a row whose k-th best score ties the (k+1)-th (or
    where a NaN is among them) had its top k chosen among the tied ids
    arbitrarily. Such rows are ranked by the stable argsort, as all rows
    are when `_ranking` picks it.
    """
    n, num_classes = scores.shape
    ranking = _ranking(k, num_classes)
    if ranking == "argsort":
        ids = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        return ids, np.take_along_axis(scores, ids, axis=1)
    if ranking == "partial":
        # negated in place and back, which is exact, so that a block holds
        # no second copy of its scores beside the partition's indices
        neg = np.negative(scores, out=scores)
        part = np.argpartition(neg, k, axis=1)
        # ids ascending, then a stable sort by score: the order of a stable
        # argsort among the k
        top = np.sort(part[:, :k], axis=1)
        next_best = np.take_along_axis(neg, part[:, k:k + 1], axis=1)[:, 0]
        del part
        order = np.argsort(np.take_along_axis(neg, top, axis=1), axis=1, kind="stable")
        ids = np.take_along_axis(top, order, axis=1)
        np.negative(neg, out=scores)
        vals = np.take_along_axis(scores, ids, axis=1)
        redo = np.flatnonzero(~(-vals[:, -1] < next_best))
    else:
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
    tau: float = L.LossConfig.tau,
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

    With `topk` the report's `topk` is a `TopK` over the N x k id and
    probability arrays the blocks fill and the subset's indices: no
    per-sample Python object is built, and its rows are made on demand.

    Without `topk` or `head`, at the shapes `_screens` picks, a block's
    argmax is read off a float32 product with a float32 copy of the bank,
    built once per call (`_screened_argmax`). A block where some row's two
    best float32 scores lie within 2δ (`_screen_gap`) is scored whole in
    float64, as every block is on the other paths. Predictions and reports
    are those of the float64 path exactly, and a block holds one score
    buffer of the float64 path's size. Top-k needs every float64 score for
    its softmax, and linear logits have no bound, so neither is screened.

    Each block's rows come from `subset.row_source()`: for a cell of
    `databench.Splits` whose `.features` has not been read, from the
    archive on each call, so the cell is never copied. The labels, domains
    and indices must hold one entry per row (ShapeError otherwise).

    Blocks are scored on a `parallel.Crew` of up to
    `parallel.worker_threads()` threads, the caller's among them, one block
    per thread at a time; of failing blocks, the first one's error is
    raised. Each block runs the same operations and writes only its own
    rows, so the report does not depend on the thread count; a one-block
    call starts no thread.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    source, positions = subset.row_source()
    shape = source.shape if positions is None else positions.shape + source.shape[1:]
    n = shape[0]
    if n == 0:
        raise ValueError("empty evaluation split")
    if topk is not None and topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    if len(shape) != 2 or shape[1] != encoder.d_in:
        raise ShapeError(f"encoder expects N x {encoder.d_in} features, got {shape}")
    per_row = {name: np.asarray(getattr(subset, name), dtype=np.int64)
               for name in ("labels", "domains", "indices")}
    for name, values in per_row.items():
        if values.shape != (n,):
            raise ShapeError(f"subset {name} of shape {values.shape} for {n} feature rows; "
                             f"expected ({n},)")
    labels, domains, indices = per_row.values()
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

    screen = head is None and topk is None and _screens(num_classes, bank.dim)
    if screen:
        bank32_t = weights_t.astype(np.float32)
        gap = _screen_gap(weights_t)

    def score(block: slice) -> None:
        rows = source[block] if positions is None else source.take(positions[block], axis=0)
        x = np.asarray(rows, dtype=np.float64)
        if screen:
            z = _embed(encoder, x, normalize=True)
            scores = np.empty((z.shape[0], num_classes))
            ids = _screened_argmax(z, bank32_t, gap, scores)
            if ids is not None:
                preds[block] = ids
                return
            np.matmul(z, weights_t, out=scores)  # a near tie: the whole block in float64
        else:
            scores = _scores(encoder, weights_t, x, normalize=head is None)
        if topk is None:
            preds[block] = np.argmax(scores, axis=1)
            return
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

    blocks = _row_blocks(n, num_classes)
    with parallel.Crew(min(len(blocks), parallel.worker_threads())) as crew:
        crew.run(score, blocks)

    correct = preds == labels
    is_base = np.isin(labels, np.asarray(base_classes, dtype=np.int64))
    acc_base = _share(correct, is_base)
    acc_new = _share(correct, ~is_base)

    return EvalReport(
        acc_base=acc_base,
        acc_new=acc_new,
        acc_h=harmonic_mean(acc_base, acc_new),
        per_domain=_accuracy_by(domains, correct),
        per_class=_accuracy_by(labels, correct),
        topk=None if topk is None else TopK(indices, top_ids, top_probs),
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
        for section in (curve, final, ens):
            fh.write(struct.pack("<I", section.size))
            fh.write(section.tobytes())


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
    """Raises UsageError; it and its subcommands take each flag by its whole
    name only (argparse would read `--seed` as `--seeds`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _kind_number(flag: str, text: str, kinds: tuple[str, ...], numbered: str,
                 default: float) -> tuple[str, float]:
    """Read a `<kind>` or `<numbered>:<number>` flag value as (kind, number);
    a value without a number gives `default`."""
    kind, colon, number = text.partition(":")
    if kind in kinds and (kind == numbered or not colon):
        with contextlib.suppress(ValueError):
            return kind, float(number) if colon else default
    raise UsageError(f"bad {flag} value {text!r}; use {numbered}:<number> or one of "
                     f"{', '.join(kinds)}")


# the least value of each integer a run records; the CLI flags of the same
# names are held to it as usage errors
_LEAST = {"seed": 0, "hidden": 1, "shots": 1}

# the encoder's hidden width unless --hidden sets it
DEFAULT_HIDDEN = 64

# eval --split choices and the protocol cell each scores
_SPLIT_CELLS = {"domain": "test_domain_shift", "open": "test_open", "both": "test_both",
                "train": "train"}


def build_parser() -> _Parser:
    parser = _Parser(prog="oodtune", description="Synthetic OOD fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # defaults that a config field holds are read from its class
    spec, cfg, loss = db.BenchmarkSpec, tr.TrainerConfig, L.LossConfig
    gen = sub.add_parser("gen", help="generate a synthetic embedding archive")
    gen.add_argument("--classes", type=int, default=spec.num_classes)
    gen.add_argument("--domains", type=int, default=spec.num_domains)
    gen.add_argument("--embed-dim", type=int, default=spec.embed_dim)
    gen.add_argument("--input-dim", type=int, default=spec.input_dim)
    gen.add_argument("--per-class", type=int, default=spec.samples_per_class_per_domain)
    gen.add_argument("--test-domain", type=int,
                     help="only checked against --domains: the archive holds every domain; "
                          "defaults to the last one")
    gen.add_argument("--noise-sigma", type=float, default=spec.noise_sigma)
    gen.add_argument("--domain-strength", type=float, default=spec.domain_strength)
    gen.add_argument("--seed", type=int, default=spec.seed)
    gen.add_argument("--out", required=True)

    # the flags train and ablate share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True)
    common.add_argument("--lr", type=float, default=cfg.base_lr)
    common.add_argument("--batch", type=int, default=cfg.batch_size)
    common.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    common.add_argument("--base-fraction", type=float, default=spec.base_fraction)
    common.add_argument("--test-domain", type=int,
                        help="held-out domain; defaults to the last one")

    train = sub.add_parser("train", parents=[common],
                           help="fine-tune on the base-class training domains")
    train.add_argument("--out", required=True)
    train.add_argument("--lambda", dest="lam", type=float, default=loss.lam)
    train.add_argument("--beta", type=float, default=cfg.beta)
    train.add_argument("--tau", type=float, default=loss.tau)
    train.add_argument("--steps", type=int, default=cfg.steps)
    train.add_argument("--weight-decay", type=float, default=cfg.weight_decay)
    train.add_argument("--seed", type=int, default=cfg.seed)
    train.add_argument("--margin", default=loss.margin_mode)
    train.add_argument("--ensemble", default=cfg.ensemble_mode)
    train.add_argument("--head", choices=[tr.HEAD_METRIC, tr.HEAD_LINEAR], default=cfg.head)
    train.add_argument("--bma-every", type=int, default=cfg.bma_every)
    train.add_argument("--shots", type=int)

    ev = sub.add_parser("eval", help="evaluate a run file on a protocol split")
    ev.add_argument("--run", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=list(_SPLIT_CELLS), default="both")
    ev.add_argument("--params", choices=["ensemble", "final", "zero"], default="ensemble")
    ev.add_argument("--topk", type=int)
    ev.add_argument("--json", action="store_true")

    ab = sub.add_parser("ablate", parents=[common],
                        help="sweep margin x ensemble and report mean H")
    ab.add_argument("--seeds", type=int, default=5)
    ab.add_argument("--steps", type=int, default=300)
    ab.add_argument("--json", action="store_true")
    return parser


def _archive_sizes(archive: db.EmbeddingArchive) -> dict[str, int]:
    """The archive sizes a run config records, named as `BenchmarkSpec` names them."""
    return {"input_dim": archive.input_dim, "embed_dim": archive.bank.dim,
            "num_classes": archive.bank.num_classes, "num_domains": archive.num_domains}


@dataclass(frozen=True)
class RunSpec:
    """The run-config fields `eval` rebuilds a run from. Each annotation is
    the JSON type the field holds; a field with a default may be missing
    from a run config. A run config also holds the archive sizes, which
    `eval` checks, and the trainer config, which it does not read."""

    seed: int
    hidden: int
    head: str
    tau: float
    base_fraction: float
    test_domain: int
    shots: int | None = None  # no cap on the train split

    @classmethod
    def from_config(cls, config, archive: db.EmbeddingArchive) -> RunSpec:
        """The spec of a run config. RunFileError names the first field that
        eval cannot use: missing, of the wrong type or value, or not
        matching the archive."""
        if not isinstance(config, dict):
            raise RunFileError("run config is not a JSON object")
        sizes = _archive_sizes(archive)
        defaults = {f.name: f.default for f in fields(cls)}
        for key, kind in (typing.get_type_hints(cls) | dict.fromkeys(sizes, int)).items():
            if key not in config and defaults.get(key, MISSING) is MISSING:
                raise RunFileError(f"run config lacks the field {key!r}")
            value = config.get(key, defaults.get(key))
            kinds = int | float if kind is float else kind  # a JSON integer is a float too
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise RunFileError(f"run config field {key!r} has the wrong type: {value!r}")
        spec = cls(**{key: config.get(key, default) for key, default in defaults.items()})
        if spec.head not in (tr.HEAD_METRIC, tr.HEAD_LINEAR):
            raise RunFileError(f"run config field 'head' is unknown: {spec.head!r}")
        if not (math.isfinite(spec.tau) and spec.tau > 0):
            raise RunFileError(f"run config field 'tau' must be finite and positive: {spec.tau!r}")
        for key, least in _LEAST.items():
            value = getattr(spec, key)
            if value is not None and value < least:
                null = " or null" if defaults[key] is None else ""
                raise RunFileError(f"run config field {key!r} must be >= {least}{null}: {value!r}")
        for key, actual in sizes.items():
            if config[key] != actual:
                raise RunFileError(
                    f"run config field {key!r} is {config[key]}, the archive has {actual}")
        try:
            spec._benchmark(archive)
        except ValueError as exc:  # BenchmarkSpec's messages open with the field's name
            key = str(exc).split()[0]
            if key not in defaults:
                raise
            raise RunFileError(f"run config field {key!r}: {exc}") from None
        return spec

    def echo(self, cfg: tr.TrainerConfig, archive: db.EmbeddingArchive) -> dict:
        """The run config `train` writes: the trainer config's fields with
        the loss fields inlined and lam named lambda, the spec's fields and
        the archive sizes."""
        echo = asdict(cfg)
        echo.update(echo.pop("loss"))
        echo["lambda"] = echo.pop("lam")
        return echo | asdict(self) | _archive_sizes(archive)

    def param_count(self, archive: db.EmbeddingArchive) -> int:
        """Entries of the run's parameter vectors: the encoder's, and with the
        linear head its C x d weights."""
        d = archive.bank.dim
        count = self.hidden * (archive.input_dim + 1 + d) + d
        return count + archive.bank.num_classes * d if self.head == tr.HEAD_LINEAR else count

    def _benchmark(self, archive: db.EmbeddingArchive) -> db.BenchmarkSpec:
        """The spec `split` cuts the run's cells of the archive by."""
        return db.BenchmarkSpec(
            **_archive_sizes(archive),
            samples_per_class_per_domain=1,  # unused by split()
            base_fraction=self.base_fraction, test_domain=self.test_domain, seed=self.seed,
            shots=self.shots)

    def splits(self, archive: db.EmbeddingArchive) -> db.Splits:
        """The run's protocol cells of the archive."""
        return db.split(archive, self._benchmark(archive))

    def model(self, archive: db.EmbeddingArchive) -> tuple[Encoder, LinearHead | None]:
        """The seeded initial encoder of the run, and with the linear head
        its head, initialized from the class bank."""
        rng = np.random.default_rng([self.seed, 0])
        encoder = Encoder.init(archive.input_dim, self.hidden, archive.bank.dim, rng)
        if self.head != tr.HEAD_LINEAR:
            return encoder, None
        linear = LinearHead.init(archive.bank.num_classes, archive.bank.dim, rng)
        return encoder, text_head_init(linear, archive.bank)


def _check_out(path: str) -> None:
    """Raise OSError (exit 2) if no file can be written at `path`."""
    folder = os.path.dirname(path) or "."  # of "a/b/" it is a/b: a trailing slash is no file
    problem = ("is a directory" if os.path.isdir(path) else
               "is in a missing directory" if not os.path.isdir(folder) else
               "is in a directory that is not writable" if not os.access(folder, os.W_OK) else
               None)
    if problem is not None:
        raise OSError(f"--out {path} {problem}")


@contextlib.contextmanager
def _sized_by(what: str, args, *flags: str):
    """Turn a MemoryError inside into a ValueError (exit 2) that names the
    size flags, with their values, at which `what` did not fit."""
    try:
        yield
    except MemoryError:
        sizes = ", ".join(f"{flag} {getattr(args, flag[2:].replace('-', '_'))}" for flag in flags)
        raise ValueError(f"{what} does not fit in memory at {sizes}") from None


def _cmd_gen(args) -> int:
    _check_out(args.out)
    spec = db.BenchmarkSpec(
        num_classes=args.classes,
        num_domains=args.domains,
        embed_dim=args.embed_dim,
        input_dim=args.input_dim,
        samples_per_class_per_domain=args.per_class,
        test_domain=args.domains - 1 if args.test_domain is None else args.test_domain,
        noise_sigma=args.noise_sigma,
        domain_strength=args.domain_strength,
        seed=args.seed,
    )
    with _sized_by("the archive", args, "--classes", "--domains", "--per-class", "--embed-dim",
                   "--input-dim"):
        archive = db.generate(spec)
    db.save(archive, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_out(args.out)
    archive = db.load(args.data)
    margin_mode, fixed_m = _kind_number("--margin", args.margin, L.MARGIN_MODES, L.MARGIN_FIXED,
                                        L.LossConfig.fixed_margin)
    ensemble_mode, ema_decay = _kind_number("--ensemble", args.ensemble, tr.ENSEMBLE_MODES,
                                            tr.ENSEMBLE_EMA, tr.TrainerConfig.ema_decay)
    # the config rejects this too, but as a ValueError (exit 2); a --steps
    # below 1 is left to the config's own message
    if ensemble_mode in (tr.ENSEMBLE_BMA, tr.ENSEMBLE_AVG) and args.bma_every > args.steps >= 1:
        raise UsageError(f"--bma-every {args.bma_every} exceeds --steps {args.steps}: "
                         f"the {ensemble_mode} ensemble would get no update")
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
    held_out = archive.num_domains - 1 if args.test_domain is None else args.test_domain
    spec = RunSpec(seed=args.seed, hidden=args.hidden, head=args.head, tau=args.tau,
                   base_fraction=args.base_fraction, test_domain=held_out, shots=args.shots)
    splits = spec.splits(archive)
    with _sized_by("training", args, "--batch", "--hidden"):
        encoder, head = spec.model(archive)
        result = tr.train(encoder, archive.bank,
                          tr.TrainSet(splits.train.features, splits.train.labels), cfg, head=head)
    save_run(args.out, spec.echo(cfg, archive), result.loss_curve, result.final_params,
             result.ensemble_params)
    print(f"wrote {args.out} (final loss {result.loss_curve[-1]:.4f})")
    return 0


def _cmd_eval(args) -> int:
    archive = db.load(args.data)
    run = load_run(args.run)
    spec = RunSpec.from_config(run.config, archive)
    # checked before the model is built, whose size the config sets
    expected = spec.param_count(archive)
    for name, flat in (("final", run.final_params), ("ensemble", run.ensemble_params)):
        if flat.size != expected:
            raise RunFileError(f"the {name} parameter vector has {flat.size} entries, expected "
                               f"{expected} for the run config's model")
    splits = spec.splits(archive)
    subset = getattr(splits, _SPLIT_CELLS[args.split])  # gathers that cell alone

    encoder, head = spec.model(archive)
    if args.params != "zero":  # "zero" keeps the seeded initialization
        flat = run.final_params if args.params == "final" else run.ensemble_params
        unflatten_params(encoder.parameters() + ([head.weights] if head is not None else []),
                         flat)

    report = evaluate(encoder, archive.bank, subset, splits.base_classes,
                      tau=spec.tau, head=head, topk=args.topk)
    report.config = dict(run.config, split=args.split, params=args.params)
    if args.json:
        for chunk in report.json_chunks():
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
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
                 lr: float = tr.TrainerConfig.base_lr, batch: int = tr.TrainerConfig.batch_size,
                 hidden: int = DEFAULT_HIDDEN,
                 base_fraction: float = db.BenchmarkSpec.base_fraction,
                 test_domain: int | None = None) -> dict:
    """Train every margin x ensemble variant per seed; report mean
    base/new/H on the domain+class split.

    Each margin variant is one `train` call with one lane per seed. The
    BMA ensemble only reads the parameters, so a run without an ensemble
    follows the same trajectory: its `final_params` give the `+none` row
    and its BMA average the `+bma` row.
    """
    if not seeds:
        raise ValueError("run_ablation needs at least one seed")
    held_out = archive.num_domains - 1 if test_domain is None else test_domain
    specs = [RunSpec(seed=seed, hidden=hidden, head=tr.HEAD_METRIC, tau=L.LossConfig.tau,
                     base_fraction=base_fraction, test_domain=held_out) for seed in seeds]
    trainsets, bases = [], []
    for spec in specs:
        splits = spec.splits(archive)
        trainsets.append(tr.TrainSet(splits.train.features, splits.train.labels))
        bases.append(splits.base_classes)
    # the held-out-domain cell does not depend on the seed: the last seed's
    # is scored, and evaluate reads its feature rows from the archive, so no
    # test cell's features are copied
    test = splits.test_both
    del splits
    accs = {}
    for margin in dict.fromkeys(m for m, _ in ABLATION_GRID):
        cfgs = [tr.TrainerConfig(steps=steps, batch_size=batch, base_lr=lr, seed=spec.seed,
                                 loss=L.LossConfig(tau=spec.tau, margin_mode=margin),
                                 ensemble_mode=tr.ENSEMBLE_BMA)
                for spec in specs]
        encoders = [spec.model(archive)[0] for spec in specs]
        results = tr.train(encoders, archive.bank, trainsets, cfgs)
        for spec, encoder, result, base in zip(specs, encoders, results, bases):
            for ensemble, flat in ((tr.ENSEMBLE_BMA, result.ensemble_params),
                                   (tr.ENSEMBLE_NONE, result.final_params)):
                encoder.set_flat(flat)
                report = evaluate(encoder, archive.bank, test, base, tau=spec.tau)
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
    archive = db.load(args.data)
    with _sized_by("the sweep", args, "--seeds", "--batch", "--hidden"):
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
        for key, least in (_LEAST | {"seeds": 1, "topk": 1}).items():  # where a command takes it
            value = getattr(args, key, None)
            if value is not None and value < least:
                raise UsageError(f"--{key} must be >= {least}, got {value}")
        return {"gen": _cmd_gen, "train": _cmd_train, "eval": _cmd_eval,
                "ablate": _cmd_ablate}[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ArchiveFormatError, RunFileError, db.GenerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
