"""Scoring a protocol cell: base/new/harmonic-mean, per-domain and per-class
accuracy, and top-k predictions, in row blocks on a crew of threads."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from . import parallel
from .databench import SplitSubset
from .model import ClassBank, Encoder, LinearHead, mlp_forward
from .tensor import NORM_EPS, NonFiniteError, ShapeError


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
    # a TopK from evaluate; hand-built reports hold a list
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


def _scores(z: np.ndarray, weights_t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """z @ weights_t into `out` (N x C, C-contiguous), a block's only float64
    product: bit for bit the Tape's `similarities(bank, embed(encoder, x))`
    for z = `_embed(encoder, x, True)`, and its `matmul(encoder.forward_raw(x),
    transpose(head.weights))` for z = `_embed(encoder, x, False)`."""
    return np.matmul(z, weights_t, out=out)


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


def _accuracy_by(keys: np.ndarray, groups: np.ndarray, correct: np.ndarray) -> dict[int, float]:
    """Accuracy of each group present, in ascending order: `groups` holds
    each sample's group in [0, keys.size), and `keys` the groups' ids."""
    counts = np.bincount(groups)
    present = np.flatnonzero(counts)
    hits = np.bincount(groups, weights=correct)[present]
    return dict(zip(keys[present].tolist(), (hits / counts[present]).tolist()))


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
    `tau` must be finite and positive, and so must 1 / tau.

    With `topk` the report's `topk` is a `TopK` over the N x k id and
    probability arrays the blocks fill and the subset's indices: no
    per-sample Python object is built, and its rows are made on demand.

    Without `topk` or `head`, at the shapes `_screens` picks, a block's
    argmax is read off a float32 product with a float32 copy of the bank,
    built once per call (`_screened_argmax`). A block where some row's two
    best float32 scores lie within 2δ (`_screen_gap`) goes whole through
    the same `_scores` call as every unscreened block. Predictions and
    reports are those of the float64 path exactly, and a block holds one
    score buffer of the float64 path's size. Top-k needs every float64 score
    for its softmax, and linear logits have no bound: neither is screened.

    Each block's rows are read from `subset.source` at their `indices`, so
    no subset is copied. The indices must lie in [0, len(source))
    (IndexError otherwise), the labels and domains hold one entry per index
    (ShapeError otherwise), and the labels lie in [0, C)
    (`losses.LabelError`, a ValueError, otherwise).

    Blocks are scored on the call's `parallel.Crew(len(blocks))`, one
    block per thread at a time; of failing blocks, the first one's error is
    raised. Each block runs the same operations and writes only its own
    rows, so the report does not depend on the thread count. Once the crew
    is open, the caller allocates one float64 score buffer of the largest
    block's size per crew thread; a block takes a free one and scores into
    its first rows (the float32 screen, the float64 product, the
    linear-head logits and the softmax passes). What a worker allocates
    stays in its own malloc arena after the crew closes, unused by the
    caller's later arrays: while blocks allocated their own 2 MB score
    blocks, 16 open-eval set-ups and jobs in one process left each worker
    arena at 2.7 MB of system bytes with under 10 KB in use
    (`tools/arenas.py`), against 0.8 MB with the buffers held. Only the
    partial and argsort rankings of a large `topk` still allocate
    block-sized index arrays, as numpy's argpartition and argsort take no
    output array.
    """
    if not (math.isfinite(tau) and tau > 0 and math.isfinite(1.0 / tau)):
        raise ValueError(f"tau must be finite and positive, with a finite reciprocal, got {tau}")
    source, indices = np.asarray(subset.source), np.asarray(subset.indices, dtype=np.int64)
    n = len(indices)
    if n == 0:
        raise ValueError("empty evaluation split")
    if topk is not None and topk < 1:
        raise ValueError(f"topk must be >= 1, got {topk}")
    shape = indices.shape + source.shape[1:]
    if len(shape) != 2 or shape[1] != encoder.d_in:
        raise ShapeError(f"encoder expects N x {encoder.d_in} features, got {shape}")
    if not 0 <= indices.min() <= indices.max() < len(source):
        raise IndexError(f"subset indices {indices.min()}..{indices.max()} outside "
                         f"[0, {len(source)})")
    labels, domains = (np.asarray(getattr(subset, name), dtype=np.int64)
                       for name in ("labels", "domains"))
    for name, values in (("labels", labels), ("domains", domains)):
        if values.shape != (n,):
            raise ShapeError(f"subset {name} of shape {values.shape} for {n} feature rows; "
                             f"expected ({n},)")
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
    L._check_labels(labels, num_classes)

    preds = np.empty(n, dtype=np.int64)
    if topk is not None:
        k = min(topk, num_classes)
        top_ids = np.empty((n, k), dtype=np.int64)
        top_probs = np.empty((n, k))

    screen = head is None and topk is None and _screens(num_classes, bank.dim)
    if screen:
        bank32_t = weights_t.astype(np.float32)
        gap = _screen_gap(weights_t)

    blocks = _row_blocks(n, num_classes)

    def score(block: slice) -> None:
        buffer = free.pop()
        try:
            scores = buffer[:block.stop - block.start]
            x = np.asarray(source.take(indices[block], axis=0), dtype=np.float64)
            z = _embed(encoder, x, normalize=head is None)
            if screen:
                ids = _screened_argmax(z, bank32_t, gap, scores)
                if ids is not None:
                    preds[block] = ids
                    return
            scores = _scores(z, weights_t, scores)  # unscreened, or a near tie
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
        finally:
            free.append(buffer)

    with parallel.Crew(len(blocks)) as crew:
        # one score buffer per crew thread, allocated on the caller; a
        # running block holds one, so the list is never empty when popped
        rows = max(block.stop - block.start for block in blocks)
        free = [np.empty((rows, num_classes)) for _ in range(crew.threads)]
        crew.run(score, blocks)

    correct = preds == labels
    is_base = np.isin(labels, np.asarray(base_classes, dtype=np.int64))
    acc_base = _share(correct, is_base)
    acc_new = _share(correct, ~is_base)

    return EvalReport(
        acc_base=acc_base,
        acc_new=acc_new,
        acc_h=harmonic_mean(acc_base, acc_new),
        # a hand-built subset's domain ids have no bound, so they are sorted
        per_domain=_accuracy_by(*np.unique(domains, return_inverse=True), correct),
        per_class=_accuracy_by(np.arange(num_classes), labels, correct),
        topk=None if topk is None else TopK(indices, top_ids, top_probs),
    )
