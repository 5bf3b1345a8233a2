"""Two-tower classifier: a frozen class-embedding bank plus a small
trainable encoder mapping input features into the shared embedding space.

Also provides the linear-head baseline (raw dot-product logits over a
learnable class-vector matrix copied from the bank), and `trainables`,
the order of a run's parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .tensor import NonFiniteError, ShapeError, Tensor

NORM_TOLERANCE = 1e-6


class BankNormError(ValueError):
    """Raised when a class-bank row is too far from unit norm to repair."""


class ClassBank:
    """Frozen matrix of unit-norm class embeddings plus the pairwise
    margin matrix D[y][c] = 1 - <T_y, T_c>.

    Rows within NORM_TOLERANCE of unit norm are re-normalized on
    construction; anything further off is rejected. The arrays are
    marked read-only so training can never mutate them. The C x C margin
    matrix is built on its first read and then kept: only the adaptive
    margin loss reads it, so loading or scoring never pays for it.
    """

    def __init__(self, embeddings: np.ndarray, class_names: list[str]):
        emb = np.array(embeddings, dtype=np.float64)
        if emb.ndim != 2:
            raise ShapeError(f"class bank embeddings must be 2-D, got {emb.shape}")
        if len(class_names) != emb.shape[0]:
            raise ShapeError(
                f"{len(class_names)} class names for {emb.shape[0]} embedding rows"
            )
        norms = np.linalg.norm(emb, axis=1)
        off = np.abs(norms - 1.0)
        if not np.all(off <= NORM_TOLERANCE):  # a NaN row fails too
            worst = int(np.argmax(off))
            raise BankNormError(
                f"bank row {worst} has norm {norms[worst]:.8f}, "
                f"more than {NORM_TOLERANCE} from 1"
            )
        emb /= norms[:, None]
        emb.setflags(write=False)
        self.embeddings = emb
        self.class_names = list(class_names)

    @cached_property
    def margin_matrix(self) -> np.ndarray:
        emb = self.embeddings
        sims = emb @ emb.T
        sims = (sims + sims.T) / 2.0  # enforce exact symmetry
        margins = 1.0 - sims
        np.fill_diagonal(margins, 0.0)
        margins.setflags(write=False)
        return margins

    @property
    def num_classes(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class Encoder:
    """Two affine maps with an elementwise tanh between them."""

    w1: Tensor  # d_in x h
    b1: Tensor  # h
    w2: Tensor  # h x d
    b2: Tensor  # d

    @classmethod
    def init(cls, d_in: int, hidden: int, d_out: int, rng: np.random.Generator) -> "Encoder":
        for name, size in (("d_in", d_in), ("hidden", hidden), ("d_out", d_out)):
            if size < 1:
                raise ValueError(f"encoder {name} must be >= 1, got {size}")

        def affine(fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
            return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)

        w1, b1 = affine(d_in, hidden)
        w2, b2 = affine(hidden, d_out)
        return cls(w1, b1, w2, b2)

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def parameters(self) -> list[Tensor]:
        """Canonical parameter order: w1, b1, w2, b2 (row-major flattened)."""
        return [self.w1, self.b1, self.w2, self.b2]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward_raw(self, x: Tensor) -> Tensor:
        """Encoder output before L2 normalization."""
        if x.data.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeError(f"encoder expects B x {self.d_in} input, got {x.shape}")
        h = T.tanh(T.add(T.matmul(x, self.w1), self.b1))
        return T.add(T.matmul(h, self.w2), self.b2)

    def get_flat(self) -> np.ndarray:
        return flatten_params(self.parameters())

    def set_flat(self, flat: np.ndarray) -> None:
        unflatten_params(self.parameters(), flat)


def flatten_params(params: list[Tensor]) -> np.ndarray:
    """Concatenate the row-major flattened data of `params`, in order."""
    return np.concatenate([p.data.ravel() for p in params])


def unflatten_params(params: list[Tensor], flat: np.ndarray) -> None:
    """Copy consecutive slices of `flat` into `params`, in order.

    The vector must hold exactly as many entries as the tensors; nothing
    is assigned otherwise.
    """
    flat = np.asarray(flat, dtype=np.float64)
    expected = sum(p.data.size for p in params)
    if flat.ndim != 1 or flat.size != expected:
        raise ShapeError(f"parameter vector has {flat.size} entries, expected {expected}")
    offset = 0
    for p in params:
        n = p.data.size
        p.data = flat[offset:offset + n].reshape(p.data.shape).copy()
        offset += n


def mlp_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                b2: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encoder forward on plain arrays: h = tanh(x @ w1 + b1), r = h @ w2 + b2.

    Returns (h, r), with the same floating-point operations as
    `Encoder.forward_raw`; h is computed in `out` when given. Also takes
    S-stacks of lanes (x S x B x d_in, weights S x n x m, biases S x 1 x m).
    Raises NonFiniteError on a non-finite pre-activation x @ w1 + b1, naming
    the first such lane of a stack of more than one.
    """
    pre = np.matmul(x, w1, out=out)
    pre += b1
    # tanh maps +-inf to +-1, so an overflow here would not reach the output
    if not np.isfinite(pre).all():
        where = ""
        if pre.ndim == 3 and pre.shape[0] > 1:
            lane = int(np.flatnonzero(~np.isfinite(pre).all(axis=(1, 2)))[0])
            where = f"lane {lane}: "
        raise NonFiniteError(f"{where}non-finite pre-activation x @ w1 + b1")
    h = np.tanh(pre, out=pre)
    r = h @ w2
    r += b2
    return h, r


def embed(enc: Encoder, x: Tensor) -> Tensor:
    """Map inputs to L2-normalized embeddings so similarity is cosine."""
    return T.l2_normalize(enc.forward_raw(x))


def similarities(bank: ClassBank, embedded: Tensor) -> Tensor:
    """Cosine similarities between embedded rows and every bank row."""
    if embedded.data.ndim != 2 or embedded.shape[1] != bank.dim:
        raise ShapeError(
            f"similarities: embeddings {embedded.shape} vs bank dim {bank.dim}"
        )
    return T.matmul(embedded, Tensor(np.ascontiguousarray(bank.embeddings.T)))


@dataclass
class LinearHead:
    """Class-vector matrix w_c (C x d_in), no bias."""

    weights: Tensor

    @classmethod
    def from_bank(cls, bank: ClassBank) -> "LinearHead":
        """The text-initialized head: a writable copy of the bank's C x d rows."""
        return cls(Tensor(bank.embeddings.copy(), requires_grad=True))

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def d_in(self) -> int:
        return self.weights.shape[1]


def trainables(encoder: Encoder, head: LinearHead | None) -> list[Tensor]:
    """A run's trainable tensors in the order of its parameter vector: the
    encoder's w1, b1, w2, b2, then with a linear head its C x d weights."""
    tensors = encoder.parameters()
    return tensors if head is None else tensors + [head.weights]
