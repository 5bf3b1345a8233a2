"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors hold float64 numpy arrays plus an optional gradient slot. All
differentiable primitives record a backward closure on the currently
active Tape; replaying the tape in reverse accumulates gradients with
`+=` semantics (callers zero grads between steps).
"""

from __future__ import annotations

import numpy as np


# floor on the norm in l2_normalize; below it the map is v / NORM_EPS
NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class NonFiniteError(ValueError):
    """Raised when an operation would store NaN or Inf values."""


class TapeError(RuntimeError):
    """Raised on misuse of a Tape (e.g. replaying a consumed tape)."""


class Tensor:
    """Dense row-major float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor contains non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Single-use: backward() consumes the tape and a second replay raises
    TapeError.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, callable]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()

    def record(self, out: Tensor, backward_fn) -> None:
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Seed loss.grad with ones and replay all nodes in reverse."""
        if self._consumed:
            raise TapeError("tape already consumed; re-record the forward pass")
        self._consumed = True
        loss.accumulate_grad(np.ones_like(loss.data))
        for out, backward_fn in reversed(self._nodes):
            if out.grad is not None:
                backward_fn(out.grad)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _make_out(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _active_tape()
    if out.requires_grad and tape is not None:
        tape.record(out, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _make_out(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D tensor, got {a.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.T)

    return _make_out(np.ascontiguousarray(a.data.T), (a,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a 1-D bias broadcast over the rows of a."""
    bias = a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]
    if not bias and a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0) if bias else g)

    return _make_out(a.data + b.data, (a, b), backward)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * k)

    return _make_out(a.data * k, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * (1.0 - out_data ** 2))

    return _make_out(out_data, (a,), backward)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Pick a[i, indices[i]] for every row i, yielding a 1-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected 2-D tensor, got {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError(
            f"gather_rows: need one index per row, got {idx.shape} for {a.shape}"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        bad = int(idx[(idx < 0) | (idx >= a.shape[1])][0])
        raise IndexError(f"gather_rows: index {bad} out of range for {a.shape[1]} columns")
    rows = np.arange(a.shape[0])

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, (rows, idx), g)
            a.accumulate_grad(full)

    return _make_out(a.data[rows, idx], (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeError("mean: empty tensor")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g) / n))

    return _make_out(np.asarray(a.data.mean()), (a,), backward)


def l2_normalize(v: Tensor) -> Tensor:
    """Normalize a vector (or each row of a matrix) to unit L2 norm.

    out = v / max(||v||, NORM_EPS), so the zero vector maps to itself.
    """
    if v.data.ndim not in (1, 2) or v.data.size == 0:
        raise ShapeError(f"l2_normalize: expected non-empty 1-D or 2-D tensor, got {v.shape}")
    rowwise = v.data.ndim == 2
    norms = np.linalg.norm(v.data, axis=-1, keepdims=rowwise)
    denom = np.maximum(norms, NORM_EPS)
    out_data = v.data / denom
    guarded = norms < NORM_EPS  # below the floor the map is linear: v / NORM_EPS

    def backward(g: np.ndarray) -> None:
        if not v.requires_grad:
            return
        dot = np.sum(out_data * g, axis=-1, keepdims=rowwise)
        grad = (g - out_data * dot) / denom
        lin = g / denom
        v.accumulate_grad(np.where(guarded, lin, grad))

    return _make_out(out_data, (v,), backward)


def log_softmax(logits: Tensor) -> Tensor:
    """Rowwise log-softmax with max subtraction for overflow safety."""
    if logits.data.ndim not in (1, 2) or logits.data.shape[-1] == 0:
        raise ShapeError(f"log_softmax: expected non-empty logits, got {logits.shape}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    out_data = shifted - lse
    probs = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            gsum = g.sum(axis=-1, keepdims=True)
            logits.accumulate_grad(g - probs * gsum)

    return _make_out(out_data, (logits,), backward)
