"""Shared test utilities: finite-difference gradients and tiny fixtures."""

import numpy as np

from oodtune import parallel
from oodtune import scoring
from oodtune import tensor as T
from oodtune import trainer
from oodtune.model import ClassBank, Encoder, LinearHead
from oodtune.tensor import ShapeError

FD_STEP = 1e-5


def screen_flags(monkeypatch) -> list[bool]:
    """Patch `scoring._screened_argmax` so that, for each block the float32
    screen sees, whether it flagged the block is appended to the returned
    list."""
    flags = []
    inner = scoring._screened_argmax

    def recording(z, bank32_t, gap, out):
        ids = inner(z, bank32_t, gap, out)
        flags.append(ids is None)
        return ids

    monkeypatch.setattr(scoring, "_screened_argmax", recording)
    return flags


def recorded_crew_threads(monkeypatch) -> list[int]:
    """Patch `parallel.Crew` so that every crew opened from here on
    appends its thread count to the returned list."""
    seen = []

    class Recorded(parallel.Crew):
        def __init__(self, parts):
            super().__init__(parts)
            seen.append(self.threads)

    monkeypatch.setattr(parallel, "Crew", Recorded)
    return seen


def recorded_trajectories(monkeypatch) -> list[list[np.ndarray]]:
    """Patch `trainer.FusedStep` so that every step built from here on
    appends a list to the returned one, holding a copy of its S x P
    parameter block once built and another each time a call returns:
    theta_0, then the parameters after each step's AdamW and ensemble
    fold. Lane i's trajectory in the last step built is `[snap[i] for snap
    in steps[-1]]`. Patch once per test: a second patch would subclass the
    first and record each snapshot twice."""
    steps = []

    class Recorded(trainer.FusedStep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._snapshots = [self.params.copy()]
            steps.append(self._snapshots)

        def __call__(self, *args, **kwargs):
            losses = super().__call__(*args, **kwargs)
            self._snapshots.append(self.params.copy())
            return losses

    monkeypatch.setattr(trainer, "FusedStep", Recorded)
    return steps


def central_diff(f, x0: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        plus[i] += step
        minus = x0.copy()
        minus[i] -= step
        grad[i] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def tape_grad(build_loss, inputs: list[T.Tensor]) -> list[np.ndarray]:
    """Run build_loss() under a fresh tape and return grads of `inputs`."""
    for t in inputs:
        t.zero_grad()
    with T.Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]


def linear_head_logits(head: LinearHead, x: T.Tensor) -> T.Tensor:
    """Raw dot-product logits x . w_c on the Tape, no temperature or
    normalization: the oracle of the linear head's scores."""
    if x.data.ndim != 2 or x.shape[1] != head.d_in:
        raise ShapeError(f"linear head expects B x {head.d_in} input, got {x.shape}")
    return T.matmul(x, T.transpose(head.weights))


def random_head(num_classes: int, d_in: int, rng: np.random.Generator) -> LinearHead:
    """A linear head of C x d_in weights drawn uniformly from +-1/sqrt(d_in)."""
    bound = 1.0 / np.sqrt(d_in)
    weights = rng.uniform(-bound, bound, size=(num_classes, d_in))
    return LinearHead(T.Tensor(weights, requires_grad=True))


def random_bank(rng: np.random.Generator, num_classes: int, dim: int) -> ClassBank:
    rows = rng.standard_normal((num_classes, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return ClassBank(rows, [f"c{i}" for i in range(num_classes)])


def identity_encoder(dim: int) -> Encoder:
    """Encoder whose affine maps are identities, so embed(x) is
    normalize(tanh(x)), rowwise."""
    return Encoder(
        w1=T.Tensor(np.eye(dim), requires_grad=True),
        b1=T.Tensor(np.zeros(dim), requires_grad=True),
        w2=T.Tensor(np.eye(dim), requires_grad=True),
        b2=T.Tensor(np.zeros(dim), requires_grad=True),
    )
