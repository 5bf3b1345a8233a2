"""Parameter-trajectory ensembling.

A training run of T steps yields snapshots theta_0..theta_T. Each
snapshot is weighted by the unnormalized Beta(beta, beta) density at
x = (t + 0.5) / (T + 1); beta < 1 emphasizes both endpoints. The
streaming moving average (bma_*) reproduces the explicit weighted
average (temporal_ensemble) without storing the trajectory; at beta = 1
the weights are equal, the uniform average. EMA is kept as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ParamVector = np.ndarray  # flat float64 snapshot of all trainable parameters


def beta_weight(t: int, total_steps: int, beta: float) -> float:
    """Unnormalized Beta(beta, beta) density at x = (t+0.5)/(T+1).

    The Beta-function constant cancels when the weights are normalized,
    so it is dropped. x is always strictly inside (0, 1), keeping the
    value finite for beta < 1.
    """
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    # x*(1-x) written as a product symmetric in t -> T-t, so the
    # weight symmetry alpha_t == alpha_{T-t} holds bit-exactly
    prod = (t + 0.5) * (total_steps - t + 0.5) / (total_steps + 1) ** 2
    return float(prod ** (beta - 1.0))


@dataclass
class BmaState:
    avg: ParamVector
    weight_sum: float
    step: int
    total_steps: int
    beta: float


def bma_init(theta0: ParamVector, total_steps: int, beta: float) -> BmaState:
    """The average of theta0 alone. ValueError when the weights of snapshots 0
    and 1 both underflow to 0.0 (from beta 93 at total_steps 5000 on)."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    weight_sum = beta_weight(0, total_steps, beta)
    if weight_sum == 0.0 and beta_weight(1, total_steps, beta) == 0.0:
        raise ValueError(f"beta {beta} is too large for total_steps {total_steps}: the Beta "
                         f"weights of snapshots 0 and 1 both underflow to 0.0")
    return BmaState(
        avg=np.array(theta0, dtype=np.float64, copy=True),
        weight_sum=weight_sum,
        step=0,
        total_steps=total_steps,
        beta=beta,
    )


def bma_update(state: BmaState, theta_t: ParamVector) -> BmaState:
    """Fold the next snapshot into the running weighted average.

    Updates state.avg, state.weight_sum and state.step in place and returns
    `state`. Every element is computed as
    avg + (alpha / new_sum) * (theta_t - avg).
    """
    if state.step >= state.total_steps:
        raise RuntimeError(
            f"moving average already saw all {state.total_steps} updates"
        )
    theta_t = np.asarray(theta_t, dtype=np.float64)
    if theta_t.shape != state.avg.shape:
        raise ValueError(f"snapshot shape {theta_t.shape} != {state.avg.shape}")
    alpha = beta_weight(state.step + 1, state.total_steps, state.beta)
    new_sum = state.weight_sum + alpha
    # delta form of (ws*avg + alpha*theta)/new_sum: a constant
    # trajectory stays a bit-exact fixed point
    delta = theta_t - state.avg
    delta *= alpha / new_sum
    state.avg += delta
    state.weight_sum = new_sum
    state.step += 1
    return state


def temporal_ensemble(trajectory: list[ParamVector], beta: float) -> ParamVector:
    """Explicit weighted average of a whole trajectory; the brute-force
    oracle for the streaming update."""
    if len(trajectory) < 2:
        raise ValueError(f"trajectory needs at least 2 snapshots, got {len(trajectory)}")
    total_steps = len(trajectory) - 1
    weights = np.array([beta_weight(t, total_steps, beta) for t in range(total_steps + 1)])
    weights /= weights.sum()
    stacked = np.stack([np.asarray(th, dtype=np.float64) for th in trajectory])
    return np.tensordot(weights, stacked, axes=(0, 0))


def ema_update(avg: ParamVector, theta_t: ParamVector, decay: float) -> ParamVector:
    """decay * avg + (1 - decay) * theta_t, elementwise.

    A float64 array `avg` is updated in place and returned; any other
    `avg` is converted to a new float64 array first.
    """
    if not 0 < decay < 1:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    avg = np.asarray(avg, dtype=np.float64)
    avg *= decay
    avg += (1.0 - decay) * np.asarray(theta_t, dtype=np.float64)
    return avg
