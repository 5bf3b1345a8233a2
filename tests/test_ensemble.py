import numpy as np
import pytest

from oodtune.ensemble import (
    beta_weight,
    bma_init,
    bma_update,
    ema_update,
    temporal_ensemble,
)


def test_beta_weight_uniform_for_beta_one():
    for t, total in [(0, 1), (3, 10), (100, 100)]:
        assert beta_weight(t, total, 1.0) == 1.0


def test_beta_weight_symmetry():
    for total in (1, 7, 50):
        for t in range(total + 1):
            for beta in (0.1, 0.5, 0.9, 2.0):
                assert abs(beta_weight(t, total, beta) - beta_weight(total - t, total, beta)) < 1e-15


def test_beta_weight_hand_value():
    # T=1, t=0: x = 0.25, weight = (0.25 * 0.75) ** -0.5
    expected = (0.25 * 0.75) ** -0.5
    assert abs(beta_weight(0, 1, 0.5) - expected) < 1e-15
    assert abs(expected - 2.3094) < 1e-4


def test_beta_weight_argument_errors():
    with pytest.raises(ValueError):
        beta_weight(-1, 5, 0.5)
    with pytest.raises(ValueError):
        beta_weight(6, 5, 0.5)
    with pytest.raises(ValueError):
        beta_weight(0, 5, 0.0)


def test_beta_weights_normalize_and_endpoints_dominate():
    for total in (2, 9, 40):
        w = np.array([beta_weight(t, total, 0.5) for t in range(total + 1)])
        norm = w / w.sum()
        assert abs(norm.sum() - 1.0) < 1e-12
        assert np.argmax(w) in (0, total)
        assert w[0] == max(w)
        assert w[total] == max(w)
        assert np.all(w[0] > w[1:total])  # strict maxima at the endpoints


def test_bma_init():
    theta0 = np.array([1.0, -2.0, 3.0])
    state = bma_init(theta0, total_steps=5, beta=0.5)
    np.testing.assert_array_equal(state.avg, theta0)
    assert state.weight_sum == beta_weight(0, 5, 0.5)
    assert state.step == 0
    assert bma_init(theta0, 1, 1.0).weight_sum == 1.0
    with pytest.raises(ValueError):
        bma_init(theta0, 0, 0.5)


def test_bma_init_rejects_a_beta_whose_first_two_weights_underflow():
    theta = np.array([1.0, -2.0, 3.0])
    # at beta 92 snapshot 0 weighs 0.0 but snapshot 1 does not
    state = bma_init(theta, 5000, 92.0)
    assert state.weight_sum == 0.0 and beta_weight(1, 5000, 92.0) > 0.0
    bma_update(state, theta + 1.0)
    assert np.isfinite(state.avg).all()
    np.testing.assert_array_equal(state.avg, theta + 1.0)
    assert beta_weight(0, 5000, 93.0) == beta_weight(1, 5000, 93.0) == 0.0
    with pytest.raises(ValueError, match=r"^beta 93\.0 is too large for total_steps 5000: "):
        bma_init(theta, 5000, 93.0)


def test_bma_constant_trajectory_fixed_point():
    theta = np.array([0.5, 1.5])
    state = bma_init(theta, total_steps=10, beta=0.3)
    for _ in range(10):
        state = bma_update(state, theta)
        np.testing.assert_array_equal(state.avg, theta)


def test_bma_two_point_midpoint():
    a = np.array([0.0, 2.0])
    b = np.array([4.0, 0.0])
    state = bma_update(bma_init(a, 1, 0.5), b)
    np.testing.assert_allclose(state.avg, (a + b) / 2.0, rtol=1e-15)


def test_bma_rejects_extra_updates():
    state = bma_init(np.zeros(2), 1, 0.5)
    state = bma_update(state, np.ones(2))
    with pytest.raises(RuntimeError):
        bma_update(state, np.ones(2))


def test_bma_rejects_a_snapshot_of_another_shape():
    state = bma_init(np.zeros(2), 2, 0.5)
    with pytest.raises(ValueError, match=r"snapshot shape \(3,\) != \(2,\)"):
        bma_update(state, np.ones(3))
    assert state.step == 0


def test_bma_matches_temporal_ensemble_oracle():
    rng = np.random.default_rng(0)
    trajectory = [rng.standard_normal(1) for _ in range(101)]
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        state = bma_init(trajectory[0], 100, beta)
        for theta in trajectory[1:]:
            state = bma_update(state, theta)
        oracle = temporal_ensemble(trajectory, beta)
        np.testing.assert_allclose(state.avg, oracle, rtol=1e-12)


def test_bma_is_convex_combination():
    rng = np.random.default_rng(1)
    trajectory = [rng.standard_normal(6) for _ in range(31)]
    stacked = np.stack(trajectory)
    for beta in (0.1, 0.5, 1.0):
        state = bma_init(trajectory[0], 30, beta)
        for theta in trajectory[1:]:
            state = bma_update(state, theta)
        assert np.all(state.avg >= stacked.min(axis=0) - 1e-12)
        assert np.all(state.avg <= stacked.max(axis=0) + 1e-12)


def test_temporal_ensemble_uniform_and_constant():
    rng = np.random.default_rng(2)
    trajectory = [rng.standard_normal(4) for _ in range(10)]
    np.testing.assert_allclose(
        temporal_ensemble(trajectory, 1.0), np.mean(trajectory, axis=0), rtol=1e-14
    )
    constant = [np.array([1.0, 2.0])] * 5
    np.testing.assert_allclose(temporal_ensemble(constant, 0.5), constant[0], rtol=1e-14)
    with pytest.raises(ValueError):
        temporal_ensemble([np.zeros(2)], 0.5)


def test_ema_constant_and_geometric_forgetting():
    theta = np.array([3.0])
    avg = theta.copy()
    for _ in range(50):
        avg = ema_update(avg, theta, 0.9)
    np.testing.assert_allclose(avg, theta, rtol=1e-12)

    theta0 = np.array([1.0])
    theta1 = np.array([0.0])
    avg = theta0.copy()
    for _ in range(200):
        avg = ema_update(avg, theta1, 0.9)
    # closed form: decay^T * theta0 + (1 - decay^T) * theta1
    coeff = 0.9 ** 200
    np.testing.assert_allclose(avg, coeff * theta0, rtol=1e-9)
    assert coeff < 1e-9


def test_ema_midpoint_and_decay_validation():
    out = ema_update(np.array([0.0]), np.array([2.0]), 0.5)
    np.testing.assert_array_equal(out, [1.0])
    with pytest.raises(ValueError):
        ema_update(np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        ema_update(np.zeros(1), np.zeros(1), 0.0)


def test_uniform_average():
    rng = np.random.default_rng(3)
    trajectory = [rng.standard_normal(3) for _ in range(8)]
    np.testing.assert_allclose(
        temporal_ensemble(trajectory, 1.0), np.mean(trajectory, axis=0), rtol=1e-12
    )
    constant = [np.array([7.0])] * 4
    np.testing.assert_array_equal(temporal_ensemble(constant, 1.0), [7.0])


def test_in_place_updates_equal_the_out_of_place_expressions_bit_for_bit():
    rng = np.random.default_rng(4)
    trajectory = [rng.standard_normal(257) for _ in range(51)]
    for beta in (0.3, 1.0):
        state = bma_init(trajectory[0], 50, beta)
        avg, weight_sum = trajectory[0].copy(), state.weight_sum
        for t, theta in enumerate(trajectory[1:], start=1):
            alpha = beta_weight(t, 50, beta)
            weight_sum += alpha
            avg = avg + (alpha / weight_sum) * (theta - avg)
            held = state.avg
            assert bma_update(state, theta) is state
            assert state.avg is held
            assert state.avg.tobytes() == avg.tobytes()
            assert (state.weight_sum, state.step) == (weight_sum, t)

    ema = trajectory[0].copy()
    want = trajectory[0].copy()
    for theta in trajectory[1:]:
        want = 0.9 * want + (1.0 - 0.9) * theta
        assert ema_update(ema, theta, 0.9) is ema
        assert ema.tobytes() == want.tobytes()
