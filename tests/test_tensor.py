import math

import mpmath
import numpy as np
import pytest

from oodtune import tensor as T
from oodtune.tensor import NonFiniteError, ShapeError, Tape, TapeError, Tensor

from helpers import central_diff, max_rel_err, tape_grad


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_dot_product():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    # tanh after the product makes the scalar sensitive to every entry
    def build():
        return T.mean(T.tanh(T.matmul(a, b)))

    ga, gb = tape_grad(build, [a, b])

    def fa(flat):
        return float(np.tanh(flat.reshape(3, 4) @ b.data).mean())

    def fb(flat):
        return float(np.tanh(a.data @ flat.reshape(4, 2)).mean())

    assert max_rel_err(ga.ravel(), central_diff(fa, a.data.ravel())) < 1e-6
    assert max_rel_err(gb.ravel(), central_diff(fb, b.data.ravel())) < 1e-6


def test_l2_normalize_triangle():
    out = T.l2_normalize(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_zero_vector_maps_to_zero():
    out = T.l2_normalize(Tensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0])


def test_l2_normalize_gradcheck():
    rng = np.random.default_rng(1)
    v = Tensor(rng.standard_normal((1, 8)), requires_grad=True)
    w = rng.standard_normal((8, 1))

    def build():
        return T.mean(T.matmul(T.l2_normalize(v), Tensor(w)))

    (g,) = tape_grad(build, [v])

    def f(flat):
        return float((flat / np.linalg.norm(flat)) @ w[:, 0])

    assert max_rel_err(g.ravel(), central_diff(f, v.data.ravel())) < 1e-6


def test_log_softmax_symmetry():
    out = T.log_softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [-math.log(2)] * 2, atol=1e-15)


def test_log_softmax_overflow_safe():
    out = T.log_softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0]) < 1e-12
    assert abs(out.data[1] + 1000.0) < 1e-9


def test_log_softmax_against_high_precision_oracle():
    logits = [1.0, 2.0, 3.0]
    out = np.exp(T.log_softmax(Tensor(logits)).data)
    with mpmath.workdps(50):
        denom = mpmath.fsum(mpmath.e ** x for x in logits)
        expected = [float(mpmath.e ** x / denom) for x in logits]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_log_softmax_probability_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        logits = Tensor(rng.uniform(-1e4, 1e4, size=rng.integers(1, 12)))
        probs = np.exp(T.log_softmax(logits).data)
        assert abs(probs.sum() - 1.0) < 1e-12


def test_log_softmax_empty_rejected():
    with pytest.raises(ShapeError):
        T.log_softmax(Tensor(np.zeros((2, 0))))


def test_log_softmax_gradcheck():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=4)

    def build():
        return T.mean(T.gather_rows(T.log_softmax(x), labels))

    (g,) = tape_grad(build, [x])

    def f(flat):
        z = flat.reshape(4, 5)
        z = z - z.max(axis=1, keepdims=True)
        ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(ls[np.arange(4), labels].mean())

    assert max_rel_err(g.ravel(), central_diff(f, x.data.ravel())) < 1e-6


@pytest.mark.parametrize("op,np_op", [
    (T.tanh, np.tanh),
])
def test_elementwise_gradcheck(op, np_op):
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 3)) + 0.1, requires_grad=True)

    def build():
        return T.mean(op(x))

    (g,) = tape_grad(build, [x])
    fd = central_diff(lambda flat: float(np_op(flat).mean()), x.data.ravel())
    assert max_rel_err(g.ravel(), fd) < 1e-6


def test_add_bias_broadcast_gradcheck():
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)

    def build():
        return T.mean(T.tanh(T.add(a, b)))

    ga, gb = tape_grad(build, [a, b])
    fd_a = central_diff(lambda f: float(np.tanh(f.reshape(4, 3) + b.data).mean()), a.data.ravel())
    fd_b = central_diff(lambda f: float(np.tanh(a.data + f).mean()), b.data)
    assert max_rel_err(ga.ravel(), fd_a) < 1e-6
    assert max_rel_err(gb, fd_b) < 1e-6


@pytest.mark.parametrize("build,message", [
    (lambda: T.transpose(Tensor([1.0, 2.0])), r"transpose: expected 2-D tensor, got \(2,\)"),
    (lambda: T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))),
     r"add: incompatible shapes \(2, 3\) and \(2,\)"),
    (lambda: T.gather_rows(Tensor([1.0, 2.0]), [0]), "gather_rows: expected 2-D tensor"),
    (lambda: T.gather_rows(Tensor(np.zeros((2, 2))), [0]), "gather_rows: need one index per row"),
    (lambda: T.mean(Tensor(np.zeros(0))), "mean: empty tensor"),
    (lambda: T.l2_normalize(Tensor(np.zeros(0))), "l2_normalize: expected non-empty"),
    (lambda: T.l2_normalize(Tensor(np.zeros((1, 1, 2)))), "l2_normalize: expected non-empty"),
])
def test_primitives_reject_bad_shapes(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_gather_rows_values_and_bad_index():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(T.gather_rows(a, [1, 0]).data, [2.0, 3.0])
    with pytest.raises(IndexError, match="2"):
        T.gather_rows(a, [0, 2])


def test_gradients_accumulate_across_uses():
    x = Tensor([2.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.add(x, x)  # dy/dx = 2 per element
        loss = T.mean(y)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [1.0, 1.0])


def test_tape_single_use():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = T.mean(T.tanh(x))
        tape.backward(loss)
        with pytest.raises(TapeError):
            tape.backward(loss)


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_fifty_random_gradchecks_composed():
    """Broad sweep: reverse-mode vs central differences across a
    composition of every differentiable primitive."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        d_in, h = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        w = Tensor(rng.standard_normal((d_in, h)), requires_grad=True)
        x = rng.standard_normal((3, d_in))
        labels = rng.integers(0, h, size=3)

        def build():
            out = T.tanh(T.matmul(Tensor(x), w))
            out = T.l2_normalize(out)
            out = T.log_softmax(T.scale(out, 3.0))
            return T.scale(T.mean(T.gather_rows(out, labels)), -1.0)

        (g,) = tape_grad(build, [w])

        def f(flat):
            z = np.tanh(x @ flat.reshape(d_in, h))
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
            z = 3.0 * z
            z = z - z.max(axis=1, keepdims=True)
            ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-ls[np.arange(3), labels].mean())

        worst = max(worst, max_rel_err(g.ravel(), central_diff(f, w.data.ravel())))
    assert worst < 1e-4
