import numpy as np
import pytest

from oodtune import databench as db
from oodtune import tensor as T
from oodtune.model import (
    BankNormError,
    ClassBank,
    Encoder,
    LinearHead,
    embed,
    similarities,
)
from oodtune.scoring import evaluate
from oodtune.tensor import ShapeError, Tensor

from helpers import identity_encoder, linear_head_logits, random_bank


def test_bank_margin_matrix_matches_brute_force():
    bank = random_bank(np.random.default_rng(0), 7, 5)
    brute = np.empty((7, 7))
    for y in range(7):
        for c in range(7):
            brute[y, c] = 0.0 if y == c else 1.0 - bank.embeddings[y] @ bank.embeddings[c]
    # symmetrized the same way as the bank does
    brute = np.where(np.eye(7, dtype=bool), 0.0, (brute + brute.T) / 2.0)
    np.testing.assert_array_equal(bank.margin_matrix, brute)


def test_bank_invariants():
    bank = random_bank(np.random.default_rng(1), 10, 6)
    np.testing.assert_allclose(np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-9)
    assert np.all(np.diag(bank.margin_matrix) == 0.0)
    np.testing.assert_array_equal(bank.margin_matrix, bank.margin_matrix.T)
    assert bank.margin_matrix.min() >= 0.0 - 1e-12
    assert bank.margin_matrix.max() <= 2.0 + 1e-12


def test_bank_renormalizes_near_unit_rows():
    rows = np.eye(3) * (1.0 + 5e-7)
    bank = ClassBank(rows, ["a", "b", "c"])
    np.testing.assert_allclose(np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-12)


def test_bank_rejects_far_from_unit_rows():
    rows = np.eye(3)
    rows[1, 1] = 1.01
    with pytest.raises(BankNormError, match="row 1"):
        ClassBank(rows, ["a", "b", "c"])


def test_bank_rejects_nan_rows():
    rows = np.eye(3)
    rows[2, 0] = np.nan
    with pytest.raises(BankNormError, match="row 2 has norm nan"):
        ClassBank(rows, ["a", "b", "c"])


def test_bank_rejects_bad_shapes():
    with pytest.raises(ShapeError, match="must be 2-D"):
        ClassBank(np.ones(3), ["a", "b", "c"])
    with pytest.raises(ShapeError, match="2 class names for 3 embedding rows"):
        ClassBank(np.eye(3), ["a", "b"])


def test_bank_is_frozen():
    bank = random_bank(np.random.default_rng(2), 4, 4)
    with pytest.raises(ValueError):
        bank.embeddings[0, 0] = 5.0
    with pytest.raises(ValueError):
        bank.margin_matrix[0, 1] = 5.0


def test_embed_zero_second_layer_gives_identical_rows():
    rng = np.random.default_rng(3)
    enc = Encoder.init(5, 4, 3, rng)
    enc.w2.data = np.zeros((4, 3))
    enc.b2.data = np.array([1.0, 2.0, 2.0])
    out = embed(enc, Tensor(rng.standard_normal((6, 5))))
    expected = enc.b2.data / np.linalg.norm(enc.b2.data)
    for row in out.data:
        np.testing.assert_allclose(row, expected, atol=1e-12)


def test_embed_identity_configuration():
    rng = np.random.default_rng(4)
    enc = identity_encoder(4)
    x = rng.standard_normal((5, 4))
    out = embed(enc, Tensor(x))
    expected = np.tanh(x) / np.linalg.norm(np.tanh(x), axis=1, keepdims=True)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_zero_grad_clears_every_parameter_gradient():
    rng = np.random.default_rng(12)
    enc = Encoder.init(4, 5, 3, rng)
    with T.Tape() as tape:
        tape.backward(T.mean(embed(enc, Tensor(rng.standard_normal((2, 4))))))
    assert all(p.grad is not None for p in enc.parameters())
    enc.zero_grad()
    assert all(p.grad is None for p in enc.parameters())


def test_embed_rows_unit_norm():
    rng = np.random.default_rng(5)
    enc = Encoder.init(7, 9, 4, rng)
    out = embed(enc, Tensor(rng.standard_normal((20, 7))))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-9)


def test_embed_dimension_error():
    enc = Encoder.init(5, 4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        embed(enc, Tensor(np.zeros((2, 6))))


def test_similarities_self_and_orthogonal():
    bank = ClassBank(np.eye(3), ["a", "b", "c"])
    out = similarities(bank, Tensor(np.eye(3)))
    np.testing.assert_allclose(np.diag(out.data), 1.0, atol=1e-9)
    assert abs(out.data[0, 1]) < 1e-12


def test_similarities_scalar_oracle_and_range():
    rng = np.random.default_rng(6)
    bank = random_bank(rng, 8, 5)
    rows = rng.standard_normal((10, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    out = similarities(bank, Tensor(rows)).data
    for b in range(10):
        for c in range(8):
            oracle = sum(float(rows[b, k]) * float(bank.embeddings[c, k]) for k in range(5))
            assert abs(out[b, c] - oracle) < 1e-12
    assert out.min() >= -1.0 - 1e-9
    assert out.max() <= 1.0 + 1e-9


def test_linear_head_one_hot_and_zero():
    head = LinearHead(Tensor(np.eye(3), requires_grad=True))
    x = np.zeros((2, 3))
    x[0, 1] = 2.5
    x[1, 2] = -1.0
    out = linear_head_logits(head, Tensor(x))
    np.testing.assert_array_equal(out.data, x)

    head0 = LinearHead(Tensor(np.zeros((4, 3)), requires_grad=True))
    out0 = linear_head_logits(head0, Tensor(np.ones((2, 3))))
    np.testing.assert_array_equal(out0.data, np.zeros((2, 4)))


def test_linear_head_matches_matmul_oracle():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((6, 4))
    x = rng.standard_normal((3, 4))
    out = linear_head_logits(LinearHead(Tensor(w, requires_grad=True)), Tensor(x))
    np.testing.assert_allclose(out.data, x @ w.T, atol=1e-12)


def test_linear_head_from_bank_is_a_writable_copy_of_the_bank():
    rng = np.random.default_rng(8)
    for classes, dim in ((5, 5), (6, 3), (1, 4)):
        bank = random_bank(rng, classes, dim)
        head = LinearHead.from_bank(bank)
        assert (head.num_classes, head.d_in) == (classes, dim)
        np.testing.assert_array_equal(head.weights.data, bank.embeddings)
        assert head.weights.requires_grad and head.weights.data.flags.writeable
        assert not np.shares_memory(head.weights.data, bank.embeddings)
        rows = bank.embeddings.copy()
        head.weights.data += 1.0  # the read-only bank keeps its rows
        np.testing.assert_array_equal(bank.embeddings, rows)


def test_a_head_from_the_bank_scores_the_scaled_cosine_similarities():
    rng = np.random.default_rng(9)
    bank = random_bank(rng, 5, 5)
    x = rng.standard_normal((4, 5))
    logits = linear_head_logits(LinearHead.from_bank(bank), Tensor(x)).data
    normed = x / np.linalg.norm(x, axis=1, keepdims=True)
    sims = similarities(bank, Tensor(normed)).data
    np.testing.assert_allclose(logits, sims * np.linalg.norm(x, axis=1, keepdims=True), atol=1e-12)


def test_init_rejects_sizes_below_one():
    rng = np.random.default_rng(10)
    for sizes, name in (((0, 5, 3), "d_in"), ((4, 0, 3), "hidden"), ((4, 5, -1), "d_out")):
        with pytest.raises(ValueError, match=f"encoder {name} must be >= 1"):
            Encoder.init(*sizes, rng)


def test_set_flat_rejects_a_vector_of_the_wrong_length():
    enc = Encoder.init(4, 5, 3, np.random.default_rng(11))
    flat = enc.get_flat()
    for bad in (flat[:-1], np.append(flat, 0.0), flat.reshape(1, -1)):
        with pytest.raises(ShapeError, match=f"expected {flat.size}"):
            enc.set_flat(bad + 1.0)
    np.testing.assert_array_equal(enc.get_flat(), flat)  # nothing assigned


def test_bank_margin_matrix_is_built_on_first_read_and_kept(tmp_path):
    spec = db.BenchmarkSpec(samples_per_class_per_domain=5, seed=4)
    archive = db.generate(spec)
    assert "margin_matrix" not in vars(archive.bank)
    db.save(archive, tmp_path / "a.emba")
    loaded = db.load(tmp_path / "a.emba")
    splits = db.split(loaded, spec)
    enc = Encoder.init(loaded.input_dim, 8, loaded.bank.dim, np.random.default_rng(0))
    evaluate(enc, loaded.bank, splits.test_both, splits.base_classes, topk=3)
    assert "margin_matrix" not in vars(loaded.bank)

    bank = loaded.bank
    emb = bank.embeddings
    brute = np.array([[0.0 if y == c else 1.0 - (emb[y] @ emb[c] + emb[c] @ emb[y]) / 2.0
                       for c in range(bank.num_classes)] for y in range(bank.num_classes)])
    margins = bank.margin_matrix
    np.testing.assert_allclose(margins, brute, rtol=0, atol=1e-15)
    assert np.array_equal(margins, margins.T) and not margins.flags.writeable
    assert bank.margin_matrix is margins and vars(bank)["margin_matrix"] is margins
