import struct

import numpy as np
import pytest

from oodtune import databench as db
from oodtune.databench import (
    ArchiveFormatError,
    BadMagicError,
    BenchmarkSpec,
    GenerationError,
    TruncatedFileError,
    VersionError,
    archives_equal,
    generate,
    split,
)
from oodtune.model import BankNormError


SMALL = BenchmarkSpec(samples_per_class_per_domain=5, seed=11)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(num_classes=1)
    with pytest.raises(ValueError):
        BenchmarkSpec(num_domains=1)
    with pytest.raises(ValueError):
        BenchmarkSpec(base_fraction=0.0)
    with pytest.raises(ValueError):
        BenchmarkSpec(num_classes=2, base_fraction=0.01)
    with pytest.raises(ValueError):
        BenchmarkSpec(test_domain=5)
    for name in ("embed_dim", "input_dim", "samples_per_class_per_domain"):
        for size in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                BenchmarkSpec(**{name: size})


def test_degenerate_generation_reproduces_prototypes():
    spec = BenchmarkSpec(
        num_classes=4,
        num_domains=2,
        embed_dim=8,
        input_dim=8,
        samples_per_class_per_domain=3,
        test_domain=1,
        noise_sigma=0.0,
        domain_strength=0.0,
        identity_lift=True,
        seed=0,
    )
    archive = generate(spec)
    protos32 = archive.bank.embeddings.astype(np.float32)
    for i in range(archive.num_samples):
        np.testing.assert_array_equal(archive.features[i], protos32[archive.labels[i]])


def test_generation_deterministic(tmp_path):
    a, b = tmp_path / "a.emba", tmp_path / "b.emba"
    db.save(generate(SMALL), a)
    db.save(generate(SMALL), b)
    assert a.read_bytes() == b.read_bytes()


def test_prototypes_unit_norm_and_separated():
    archive = generate(SMALL)
    emb = archive.bank.embeddings
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)
    sims = emb @ emb.T
    np.fill_diagonal(sims, -1.0)
    assert sims.max() < 0.9


def test_generation_error_when_prototypes_cannot_fit():
    spec = BenchmarkSpec(num_classes=40, embed_dim=2, input_dim=2,
                         samples_per_class_per_domain=1, identity_lift=True)
    with pytest.raises(GenerationError, match="cosine"):
        generate(spec)


def test_domain_rotations_are_orthogonal():
    rng = np.random.default_rng(0)
    for strength in (0.0, 0.3, 1.0, 3.0):
        q = db._random_rotation(rng, 12, strength)
        np.testing.assert_allclose(q.T @ q, np.eye(12), atol=1e-9)
    np.testing.assert_array_equal(db._random_rotation(rng, 5, 0.0), np.eye(5))


def test_nearest_prototype_oracle_on_held_out_data():
    # same-domain generalization sanity check with default parameters
    spec = BenchmarkSpec(seed=123)
    archive = generate(spec)
    feats = archive.features.astype(np.float64)
    correct = total = 0
    for m in range(spec.num_domains):
        dom = archive.domains == m
        means = np.stack([
            feats[dom & (archive.labels == c)][:25].mean(axis=0)
            for c in range(spec.num_classes)
        ])
        held = np.flatnonzero(dom)[np.arange(dom.sum()) % 50 >= 25]
        d2 = ((feats[held][:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1)
        correct += int((pred == archive.labels[held]).sum())
        total += held.size
    assert correct / total > 0.9


def test_split_counts_and_disjointness():
    archive = generate(SMALL)
    splits = split(archive, SMALL)
    assert splits.base_classes.size == 10
    assert splits.new_classes.size == 10
    assert not set(splits.base_classes) & set(splits.new_classes)

    # brute-force protocol scan
    base = set(int(c) for c in splits.base_classes)
    for lbl, dom in zip(splits.train.labels, splits.train.domains):
        assert int(dom) != SMALL.test_domain
        assert int(lbl) in base
    for lbl, dom in zip(splits.test_domain_shift.labels, splits.test_domain_shift.domains):
        assert int(dom) == SMALL.test_domain
        assert int(lbl) in base
    for lbl in splits.test_open.labels:
        assert int(lbl) not in base
    for dom in splits.test_both.domains:
        assert int(dom) == SMALL.test_domain

    # partition checks against the full archive
    protocol_cells = np.concatenate([
        splits.train.indices, splits.test_domain_shift.indices, splits.test_open.indices
    ])
    assert len(set(protocol_cells)) == len(protocol_cells)
    expected = {
        i for i in range(archive.num_samples)
        if int(archive.labels[i]) in base or int(archive.domains[i]) == SMALL.test_domain
        or int(archive.labels[i]) not in base
    }
    assert set(protocol_cells) == expected  # base x all domains + new x all domains
    both = set(splits.test_both.indices)
    assert both == {
        i for i in range(archive.num_samples)
        if int(archive.domains[i]) == SMALL.test_domain
    }


def test_split_deterministic():
    archive = generate(SMALL)
    a = split(archive, SMALL)
    b = split(archive, SMALL)
    np.testing.assert_array_equal(a.base_classes, b.base_classes)
    np.testing.assert_array_equal(a.train.indices, b.train.indices)


def test_split_shots_caps_train_cells():
    spec = BenchmarkSpec(samples_per_class_per_domain=5, seed=11, shots=2)
    archive = generate(spec)
    splits = split(archive, spec)
    for c in splits.base_classes:
        for m in range(spec.num_domains):
            if m == spec.test_domain:
                continue
            count = int(((splits.train.labels == c) & (splits.train.domains == m)).sum())
            assert count == 2


def test_split_bad_test_domain():
    archive = generate(SMALL)
    bad = BenchmarkSpec(samples_per_class_per_domain=5, seed=11, test_domain=1)
    object.__setattr__(bad, "test_domain", 9)  # bypass ctor validation
    with pytest.raises(ValueError):
        split(archive, bad)


def test_save_load_round_trip(tmp_path):
    archive = generate(SMALL)
    path = tmp_path / "x.emba"
    db.save(archive, path)
    loaded = db.load(path)
    assert archives_equal(archive, loaded)
    np.testing.assert_array_equal(archive.features, loaded.features)
    np.testing.assert_array_equal(archive.labels, loaded.labels)
    np.testing.assert_array_equal(archive.domains, loaded.domains)
    assert archive.bank.class_names == loaded.bank.class_names


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.emba"
    archive = generate(SMALL)
    db.save(archive, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        db.load(path)


def test_load_bad_version(tmp_path):
    path = tmp_path / "ver.emba"
    db.save(generate(SMALL), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        db.load(path)


def test_load_truncated_features_names_byte_counts(tmp_path):
    path = tmp_path / "trunc.emba"
    archive = generate(SMALL)
    db.save(archive, path)
    # cut mid-way through the feature block
    header = 4 + 1 + 20
    feature_bytes = 4 * archive.num_samples * archive.input_dim
    cut = header + feature_bytes // 2
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(TruncatedFileError, match=f"expected {feature_bytes}"):
        db.load(path)


@pytest.mark.parametrize("n, d_in", [(2**32 - 1, 2**30), (2**31, 2**29)])
def test_load_rejects_a_header_claiming_more_features_than_the_file_holds(tmp_path, n, d_in):
    # a 25-byte file claiming 2^64 or 2^62 feature bytes: the claim is checked
    # against the bytes left before anything is read or allocated
    path = tmp_path / "huge.emba"
    path.write_bytes(db.MAGIC + bytes([db.VERSION]) + struct.pack("<5I", n, d_in, 4, 2, 2))
    with pytest.raises(TruncatedFileError,
                       match=f"reading features: expected {4 * n * d_in} bytes, got 0"):
        db.load(path)


def test_load_rejects_a_class_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "name.emba"
    db.save(generate(SMALL), path)
    raw = bytearray(path.read_bytes())
    raw[-1] = 0xFF  # last byte of the last class name
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveFormatError, match=f"name {SMALL.num_classes - 1} is not UTF-8"):
        db.load(path)


def test_load_rejects_denormalized_bank(tmp_path):
    path = tmp_path / "norm.emba"
    archive = generate(SMALL)
    db.save(archive, path)
    raw = bytearray(path.read_bytes())
    header = 4 + 1 + 20
    offset = header + 4 * archive.num_samples * archive.input_dim \
        + 8 * archive.num_samples  # labels + domains
    import struct
    struct.pack_into("<f", raw, offset, 2.0)  # corrupt first bank entry
    path.write_bytes(bytes(raw))
    with pytest.raises(BankNormError):
        db.load(path)


def test_load_rejects_inconsistent_counts(tmp_path):
    path = tmp_path / "label.emba"
    archive = generate(SMALL)
    db.save(archive, path)
    raw = bytearray(path.read_bytes())
    header = 4 + 1 + 20
    offset = header + 4 * archive.num_samples * archive.input_dim
    import struct
    struct.pack_into("<I", raw, offset, 99)  # label beyond class count
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveFormatError):
        db.load(path)

    trailing = tmp_path / "trailing.emba"
    db.save(archive, trailing)
    trailing.write_bytes(trailing.read_bytes() + b"junk")
    with pytest.raises(ArchiveFormatError, match="4 trailing bytes"):
        db.load(trailing)


def _generate_row_by_row(spec):
    """`generate` as it was written first: one noise draw per class and
    domain, concatenated; kept as the reference for the batched draws."""
    rng = np.random.default_rng([spec.seed, 0])
    prototypes = db._sample_prototypes(rng, spec.num_classes, spec.embed_dim)
    if spec.identity_lift:
        lift = np.eye(spec.input_dim)
    else:
        q, r = np.linalg.qr(rng.standard_normal((spec.input_dim, spec.embed_dim)))
        lift = q * np.sign(np.diag(r))
    rotations, offsets = [], []
    for _ in range(spec.num_domains):
        rotations.append(db._random_rotation(rng, spec.input_dim, spec.domain_strength))
        offsets.append(spec.domain_strength * rng.standard_normal(spec.input_dim))
    bank = db.ClassBank(prototypes, [f"class_{c:03d}" for c in range(spec.num_classes)])
    lifted = bank.embeddings @ lift.T
    rows, labels, domains = [], [], []
    n = spec.samples_per_class_per_domain
    for m in range(spec.num_domains):
        base_points = lifted @ rotations[m].T + offsets[m]
        for c in range(spec.num_classes):
            rows.append(base_points[c] + spec.noise_sigma * rng.standard_normal((n, spec.input_dim)))
            labels.extend([c] * n)
            domains.extend([m] * n)
    return db.EmbeddingArchive(np.concatenate(rows).astype(np.float32),
                               np.asarray(labels, dtype=np.uint32),
                               np.asarray(domains, dtype=np.uint32), bank)


# every spec the suite generates an archive from
SUITE_SPECS = [
    dict(num_classes=6, num_domains=2, embed_dim=16, input_dim=16, samples_per_class_per_domain=4,
         test_domain=1, noise_sigma=0.0, domain_strength=0.0, identity_lift=True, seed=3),
    dict(num_classes=4, num_domains=2, embed_dim=8, input_dim=8, samples_per_class_per_domain=3,
         test_domain=1, noise_sigma=0.0, domain_strength=0.0, identity_lift=True, seed=0),
    dict(num_classes=6, num_domains=2, embed_dim=8, input_dim=8, samples_per_class_per_domain=3,
         test_domain=1, identity_lift=True, seed=13),
    *[dict(num_classes=c, num_domains=2, embed_dim=12, input_dim=16, test_domain=1,
           samples_per_class_per_domain=n, seed=seed)
      for c, n, seed in ((8, 4, 0), (8, 4, 2), (8, 6, 0), (8, 6, 7), (9, 6, 0))],
    *[dict(samples_per_class_per_domain=n, seed=seed)
      for n, seed in ((10, 0), (10, 1), (10, 5), (5, 0), (5, 11), (50, 0), (50, 123))],
    dict(samples_per_class_per_domain=5, seed=11, shots=2),
]


@pytest.mark.parametrize("fields", SUITE_SPECS)
def test_batched_noise_draws_write_the_archive_bytes_of_the_row_by_row_loop(tmp_path, fields):
    spec = BenchmarkSpec(**fields)
    db.save(generate(spec), tmp_path / "batched.emba")
    db.save(_generate_row_by_row(spec), tmp_path / "rows.emba")
    assert (tmp_path / "batched.emba").read_bytes() == (tmp_path / "rows.emba").read_bytes()
