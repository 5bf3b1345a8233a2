import re
import struct
import threading
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oodtune import databench as db
from oodtune import parallel
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

from helpers import recorded_crew_threads


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
    for shots in (0, -3):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            BenchmarkSpec(shots=shots)
    assert BenchmarkSpec(shots=1).shots == 1
    for sigma in (float("nan"), float("inf"), -0.5):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            BenchmarkSpec(noise_sigma=sigma)
    for strength in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="domain_strength must be finite"):
            BenchmarkSpec(domain_strength=strength)
    assert BenchmarkSpec(noise_sigma=0.0, domain_strength=-0.5).domain_strength == -0.5
    with pytest.raises(ValueError, match="identity_lift requires input_dim == embed_dim"):
        BenchmarkSpec(identity_lift=True)


def test_archive_rows_must_match_the_feature_row_count():
    archive = generate(SMALL)
    for labels, domains in ((archive.labels[1:], archive.domains),
                            (archive.labels, archive.domains[:-1])):
        with pytest.raises(ValueError, match="do not match the feature row count"):
            db.EmbeddingArchive(archive.features, labels, domains, archive.bank)


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
    for i in range(len(archive.labels)):
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


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", 1e39), ("noise_sigma", 1.7e308),
    ("domain_strength", 1e39), ("domain_strength", -1e39), ("domain_strength", 1.7e308),
])
def test_generate_rejects_features_beyond_the_float32_range(field, value):
    spec = replace(SMALL, **{field: value})
    message = (f"features overflow float32 at noise_sigma {spec.noise_sigma} and "
               f"domain_strength {spec.domain_strength}")
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        generate(spec)


def test_generate_keeps_large_finite_features():
    archive = generate(replace(SMALL, noise_sigma=1e37))
    assert np.isfinite(archive.features).all()
    assert np.abs(archive.features).max() > 1e37


def test_domain_rotations_are_orthogonal():
    rng = np.random.default_rng(0)
    for strength in (0.0, 0.3, 1.0, 3.0):
        q = db._rotation(rng.standard_normal((12, 12)), strength)
        np.testing.assert_allclose(q.T @ q, np.eye(12), atol=1e-9)
    np.testing.assert_array_equal(db._rotation(rng.standard_normal((5, 5)), 0.0), np.eye(5))


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
        i for i in range(len(archive.labels))
        if int(archive.labels[i]) in base or int(archive.domains[i]) == SMALL.test_domain
        or int(archive.labels[i]) not in base
    }
    assert set(protocol_cells) == expected  # base x all domains + new x all domains
    both = set(splits.test_both.indices)
    assert both == {
        i for i in range(len(archive.labels))
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


def _thin_cell_by_cell(archive, train_mask, spec, rng):
    """`_thin_to_shots` as a scan of the whole archive per (class, domain)
    cell; kept as the reference for the grouped thinning."""
    kept = np.zeros_like(train_mask)
    for c in range(spec.num_classes):
        for m in range(spec.num_domains):
            cell = np.flatnonzero(train_mask & (archive.labels == c) & (archive.domains == m))
            if cell.size:
                kept[rng.permutation(cell)[: spec.shots]] = True
    return kept


@pytest.mark.parametrize("classes,domains,shots", [
    (20, 3, 1), (20, 4, 16), (400, 3, 16), (400, 4, 100), (1000, 3, 16), (1000, 4, 1),
])
def test_grouped_shots_thinning_keeps_the_rows_and_draws_of_a_scan_per_cell(classes, domains,
                                                                            shots):
    rng = np.random.default_rng([classes, domains, shots])
    n = classes * domains * 12
    archive = SimpleNamespace(labels=rng.integers(0, classes, n).astype(np.uint32),
                              domains=rng.integers(0, domains, n).astype(np.uint32))
    # uneven cells, some of them empty: a random half of the rows, no row of
    # the last domain and none of every fifth class
    train_mask = ((rng.random(n) < 0.5) & (archive.domains != domains - 1)
                  & (archive.labels % 5 != 0))
    spec = BenchmarkSpec(num_classes=classes, num_domains=domains, shots=shots,
                         test_domain=domains - 1)
    grouped, scanned = np.random.default_rng(3), np.random.default_rng(3)
    kept = db._thin_to_shots(archive, train_mask, spec, grouped)
    np.testing.assert_array_equal(kept, _thin_cell_by_cell(archive, train_mask, spec, scanned))
    assert grouped.bit_generator.state == scanned.bit_generator.state
    assert kept.dtype == train_mask.dtype and not (kept & ~train_mask).any()


def test_split_bad_test_domain():
    archive = generate(SMALL)
    bad = BenchmarkSpec(samples_per_class_per_domain=5, seed=11, test_domain=1)
    object.__setattr__(bad, "test_domain", 9)  # bypass ctor validation
    with pytest.raises(ValueError):
        split(archive, bad)


@pytest.mark.parametrize("archive_sizes,shots,counts", [
    # the class split would draw from ids 0-19 only, and list no class 20-39
    ({"num_classes": 40}, None, "the archive 40 classes and 3 domains"),
    # the shots thinning would keep no train row of domain 3
    ({"num_domains": 4, "test_domain": 0}, 2, "the archive 20 classes and 4 domains"),
])
def test_split_rejects_a_spec_whose_sizes_differ_from_the_archives(archive_sizes, shots, counts):
    archive = generate(replace(SMALL, **archive_sizes))
    with pytest.raises(ValueError, match=f"spec has 20 classes and 3 domains, {counts}"):
        split(archive, replace(SMALL, shots=shots))


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
    feature_bytes = 4 * len(archive.labels) * archive.input_dim
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
    offset = header + 4 * len(archive.labels) * archive.input_dim \
        + 8 * len(archive.labels)  # labels + domains
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
    offset = header + 4 * len(archive.labels) * archive.input_dim
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


@pytest.mark.parametrize("rows, header, actual", [(None, 4, 3), (None, 2, 3), (0, 1, 0)])
def test_load_rejects_a_header_domain_count_other_than_the_domain_ids_give(tmp_path, rows,
                                                                            header, actual):
    archive = generate(SMALL)  # domains 0-2
    if rows is not None:
        archive = db.EmbeddingArchive(archive.features[:rows], archive.labels[:rows],
                                      archive.domains[:rows], archive.bank)
    path = tmp_path / "domains.emba"
    db.save(archive, path)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", raw, 4 + 1 + 16)[0] == actual  # save writes M = max id + 1
    struct.pack_into("<I", raw, 4 + 1 + 16, header)
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveFormatError,
                       match=f"header domain count {header}, but the domain ids give {actual}"):
        db.load(path)


def _sample_prototypes_one_by_one(rng, num_classes, dim):
    """`_sample_prototypes` as it was written first: each candidate drawn
    and checked against the prototypes placed before it; kept as the
    reference for the block of candidates."""
    num_clusters = max(2, num_classes // 4)
    centers = [db._random_unit(rng, dim) for _ in range(num_clusters)]
    protos = np.empty((num_classes, dim))
    placed = failures = 0
    while placed < num_classes:
        center = centers[placed % num_clusters]
        cand = center + 0.5 * rng.standard_normal(dim)
        cand /= np.linalg.norm(cand)
        if placed and (protos[:placed] @ cand).max() >= 0.9:
            failures += 1
            if failures >= 1000:
                raise GenerationError("cosine")
            continue
        protos[placed] = cand
        placed += 1
    return protos


def _generate_row_by_row(spec):
    """`generate` as it was written first: one noise draw per class and
    domain, concatenated, on one thread; kept as the reference for the
    batched and threaded draws."""
    rng = np.random.default_rng([spec.seed, 0])
    prototypes = _sample_prototypes_one_by_one(rng, spec.num_classes, spec.embed_dim)
    if spec.identity_lift:
        lift = np.eye(spec.input_dim)
    else:
        q, r = np.linalg.qr(rng.standard_normal((spec.input_dim, spec.embed_dim)))
        lift = q * np.sign(np.diag(r))
    rotations, offsets = [], []
    for _ in range(spec.num_domains):
        rotations.append(db._rotation(rng.standard_normal((spec.input_dim, spec.input_dim)),
                                      spec.domain_strength))
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


@pytest.mark.parametrize("block, fields", [
    (64, dict(num_classes=6, num_domains=2, embed_dim=8, input_dim=8,
              samples_per_class_per_domain=3, test_domain=1, seed=4)),  # two whole classes a block
    (20, dict(num_classes=5, num_domains=3, embed_dim=8, input_dim=8,
              samples_per_class_per_domain=7, seed=9)),  # two rows of one class a block
    (3, dict(num_classes=3, num_domains=2, embed_dim=4, input_dim=5,
             samples_per_class_per_domain=2, test_domain=1, seed=1)),  # a row longer than the block
])
def test_noise_drawn_in_blocks_writes_the_bytes_of_one_draw_per_class(tmp_path, monkeypatch,
                                                                      block, fields):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", block)
    spec = BenchmarkSpec(**fields)
    db.save(generate(spec), tmp_path / "blocks.emba")
    db.save(_generate_row_by_row(spec), tmp_path / "rows.emba")
    assert (tmp_path / "blocks.emba").read_bytes() == (tmp_path / "rows.emba").read_bytes()


class _CountingRng:
    """A generator that counts its `standard_normal` calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("num_classes, dim, seed, rejected", [
    (20, 32, 0, False), (20, 32, 5, False), (400, 128, 0, False), (1000, 64, 3, False),
    (9, 12, 0, False),
    (40, 4, 0, True), (12, 3, 1, True), (20, 6, 0, True),
])
def test_prototypes_drawn_in_one_block_are_the_one_at_a_time_loops(monkeypatch, num_classes,
                                                                  dim, seed, rejected):
    reference = np.random.default_rng(seed)
    want = _sample_prototypes_one_by_one(reference, num_classes, dim)
    clusters = max(2, num_classes // 4)
    # one Gram block, blocks of a few rows and of one row
    for block in (db.GRAM_BLOCK_ELEMENTS, 3 * num_classes + 1, 1):
        monkeypatch.setattr(db, "GRAM_BLOCK_ELEMENTS", block)
        rng = _CountingRng(seed)
        got = db._sample_prototypes(rng, num_classes, dim)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        # the one-at-a-time loop runs only after a rejection
        assert (rng.calls > clusters + 1) == rejected


def test_prototypes_of_a_block_over_the_bound_come_from_the_loop(monkeypatch):
    reference = np.random.default_rng(7)
    want = _sample_prototypes_one_by_one(reference, 400, 128)
    monkeypatch.setattr(db, "_block_bound", lambda dim: -1.0)
    rng = _CountingRng(7)
    assert db._sample_prototypes(rng, 400, 128).tobytes() == want.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.calls == 100 + 1 + 400  # centers, the block, then one draw per candidate


def test_block_bound_is_below_point_nine_by_twice_the_dot_products_error():
    u = 2.0 ** -53
    for dim in (1, 32, 128, 4096):
        gamma = dim * u / (1 - dim * u)
        assert 0.9 - 2 * gamma - 4 * u < db._block_bound(dim) < 0.9 - 2 * gamma


def _crews(monkeypatch, threads):
    """Run `generate` with `threads` worker threads, recording the thread
    count of each crew it opens."""
    monkeypatch.setattr(parallel, "worker_threads", lambda: threads)
    return recorded_crew_threads(monkeypatch)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block, fields, blocks_per_domain", [
    # many blocks of a few rows: the buffers swap many times in a domain
    (10, dict(num_classes=6, num_domains=3, embed_dim=8, input_dim=8,
              samples_per_class_per_domain=5, identity_lift=True, seed=2), 30),
    # strength 0: every rotation is the identity
    (64, dict(num_classes=5, num_domains=2, embed_dim=6, input_dim=6, test_domain=1,
              samples_per_class_per_domain=7, domain_strength=0.0, seed=4), 5),
    # blocks of two whole classes, the last one of one class
    (80, dict(num_classes=7, num_domains=3, embed_dim=6, input_dim=10,
              samples_per_class_per_domain=4, seed=9), 4),
    # one block a domain: a crew of one at any count
    (1 << 17, dict(num_classes=6, num_domains=3, embed_dim=8, input_dim=10,
                   samples_per_class_per_domain=5, seed=1), 1),
])
def test_generate_on_one_or_two_threads_writes_the_bytes_of_the_row_by_row_loop(
        tmp_path, monkeypatch, threads, block, fields, blocks_per_domain):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", block)
    seen = _crews(monkeypatch, threads)
    spec = BenchmarkSpec(**fields)
    active = threading.active_count()
    db.save(generate(spec), tmp_path / "crew.emba")
    assert threading.active_count() == active  # the worker is joined
    assert seen == [2 if threads > 1 and blocks_per_domain > 1 else 1]
    db.save(_generate_row_by_row(spec), tmp_path / "rows.emba")
    assert (tmp_path / "crew.emba").read_bytes() == (tmp_path / "rows.emba").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("field, value", [("noise_sigma", 1e39), ("domain_strength", 1e39)])
def test_an_overflow_on_either_path_raises_generation_error(monkeypatch, threads, field, value):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", 64)
    seen = _crews(monkeypatch, threads)
    active = threading.active_count()
    with pytest.raises(GenerationError, match="^features overflow float32 at noise_sigma"):
        generate(replace(SMALL, **{field: value}))
    assert threading.active_count() == active  # the worker is joined
    assert seen == [threads]


# the `gen --input-dim 3 --embed-dim 3 --domain-strength 1e20 --seed 0` spec
SINGULAR = BenchmarkSpec(embed_dim=3, input_dim=3, domain_strength=1e20, seed=0)


@pytest.mark.parametrize("threads, block", [(1, 1 << 17), (1, 3), (2, 3)])
def test_a_singular_rotation_raises_generation_error_naming_the_settings(monkeypatch, threads,
                                                                         block):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", block)
    seen = _crews(monkeypatch, threads)
    message = ("domain 2's rotation cannot be computed at domain_strength 1e+20 and "
               "input_dim 3 (Singular matrix)")
    active = threading.active_count()
    with pytest.raises(GenerationError, match=f"^{re.escape(message)}$"):
        generate(SINGULAR)
    assert threading.active_count() == active  # the worker is joined
    assert seen == [2 if threads > 1 and block < 150 else 1]


# 30 blocks of one row a domain at NOISE_BLOCK_ELEMENTS 10, 90 in the stream
MANY_BLOCKS = BenchmarkSpec(num_classes=6, num_domains=3, embed_dim=8, input_dim=8,
                            samples_per_class_per_domain=5, seed=2)


def _runs(monkeypatch, threads):
    """Run `generate` with `threads` worker threads, recording each crew
    run's parts as (name, block index)."""
    runs = []

    class Recorded(parallel.Crew):
        def run(self, task, parts):
            runs.append([(part.func.__name__, *part.args) for part in parts])
            super().run(task, parts)

    monkeypatch.setattr(parallel, "worker_threads", lambda: threads)
    monkeypatch.setattr(parallel, "Crew", Recorded)
    return runs


@pytest.mark.parametrize("threads", [1, 2])
def test_generate_draws_the_next_block_before_storing_on_two_threads_and_after_on_one(
        monkeypatch, threads):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", 10)
    runs = _runs(monkeypatch, threads)
    generate(MANY_BLOCKS)
    steps = [[("draw", i + 1), ("store", i)] for i in range(89)]
    if threads == 1:
        steps = [step[::-1] for step in steps]
    assert runs == steps + [[("store", 89)]]


@pytest.mark.parametrize("threads", [1, 2])
def test_generate_solves_every_rotation_on_the_caller_before_any_crew_run(monkeypatch, threads):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", 10)
    runs = _runs(monkeypatch, threads)
    caller = threading.current_thread()
    solves = []
    rotation = db._rotation

    def recorded(draw, strength):
        solves.append((threading.current_thread() is caller, len(runs)))
        return rotation(draw, strength)

    monkeypatch.setattr(db, "_rotation", recorded)
    generate(MANY_BLOCKS)
    assert solves == [(True, 0)] * MANY_BLOCKS.num_domains
    assert len(runs) == 90


def test_generate_frees_each_rotation_draw_once_its_base_points_exist(monkeypatch):
    monkeypatch.setattr(db, "NOISE_BLOCK_ELEMENTS", 10)
    runs = _runs(monkeypatch, 2)
    draws, freed = [], []
    rotation = db._rotation

    def recorded(draw, strength):
        # every earlier domain's draw is gone by the time this one is solved
        freed.append([ref() is None for ref in draws])
        draws.append(weakref.ref(draw))
        return rotation(draw, strength)

    monkeypatch.setattr(db, "_rotation", recorded)
    generate(MANY_BLOCKS)
    assert freed == [[True] * m for m in range(MANY_BLOCKS.num_domains)]
    assert len(draws) == MANY_BLOCKS.num_domains and len(runs) == 90


def test_default_rotations_keep_their_bits():
    # the rotation solve of a default spec, as `generate` drew it before the
    # draws were split from the solves
    rng = np.random.default_rng(0)
    g = rng.standard_normal((48, 48))
    skew = (g - g.T) / 2.0
    skew *= 0.5 / max(np.linalg.norm(skew, 2), 1e-12)
    want = np.linalg.solve(np.eye(48) + skew, np.eye(48) - skew)
    assert db._rotation(np.random.default_rng(0).standard_normal((48, 48)), 0.5).tobytes() \
        == want.tobytes()


def test_save_writes_the_archive_arrays_without_copying_them(tmp_path):
    archive = generate(BenchmarkSpec(samples_per_class_per_domain=200, input_dim=64))
    assert archive.features.nbytes > 700_000
    tracemalloc.start()
    try:
        db.save(archive, tmp_path / "x.emba")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < archive.features.nbytes // 4
    assert archives_equal(db.load(tmp_path / "x.emba"), archive)


CELLS = ("train", "test_domain_shift", "test_open", "test_both")


def _eager_split(archive, spec):
    """`split` copied by hand, every cell's features included: the
    reference for the cells `split` builds."""
    rng = np.random.default_rng([spec.seed, 1])
    order = rng.permutation(spec.num_classes)
    base = np.sort(order[: spec.num_base])
    is_base = np.isin(archive.labels, base)
    is_test_domain = archive.domains == spec.test_domain
    train_mask = is_base & ~is_test_domain
    if spec.shots is not None:
        train_mask = db._thin_to_shots(archive, train_mask, spec, rng)
    masks = (train_mask, is_base & is_test_domain, ~is_base, is_test_domain)
    source = archive.features.copy()  # so the reference shares no memory with the archive
    cells = {}
    for cell, mask in zip(CELLS, masks):
        idx = np.flatnonzero(mask)
        cells[cell] = db.SplitSubset(source, idx, labels=archive.labels[idx],
                                     domains=archive.domains[idx])
    return base, cells


@pytest.mark.parametrize("fields", [
    dict(samples_per_class_per_domain=5, seed=11),
    dict(samples_per_class_per_domain=5, seed=11, shots=3),
    dict(samples_per_class_per_domain=5, seed=2, test_domain=0),
    dict(samples_per_class_per_domain=4, seed=6, num_domains=4, test_domain=1),
])
def test_split_cells_equal_the_hand_copied_split(fields):
    spec = BenchmarkSpec(**fields)
    archive = generate(spec)
    base, copied = _eager_split(archive, spec)
    splits = split(archive, spec)
    np.testing.assert_array_equal(splits.base_classes, base)
    for cell in CELLS:
        built, want = getattr(splits, cell), copied[cell]
        assert type(built) is db.SplitSubset and built.source is archive.features
        for name in ("features", "labels", "domains", "indices"):
            got, ref = getattr(built, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, (cell, name)
            assert got.flags.c_contiguous and ref.flags.c_contiguous, (cell, name)
            np.testing.assert_array_equal(got, ref)
        assert not np.shares_memory(built.features, archive.features)


def test_each_read_of_a_cell_shows_the_archive_writes_made_before_it():
    archive = generate(SMALL)
    splits = split(archive, SMALL)
    before = splits.test_open.features
    archive.features[:] = 7.0
    assert not np.any(before == 7.0)  # the earlier read's rows are its own
    assert np.all(splits.test_open.features == 7.0)  # read again after the write
    assert np.all(splits.test_both.features == 7.0)  # first read after the write


def test_archive_label_and_domain_writes_after_split_show_in_no_cell():
    archive = generate(SMALL)
    _, copied = _eager_split(archive, SMALL)
    splits = split(archive, SMALL)
    archive.labels[:] = 0
    archive.domains[:] = 0
    archive.features[:] = 7.0
    for cell in CELLS:
        got, want = getattr(splits, cell), copied[cell]
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.domains, want.domains)
        assert np.all(got.features == 7.0)  # first read after the write


def test_repr_and_equality_of_a_cell_copy_none_of_its_rows():
    archive = generate(SMALL)
    splits = split(archive, SMALL)
    cell, other = splits.test_open, splits.test_both
    assert repr(cell).startswith("<oodtune.databench.SplitSubset object at ")
    assert cell == cell and cell != other
    assert cell != split(archive, SMALL).test_open  # compared by identity, not by rows
    for subset in (cell, other):
        assert subset.source is archive.features


def test_a_cell_reads_its_rows_from_the_archive_whether_or_not_its_features_were_read():
    archive = generate(SMALL)
    splits = split(archive, SMALL)
    for name in CELLS:
        cell = getattr(splits, name)
        for _ in range(2):
            assert cell.source is archive.features, name
            assert set(vars(cell)) == {"source", "indices", "labels", "domains"}, name
            cell.features  # a fresh gather, which the cell does not keep


def test_two_reads_of_a_cell_are_equal_gathers_that_share_no_memory():
    archive = generate(SMALL)
    cell = split(archive, SMALL).test_open
    first, second = cell.features, cell.features
    assert first is not second
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, archive.features[cell.indices])
    for a, b in ((first, second), (first, archive.features), (second, archive.features)):
        assert not np.shares_memory(a, b)
    assert cell.source is archive.features


def test_split_cells_hold_no_array_of_the_features_size():
    # open-eval's sizes: the train cell's 20,000 rows of 96 float32 values
    # take 7.68 MB, which a cell once kept after its first read
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    tracemalloc.start()
    try:
        splits = split(archive, spec)
        splits.train.features  # read and dropped
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # labels, domains and positions: 16 B a row, 1.28 MB over the four cells
    per_row = sum(getattr(getattr(splits, cell), name).nbytes
                  for cell in CELLS for name in ("labels", "domains", "indices"))
    assert held - per_row < 0.25e6


# --- archives_equal compares the features a block of rows at a time


def _with_features(archive, features):
    return db.EmbeddingArchive(features, archive.labels[:len(features)],
                               archive.domains[:len(features)], archive.bank)


def test_archives_equal_rejects_nan_features():
    archive = generate(SMALL)
    features = archive.features.copy()
    features[3, 1] = np.nan
    assert not archives_equal(_with_features(archive, features),
                              _with_features(archive, features.copy()))


def test_archives_equal_sees_a_difference_in_the_last_row_of_a_partial_block(monkeypatch):
    archive = generate(SMALL)
    n, d_in = archive.features.shape
    monkeypatch.setattr(db, "COMPARE_BLOCK_ELEMENTS", 7 * d_in)  # blocks of 7 rows
    assert n % 7 != 0
    features = archive.features.copy()
    assert archives_equal(archive, _with_features(archive, features))
    features[-1, -1] += 1.0
    assert not archives_equal(archive, _with_features(archive, features))


def test_archives_equal_of_other_row_counts_or_widths_is_false():
    archive = generate(SMALL)
    fewer = _with_features(archive, archive.features[:-1])
    wider = _with_features(archive, np.pad(archive.features, ((0, 0), (0, 1))))
    # a bank of as many rows, each one unit row with one dim more
    wider_bank = db.EmbeddingArchive(
        archive.features, archive.labels, archive.domains,
        db.ClassBank(np.pad(archive.bank.embeddings, ((0, 0), (0, 1))), archive.bank.class_names))
    for a, b in ((archive, fewer), (fewer, archive), (archive, wider), (wider, archive),
                 (archive, wider_bank), (wider_bank, archive)):
        assert not archives_equal(a, b)


def test_archives_equal_of_two_empty_archives_is_true():
    archive = generate(SMALL)
    empty = _with_features(archive, archive.features[:0])
    assert archives_equal(empty, _with_features(archive, archive.features[:0].copy()))


def test_archives_equal_sees_a_bank_difference_in_the_last_row_of_a_partial_block(monkeypatch):
    archive = generate(SMALL)
    c, d = archive.bank.embeddings.shape
    monkeypatch.setattr(db, "CLOSE_BLOCK_ELEMENTS", 3 * d)  # blocks of 3 rows
    assert c % 3 != 0

    def with_rows(rows):
        return db.EmbeddingArchive(archive.features, archive.labels, archive.domains,
                                   db.ClassBank(rows, archive.bank.class_names))

    rows = archive.bank.embeddings.copy()
    assert archives_equal(archive, with_rows(rows))
    rows[-1] = rows[-1, ::-1]  # still a unit row
    assert not archives_equal(archive, with_rows(rows))


def test_archives_equal_holds_no_array_of_the_features_size(tmp_path):
    # open-eval's sizes: 60,000 rows of 96 values, where one bool per value
    # would take 5.5 MB, and a 1000 x 64 bank, where one np.allclose over it
    # peaked at 1.09 MB
    spec = BenchmarkSpec(num_classes=1000, embed_dim=64, input_dim=96,
                         samples_per_class_per_domain=20, seed=5)
    archive = generate(spec)
    db.save(archive, tmp_path / "open.emba")
    loaded = db.load(tmp_path / "open.emba")
    tracemalloc.start()
    try:
        assert archives_equal(archive, loaded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6
