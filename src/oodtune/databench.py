"""Synthetic OOD benchmark generation and the EMBA embedding-archive format.

The generator builds C well-separated unit class prototypes in R^d,
lifts them into input space through a fixed orthonormal map P, and
distorts each domain with its own random orthogonal rotation plus an
offset scaled by domain_strength. Class geometry is preserved, so the
task stays solvable while marginal distributions move across domains.

EMBA file layout (little-endian):
    magic "EMBA" | version 0x01 | u32 N, d_in, d, C, M
    N*d_in f32 features (row-major) | N u32 labels | N u32 domains
    C*d f32 bank rows | C x (u16 length + UTF-8 class name)
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import ClassBank

MAGIC = b"EMBA"
VERSION = 1


class ArchiveFormatError(ValueError):
    """Base class for EMBA parsing failures."""


class BadMagicError(ArchiveFormatError):
    pass


class VersionError(ArchiveFormatError):
    pass


class TruncatedFileError(ArchiveFormatError):
    pass


class GenerationError(RuntimeError):
    """Raised when class prototypes cannot be separated in the given dim."""


@dataclass(frozen=True)
class BenchmarkSpec:
    num_classes: int = 20
    num_domains: int = 3
    embed_dim: int = 32
    input_dim: int = 48
    samples_per_class_per_domain: int = 50
    base_fraction: float = 0.5
    test_domain: int = 2
    noise_sigma: float = 0.1
    domain_strength: float = 0.5
    seed: int = 0
    shots: int | None = None  # per-class-per-domain subsample of the train split
    identity_lift: bool = False  # test hook: P = I (requires input_dim == embed_dim)

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.num_domains < 2:
            raise ValueError("need at least 2 domains")
        for name in ("embed_dim", "input_dim", "samples_per_class_per_domain"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.base_fraction < 1:
            raise ValueError(f"base_fraction must lie in (0, 1), got {self.base_fraction}")
        n_base = int(self.num_classes * self.base_fraction)
        if n_base < 1 or self.num_classes - n_base < 1:
            raise ValueError("base_fraction leaves an empty base or new class set")
        if not 0 <= self.test_domain < self.num_domains:
            raise ValueError(f"test_domain {self.test_domain} out of range")
        if self.identity_lift and self.input_dim != self.embed_dim:
            raise ValueError("identity_lift requires input_dim == embed_dim")

    @property
    def num_base(self) -> int:
        return int(self.num_classes * self.base_fraction)


@dataclass
class EmbeddingArchive:
    features: np.ndarray  # N x d_in, float32
    labels: np.ndarray    # N, uint32
    domains: np.ndarray   # N, uint32
    bank: ClassBank

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.domains.shape != (n,):
            raise ValueError("labels/domains do not match the feature row count")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_domains(self) -> int:
        return int(self.domains.max()) + 1 if self.domains.size else 0


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_rotation(rng: np.random.Generator, dim: int, strength: float) -> np.ndarray:
    """Orthogonal matrix whose distance from the identity grows with
    strength: the Cayley transform of a scaled random antisymmetric
    matrix. Exactly the identity at strength 0."""
    g = rng.standard_normal((dim, dim))
    skew = (g - g.T) / 2.0
    skew *= strength / max(np.linalg.norm(skew, 2), 1e-12)
    eye = np.eye(dim)
    return np.linalg.solve(eye + skew, eye - skew)


def _sample_prototypes(rng: np.random.Generator, num_classes: int, dim: int) -> np.ndarray:
    """Random unit prototypes with pairwise cosine < 0.9.

    Classes are drawn around a handful of cluster centers so the
    pairwise-distance matrix has real structure: cluster-mates are
    close, classes in different clusters are far. Violators of the
    cosine bound are resampled."""
    num_clusters = max(2, num_classes // 4)
    centers = [_random_unit(rng, dim) for _ in range(num_clusters)]
    protos = np.empty((num_classes, dim))
    placed = failures = 0
    while placed < num_classes:
        center = centers[placed % num_clusters]
        cand = center + 0.5 * rng.standard_normal(dim)
        cand /= np.linalg.norm(cand)
        if placed and (protos[:placed] @ cand).max() >= 0.9:
            failures += 1
            if failures >= 1000:
                raise GenerationError(
                    f"could not place {num_classes} prototypes with pairwise "
                    f"cosine < 0.9 in dim {dim}; increase the embedding dim"
                )
            continue
        protos[placed] = cand
        placed += 1
    return protos


def generate(spec: BenchmarkSpec) -> EmbeddingArchive:
    """Build a synthetic multi-domain archive, deterministic under the seed."""
    rng = np.random.default_rng([spec.seed, 0])
    prototypes = _sample_prototypes(rng, spec.num_classes, spec.embed_dim)

    if spec.identity_lift:
        lift = np.eye(spec.input_dim)
    else:
        # orthonormal columns so the lift preserves class geometry
        q, r = np.linalg.qr(rng.standard_normal((spec.input_dim, spec.embed_dim)))
        lift = q * np.sign(np.diag(r))

    rotations = []
    offsets = []
    for _ in range(spec.num_domains):
        rotations.append(_random_rotation(rng, spec.input_dim, spec.domain_strength))
        offsets.append(spec.domain_strength * rng.standard_normal(spec.input_dim))

    names = [f"class_{c:03d}" for c in range(spec.num_classes)]
    bank = ClassBank(prototypes, names)

    lifted = bank.embeddings @ lift.T  # C x d_in
    c, n, d_in = spec.num_classes, spec.samples_per_class_per_domain, spec.input_dim
    features = np.empty((spec.num_domains, c, n, d_in), dtype=np.float32)
    for m in range(spec.num_domains):
        base_points = lifted @ rotations[m].T + offsets[m]
        # one draw per domain gives the float64 normals of C draws of n rows
        points = rng.standard_normal((c, n, d_in))
        points *= spec.noise_sigma
        points += base_points[:, None, :]
        features[m] = points

    return EmbeddingArchive(
        features=features.reshape(-1, d_in),
        labels=np.tile(np.repeat(np.arange(c, dtype=np.uint32), n), spec.num_domains),
        domains=np.repeat(np.arange(spec.num_domains, dtype=np.uint32), c * n),
        bank=bank,
    )


@dataclass
class SplitSubset:
    features: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    indices: np.ndarray  # row positions in the source archive


@dataclass
class Splits:
    base_classes: np.ndarray
    new_classes: np.ndarray
    train: SplitSubset
    test_domain_shift: SplitSubset
    test_open: SplitSubset
    test_both: SplitSubset


def _subset(archive: EmbeddingArchive, mask: np.ndarray) -> SplitSubset:
    idx = np.flatnonzero(mask)
    return SplitSubset(
        features=archive.features[idx],
        labels=archive.labels[idx],
        domains=archive.domains[idx],
        indices=idx,
    )


def split(archive: EmbeddingArchive, spec: BenchmarkSpec) -> Splits:
    """Partition an archive into the train/test protocol cells.

    Base classes are the first floor(C * base_fraction) ids after a
    seeded shuffle. Evaluation always scores against the full bank;
    this only controls which samples land in which cell.
    """
    if spec.test_domain >= archive.num_domains:
        raise ValueError(
            f"test_domain {spec.test_domain} out of range for "
            f"{archive.num_domains} domains"
        )
    rng = np.random.default_rng([spec.seed, 1])
    order = rng.permutation(spec.num_classes)
    base = np.sort(order[: spec.num_base])
    new = np.sort(order[spec.num_base:])

    is_base = np.isin(archive.labels, base)
    is_test_domain = archive.domains == spec.test_domain

    train_mask = is_base & ~is_test_domain
    if spec.shots is not None:
        train_mask = _thin_to_shots(archive, train_mask, spec, rng)

    return Splits(
        base_classes=base,
        new_classes=new,
        train=_subset(archive, train_mask),
        test_domain_shift=_subset(archive, is_base & is_test_domain),
        test_open=_subset(archive, ~is_base),
        test_both=_subset(archive, is_test_domain),
    )


def _thin_to_shots(archive, train_mask, spec, rng) -> np.ndarray:
    """Keep at most `shots` train samples per (class, domain) cell."""
    kept = np.zeros_like(train_mask)
    for c in range(spec.num_classes):
        for m in range(spec.num_domains):
            cell = np.flatnonzero(train_mask & (archive.labels == c) & (archive.domains == m))
            if cell.size:
                kept[rng.permutation(cell)[: spec.shots]] = True
    return kept


def save(archive: EmbeddingArchive, path) -> None:
    n, d_in = archive.features.shape
    c, d = archive.bank.embeddings.shape
    m = archive.num_domains
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<5I", n, d_in, d, c, m))
        fh.write(np.ascontiguousarray(archive.features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(archive.labels, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(archive.domains, dtype="<u4").tobytes())
        fh.write(archive.bank.embeddings.astype("<f4").tobytes())
        for name in archive.bank.class_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)


class BoundedReader:
    """Section-by-section reads of a binary file that check each declared
    length against the bytes left before reading it, so a corrupt length
    field raises `error` instead of asking for more memory than the file
    holds. `left` counts the bytes not yet read."""

    def __init__(self, fh, error: type[ValueError]):
        self._fh = fh
        self._error = error
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()

    def _check(self, count: int, available: int, what: str) -> None:
        if count > available:
            raise self._error(
                f"truncated while reading {what}: expected {count} bytes, got {available}"
            )

    def read(self, count: int, what: str) -> bytes:
        self._check(count, self.left, what)
        buf = self._fh.read(count)
        self._check(count, len(buf), what)  # the file shrank after it was opened
        self.left -= count
        return buf

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """`count` items of `dtype`, read straight into a new array. A bytes
        buffer copied into the array would hold the section twice, and in a
        long-running process its pages were often faulted in afresh on every
        load."""
        dtype = np.dtype(dtype)
        self._check(count * dtype.itemsize, self.left, what)
        out = np.empty(count, dtype=dtype)
        self._check(out.nbytes, self._fh.readinto(out), what)
        self.left -= out.nbytes
        return out


def load(path) -> EmbeddingArchive:
    with open(path, "rb") as fh:
        reader = BoundedReader(fh, TruncatedFileError)
        magic = reader.read(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version = reader.read(1, "version")[0]
        if version != VERSION:
            raise VersionError(f"unsupported version {version}, expected {VERSION}")
        n, d_in, d, c, m = struct.unpack("<5I", reader.read(20, "header"))
        features = reader.array("<f4", n * d_in, "features").reshape(n, d_in)
        labels = reader.array("<u4", n, "labels")
        domains = reader.array("<u4", n, "domains")
        bank_rows = reader.array("<f4", c * d, "bank rows").reshape(c, d).astype(np.float64)
        names = []
        for i in range(c):
            (length,) = struct.unpack("<H", reader.read(2, f"name length {i}"))
            raw = reader.read(length, f"name {i}")
            try:
                names.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ArchiveFormatError(f"name {i} is not UTF-8: {exc.reason}") from None
    if reader.left:
        raise ArchiveFormatError(f"{reader.left} trailing bytes after the class names")
    if labels.size and int(labels.max()) >= c:
        raise ArchiveFormatError(f"label {int(labels.max())} >= class count {c}")
    if domains.size and int(domains.max()) >= m:
        raise ArchiveFormatError(f"domain {int(domains.max())} >= domain count {m}")
    bank = ClassBank(bank_rows, names)  # re-normalizes rows, rejects > 1e-6 off unit
    return EmbeddingArchive(features=features, labels=labels, domains=domains, bank=bank)


def archives_equal(a: EmbeddingArchive, b: EmbeddingArchive, bank_atol: float = 1e-6) -> bool:
    """Field-by-field comparison; bank rows compared at f32 storage precision."""
    return (
        np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.domains, b.domains)
        and a.bank.class_names == b.bank.class_names
        and np.allclose(a.bank.embeddings, b.bank.embeddings, atol=bank_atol)
    )
