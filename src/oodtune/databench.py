"""Synthetic OOD benchmark generation and the EMBA embedding-archive format.

The generator builds C well-separated unit class prototypes in R^d,
lifts them into input space through a fixed orthonormal map P, and
distorts each domain with its own random orthogonal rotation plus an
offset scaled by domain_strength. Class geometry is preserved, so the
task stays solvable while marginal distributions move across domains.
Most of its time goes to the Gaussian noise around each base point, drawn
block by block on a `parallel.Crew` of two threads, one block ahead of the
scaling, shifting and storing of the one before (see `generate`); the
archive's bits do not depend on the thread count.

`split` cuts an archive into the protocol cells: it draws the class split
and gathers every cell's labels, domains and row positions, but no feature
rows. Every subset, a cell or one built by hand, is a `SplitSubset`: row
positions into a feature array, whose `.features` gathers the rows on each
read and which `scoring.evaluate` reads by position, so scoring never
copies a subset.

EMBA file layout (little-endian):
    magic "EMBA" | version 0x01 | u32 N, d_in, d, C, M
    N*d_in f32 features (row-major) | N u32 labels | N u32 domains
    C*d f32 bank rows | C x (u16 length + UTF-8 class name)
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import parallel
from .model import ClassBank

MAGIC = b"EMBA"
VERSION = 1
# float64 noise values `generate` draws at a time (whole rows, and whole
# classes where they fit)
NOISE_BLOCK_ELEMENTS = 1 << 17
# Gram product values `_sample_prototypes` checks at a time (whole rows): 512 KB
GRAM_BLOCK_ELEMENTS = 1 << 16
# feature values `archives_equal` compares at a time (whole rows)
COMPARE_BLOCK_ELEMENTS = 1 << 16
# bank values it compares at a time (whole rows): np.allclose builds about
# 17 B of temporaries per value, where np.array_equal builds 1
CLOSE_BLOCK_ELEMENTS = 1 << 13


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
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not math.isfinite(self.domain_strength):
            raise ValueError(f"domain_strength must be finite, got {self.domain_strength}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1 or None, got {self.shots}")
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
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_domains(self) -> int:
        return int(self.domains.max()) + 1 if self.domains.size else 0


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _rotation(draw: np.ndarray, strength: float) -> np.ndarray:
    """Orthogonal matrix whose distance from the identity grows with
    strength: the Cayley transform of the antisymmetric part of `draw`, a
    square standard normal draw, scaled to spectral norm `strength`. Exactly
    the identity at strength 0."""
    skew = (draw - draw.T) / 2.0
    skew *= strength / max(np.linalg.norm(skew, 2), 1e-12)
    eye = np.eye(len(draw))
    return np.linalg.solve(eye + skew, eye - skew)


def _sample_prototypes(rng: np.random.Generator, num_classes: int, dim: int) -> np.ndarray:
    """Random unit prototypes with pairwise cosine < 0.9.

    Classes are drawn around a handful of cluster centers so the
    pairwise-distance matrix has real structure: cluster-mates are
    close, classes in different clusters are far. Violators of the
    cosine bound are resampled, one candidate at a time.

    All candidates are drawn in one block first. When every pairwise
    cosine of the block is below `_block_bound(dim)`, the one-at-a-time
    checks would accept every candidate, so the block is the prototypes,
    with the same bits and the same draws; otherwise the generator's state
    is restored and the candidates are drawn and checked one at a time."""
    num_clusters = max(2, num_classes // 4)
    centers = np.array([_random_unit(rng, dim) for _ in range(num_clusters)])
    state = rng.bit_generator.state
    protos = 0.5 * rng.standard_normal((num_classes, dim))
    protos += centers[np.arange(num_classes) % num_clusters]
    for row in protos:
        row /= np.linalg.norm(row)
    rows = max(1, GRAM_BLOCK_ELEMENTS // num_classes)
    # the cosines of each row with the rows before it (0 for the others)
    if all((np.tril(protos[i:i + rows] @ protos[:i + rows].T, i - 1) < _block_bound(dim)).all()
           for i in range(0, num_classes, rows)):
        return protos

    rng.bit_generator.state = state
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


def _block_bound(dim: int) -> float:
    """A cosine bound below 0.9 by enough that a Gram product of unit rows
    reading under it means that the one-at-a-time product reads under 0.9.

    Both products sum dim terms, in their own orders, so each is within
    gamma |a| |b| of the exact inner product (gamma = dim u / (1 - dim u),
    u = 2^-53). A row divided by its computed `norm` has length at most
    1 + gamma + 3u, so the two differ by at most 2 gamma (1 + gamma + 3u)^2;
    u more covers the rounding of the bound itself."""
    u = 2.0 ** -53
    gamma = dim * u / (1 - dim * u)
    return 0.9 - 2 * gamma * (1 + gamma + 3 * u) ** 2 - u


def generate(spec: BenchmarkSpec) -> EmbeddingArchive:
    """Build a synthetic multi-domain archive, deterministic under the seed.

    Every draw but the noise comes first: the prototypes, the lift, and
    each domain's rotation draw and offset. The caller then solves every
    domain's rotation and base points and draws noise block 0. Each later
    step is one `Crew.run` over two parts, draw block i + 1 and scale,
    shift and store block i, on `Crew(2)` when a domain spans more than one
    block, else `Crew(1)`. On two threads the draw fills the other of two
    block buffers; on one, the store runs first and the draw reuses its
    buffer. The buffers are allocated inside the crew's `with`, so a
    failed allocation leaves no worker running. The draws run
    one at a time in the stream's order and the arithmetic on each value is
    the same either way, so the archive's bits are too.

    The draw part goes first: the caller takes a run's first part before
    the worker wakes, and with the store first it stored, then waited on
    the worker's longer draw at every block (in-process `generate` ran
    3-10% slower). The rotations are solved before any run, since a crew
    hands each part to whichever thread asks first and a solve inside a
    run could land on the worker. The worker must run only draws and
    stores, which allocate no array: solving the rotations on either
    thread read mid-train `peak_rss_mb` 1.7-2.9 MB higher in 6 of 6 pairs.
    So the worker idles through the solves, and overlapping them with its
    draws would not hide them, since `norm(skew, 2)`'s SVD holds the
    interpreter lock for its whole ~7 ms at d_in=256: a worker's
    2^17-value draw beside it took 7.2-13.4 ms in 7 of 10 trials, against
    1.7-3.7 ms beside `solve`, the `matmul` or a store.
    """
    rng = np.random.default_rng([spec.seed, 0])
    prototypes = _sample_prototypes(rng, spec.num_classes, spec.embed_dim)

    if spec.identity_lift:
        lift = np.eye(spec.input_dim)
    else:
        # orthonormal columns so the lift preserves class geometry
        q, r = np.linalg.qr(rng.standard_normal((spec.input_dim, spec.embed_dim)))
        lift = q * np.sign(np.diag(r))

    c, n, d_in = spec.num_classes, spec.samples_per_class_per_domain, spec.input_dim
    bank = ClassBank(prototypes, [f"class_{i:03d}" for i in range(c)])
    lifted = bank.embeddings @ lift.T  # C x d_in
    features = np.empty((spec.num_domains, c, n, d_in), dtype=np.float32)
    # a block is k whole classes, or r rows of one class when a class does
    # not fit; the blocks follow the C order of one (c, n, d_in) draw per
    # domain, and draws split into blocks give the same stream as one draw
    r = min(n, max(1, NOISE_BLOCK_ELEMENTS // d_in))
    k = max(1, NOISE_BLOCK_ELEMENTS // (n * d_in)) if r == n else 1
    spans = [(c0, min(c, c0 + k), r0, min(n, r0 + r))
             for c0, r0 in product(range(0, c, k), range(0, n, r))]

    def draw(i: int) -> None:
        rng.standard_normal(out=blocks[i])

    def store(i: int) -> None:
        c0, c1, r0, r1 = spans[i % len(spans)]
        points = blocks[i]
        points *= spec.noise_sigma
        points += base_points[i // len(spans)][c0:c1, None, :]
        features[i // len(spans), c0:c1, r0:r1] = points

    # a value beyond float32's range raises, in the arithmetic or the store
    with np.errstate(over="raise"), parallel.Crew(2 if len(spans) > 1 else 1) as crew:
        threaded = crew.threads > 1
        buffers = [np.empty(min(k, c) * r * d_in) for _ in range(2 if threaded else 1)]
        # block i of the stream, a view of buffer i mod the buffer count
        blocks = [buffers[i % len(buffers)][: (c1 - c0) * (r1 - r0) * d_in]
                  .reshape(c1 - c0, r1 - r0, d_in)
                  for i, (c0, c1, r0, r1) in enumerate(spans * spec.num_domains)]
        try:
            shifts = [(rng.standard_normal((d_in, d_in)),
                       spec.domain_strength * rng.standard_normal(d_in))
                      for _ in range(spec.num_domains)]
            base_points = []
            for m in range(spec.num_domains):
                try:
                    rotation = _rotation(shifts[m][0], spec.domain_strength)
                except np.linalg.LinAlgError as exc:
                    raise GenerationError(
                        f"domain {m}'s rotation cannot be computed at domain_strength "
                        f"{spec.domain_strength} and input_dim {d_in} ({exc})") from None
                base_points.append(lifted @ rotation.T + shifts[m][1])
                shifts[m] = None  # frees the d_in x d_in draw
            draw(0)
            for i in range(len(blocks)):
                parts = [partial(store, i)]
                if i + 1 < len(blocks):
                    # the draw first on two buffers; on one, after the store
                    parts.insert(0 if threaded else 1, partial(draw, i + 1))
                crew.run(lambda part: part(), parts)
        except FloatingPointError:
            raise GenerationError(f"features overflow float32 at noise_sigma {spec.noise_sigma} "
                                  f"and domain_strength {spec.domain_strength}") from None

    return EmbeddingArchive(
        features=features.reshape(-1, d_in),
        labels=np.tile(np.repeat(np.arange(c, dtype=np.uint32), n), spec.num_domains),
        domains=np.repeat(np.arange(spec.num_domains, dtype=np.uint32), c * n),
        bank=bank,
    )


@dataclass(repr=False, eq=False)
class SplitSubset:
    """Rows of a feature array: `source` (N x d_in) and `indices`, the rows'
    positions in it, which reports use to name the samples, with their
    `labels` and `domains`. `.features` gathers `source[indices]` afresh on
    each read, so it shows the source writes made before it, and
    `scoring.evaluate` reads the rows from `source` by position, so scoring
    copies no subset. No generated `repr` or `==`: both would read the rows."""

    source: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    domains: np.ndarray

    @property
    def features(self) -> np.ndarray:
        return self.source[self.indices]


class Splits:
    """The protocol cells of an archive: `train` (base classes outside the
    test domain), `test_domain_shift` (base classes in it), `test_open`
    (new classes in every domain) and `test_both` (every class in the test
    domain).

    Each cell is a `SplitSubset` whose source is the archive's feature
    array. `split` gathers each cell's labels, domains and row positions, so
    a later write to the archive's labels or domains shows in no cell; no
    cell copies its feature rows, so an in-place write to the archive's
    features shows in every later read of them.
    """

    def __init__(self, base_classes: np.ndarray, new_classes: np.ndarray, train: SplitSubset,
                 test_domain_shift: SplitSubset, test_open: SplitSubset,
                 test_both: SplitSubset):
        self.base_classes = base_classes
        self.new_classes = new_classes
        self.train = train
        self.test_domain_shift = test_domain_shift
        self.test_open = test_open
        self.test_both = test_both


def split(archive: EmbeddingArchive, spec: BenchmarkSpec) -> Splits:
    """Partition an archive into the train/test protocol cells.

    Base classes are the first floor(C * base_fraction) ids after a
    seeded shuffle. Evaluation always scores against the full bank;
    this only controls which samples land in which cell.

    Every cell is built here, a `SplitSubset` of the archive's feature
    array that copies none of its rows (see `Splits`). The spec's class and
    domain counts must be the archive's.
    """
    if (spec.num_classes, spec.num_domains) != (archive.bank.num_classes, archive.num_domains):
        raise ValueError(
            f"spec has {spec.num_classes} classes and {spec.num_domains} domains, the "
            f"archive {archive.bank.num_classes} classes and {archive.num_domains} domains"
        )
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

    masks = (train_mask, is_base & is_test_domain, ~is_base, is_test_domain)
    cells = (np.flatnonzero(mask) for mask in masks)
    return Splits(base, new, *(SplitSubset(archive.features, idx, archive.labels[idx],
                                           archive.domains[idx]) for idx in cells))


def _thin_to_shots(archive, train_mask, spec, rng) -> np.ndarray:
    """Keep at most `shots` train samples per (class, domain) cell.

    The train rows are grouped by cell in one stable sort, so each cell
    keeps its rows in ascending order, and the non-empty cells draw their
    permutations in ascending (class, domain) order.
    """
    rows = np.flatnonzero(train_mask)
    cells = archive.labels[rows].astype(np.int64) * spec.num_domains + archive.domains[rows]
    order = np.argsort(cells, kind="stable")
    rows, cells = rows[order], cells[order]
    bounds = np.flatnonzero(np.diff(cells, prepend=-1)).tolist() + [rows.size]
    kept = np.zeros_like(train_mask)
    for lo, hi in zip(bounds, bounds[1:]):
        kept[rng.permutation(rows[lo:hi])[: spec.shots]] = True
    return kept


def _raw(array: np.ndarray, dtype: str) -> memoryview:
    """The bytes of `array` stored as `dtype`, with no copy when it already
    is one contiguous array of that dtype."""
    return memoryview(np.ascontiguousarray(array, dtype=dtype).reshape(-1)).cast("B")


def save(archive: EmbeddingArchive, path) -> None:
    n, d_in = archive.features.shape
    c, d = archive.bank.embeddings.shape
    m = archive.num_domains
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<5I", n, d_in, d, c, m))
        fh.write(_raw(archive.features, "<f4"))
        fh.write(_raw(archive.labels, "<u4"))
        fh.write(_raw(archive.domains, "<u4"))
        fh.write(_raw(archive.bank.embeddings, "<f4"))
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
        bank_rows = reader.array("<f4", c * d, "bank rows").reshape(c, d)
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
    actual = int(domains.max()) + 1 if domains.size else 0
    if m != actual:
        raise ArchiveFormatError(f"header domain count {m}, but the domain ids give {actual}")
    # casts the rows to float64, re-normalizes them, rejects any > 1e-6 off unit
    bank = ClassBank(bank_rows, names)
    return EmbeddingArchive(features=features, labels=labels, domains=domains, bank=bank)


def _blocks_equal(a: np.ndarray, b: np.ndarray, equal, elements: int) -> bool:
    """`equal(a, b)` of arrays of one shape, a block of whole rows of at
    most `elements` values at a time, so its temporaries do not grow with
    the row count; False for arrays of other shapes."""
    if a.shape != b.shape:
        return False
    rows = max(1, elements // max(1, math.prod(a.shape[1:])))
    return all(equal(a[i:i + rows], b[i:i + rows]) for i in range(0, len(a), rows))


def archives_equal(a: EmbeddingArchive, b: EmbeddingArchive) -> bool:
    """Field-by-field comparison; bank rows compared at f32 storage precision."""
    return (
        _blocks_equal(a.features, b.features, np.array_equal, COMPARE_BLOCK_ELEMENTS)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.domains, b.domains)
        and a.bank.class_names == b.bank.class_names
        and _blocks_equal(a.bank.embeddings, b.bank.embeddings,
                          partial(np.allclose, atol=1e-6), CLOSE_BLOCK_ELEMENTS)
    )
