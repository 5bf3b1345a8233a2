"""Corrupt EMBA and RUNF files: every truncation, bit flip or oversized u32
length either loads or raises the format's own error, and the command line
exits 0 or 2 on it, never with a traceback. Also `_top_k` against the
stable argsort on tie-heavy score blocks."""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oodtune import databench as db
from oodtune.databench import ArchiveFormatError
from oodtune.evalcli import RunFileError, load_run, main
from oodtune.scoring import _top_k
from oodtune.model import BankNormError

# a 517-byte archive: 16 rows of 4 features, 4 classes in 2 domains
TINY = db.BenchmarkSpec(num_classes=4, num_domains=2, embed_dim=4, input_dim=4,
                        samples_per_class_per_domain=2, test_domain=1)
TRAIN_FLAGS = ["--steps", "1", "--hidden", "2", "--batch", "4"]
ARCHIVE_LENGTH_FIELDS = [5, 9, 13, 17, 21]  # offsets of N, d_in, d, C, M


def _quiet_main(argv) -> int:
    """`main` as the installed command runs it: output discarded and numpy's
    RuntimeWarnings only printed, so that they do not become exceptions
    under the suite's warnings-as-errors setting."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    archive, run = root / "tiny.emba", root / "tiny.run"
    db.save(db.generate(TINY), archive)
    assert _quiet_main(["train", "--data", archive, "--out", run] + TRAIN_FLAGS) == 0
    return {"archive": archive, "run": run, "bad": root / "bad.bin", "out": root / "out.run"}


def _run_length_fields(raw: bytes) -> list[int]:
    """Offsets of the config, curve, final and ensemble length fields."""
    offsets = [5]
    (clen,) = struct.unpack_from("<I", raw, 5)
    offsets.append(9 + clen)
    (t,) = struct.unpack_from("<I", raw, offsets[-1])
    offsets.append(offsets[-1] + 4 + 4 * t)
    (p,) = struct.unpack_from("<I", raw, offsets[-1])
    offsets.append(offsets[-1] + 4 + 8 * p)
    return offsets


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _set_u32(raw: bytes, offset: int, value: int) -> bytes:
    out = bytearray(raw)
    struct.pack_into("<I", out, offset, value)
    return bytes(out)


def _corruptions(raw: bytes, length_fields: list[int]):
    """A truncation, a single-bit flip, or a u32 length set past the file."""
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut]),
        st.integers(0, 8 * len(raw) - 1).map(lambda bit: _flip(raw, bit)),
        st.tuples(st.sampled_from(length_fields),
                  st.sampled_from([2**31, 2**32 - 1]) | st.integers(len(raw), 2**32 - 1))
        .map(lambda field: _set_u32(raw, *field)),
    )


def _load_archive(path) -> None:
    try:
        db.load(path)
    except (ArchiveFormatError, BankNormError):
        pass


def _load_run(path) -> None:
    try:
        load_run(path)
    except RunFileError:
        pass


@given(data=st.data())
def test_corrupt_archive_loads_or_raises_a_format_error(files, data):
    raw = files["archive"].read_bytes()
    files["bad"].write_bytes(data.draw(_corruptions(raw, ARCHIVE_LENGTH_FIELDS)))
    _load_archive(files["bad"])


@given(data=st.data())
def test_corrupt_run_file_loads_or_raises_a_run_file_error(files, data):
    raw = files["run"].read_bytes()
    files["bad"].write_bytes(data.draw(_corruptions(raw, _run_length_fields(raw))))
    _load_run(files["bad"])


@pytest.mark.parametrize("name, load", [("archive", _load_archive), ("run", _load_run)])
def test_every_byte_with_its_low_or_high_bit_flipped_loads_or_raises_a_format_error(
        files, name, load):
    raw = files[name].read_bytes()
    for byte in range(len(raw)):
        for bit in (8 * byte, 8 * byte + 7):
            files["bad"].write_bytes(_flip(raw, bit))
            load(files["bad"])


@given(data=st.data())
def test_cli_exits_zero_or_two_on_a_corrupt_archive(files, data):
    raw = files["archive"].read_bytes()
    files["bad"].write_bytes(data.draw(_corruptions(raw, ARCHIVE_LENGTH_FIELDS)))
    train = ["train", "--data", files["bad"], "--out", files["out"]] + TRAIN_FLAGS
    assert _quiet_main(train) in (0, 2)
    assert _quiet_main(["eval", "--run", files["run"], "--data", files["bad"]]) in (0, 2)


@given(data=st.data())
def test_cli_exits_zero_or_two_on_a_corrupt_run_file(files, data):
    raw = files["run"].read_bytes()
    files["bad"].write_bytes(data.draw(_corruptions(raw, _run_length_fields(raw))))
    for params in ("ensemble", "final"):
        argv = ["eval", "--run", files["bad"], "--data", files["archive"], "--params", params]
        assert _quiet_main(argv) in (0, 2)


@given(n=st.integers(1, 6), num_classes=st.integers(2, 40), data=st.data())
def test_top_k_equals_the_stable_argsort_on_tied_blocks(n, num_classes, data):
    values = data.draw(st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0]),
                                min_size=n * num_classes, max_size=n * num_classes))
    scores = np.array(values).reshape(n, num_classes)
    k = data.draw(st.integers(1, num_classes + 2))
    before = scores.copy()
    ids, vals = _top_k(scores, k)
    want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    assert np.array_equal(ids, want)
    assert np.array_equal(vals, np.take_along_axis(scores, want, axis=1))
    assert np.array_equal(scores, before)
