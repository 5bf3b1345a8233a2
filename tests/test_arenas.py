"""The arena tool's reading of glibc's `malloc_stats()` text, on recorded
text, and its exit where the C library has none; no perfbench job runs
here."""

import ctypes
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "arenas.py"
_SPEC = importlib.util.spec_from_file_location("arenas", _PATH)
arenas = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(arenas)

# malloc_stats() of glibc 2.36 after 16 open-eval set-ups and jobs
RECORDED = """\
Arena 0:
system bytes     =   15110144
in use bytes     =    8057056
Arena 1:
system bytes     =    2686976
in use bytes     =       3056
Arena 2:
system bytes     =    2691072
in use bytes     =       3616
Total (incl. mmap):
system bytes     =   59715584
in use bytes     =   47291120
max mmap regions =         11
max mmap bytes   =   44605440
"""


def test_every_arena_and_the_total_are_read():
    got, total = arenas.parse_stats(RECORDED)
    assert got == [(0, 15110144, 8057056), (1, 2686976, 3056), (2, 2691072, 3616)]
    assert total == (59715584, 47291120)


def test_a_main_arena_alone_is_read():
    text = RECORDED.split("Arena 1:")[0] + RECORDED[RECORDED.index("Total"):]
    assert arenas.parse_stats(text) == ([(0, 15110144, 8057056)], (59715584, 47291120))


def test_text_without_a_total_is_refused():
    with pytest.raises(ValueError, match="no total"):
        arenas.parse_stats(RECORDED.split("Total")[0])


def test_the_report_has_a_line_per_arena_and_the_total():
    lines = arenas.report(*arenas.parse_stats(RECORDED)).splitlines()
    assert len(lines) == 5
    assert lines[2].split() == ["1", "2686976", "3056"]
    assert lines[-1].split()[:3] == ["total", "59715584", "47291120"]


def test_a_c_library_without_malloc_stats_exits_0(monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert arenas.main(["--workload", "open-eval"]) == 0
    assert "no malloc_stats" in capsys.readouterr().out


def test_jobs_below_one_are_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        arenas.parse_args(["--workload", "open-eval", "--jobs", "0"])
    assert exc.value.code == 2


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "malloc_stats"), reason="not glibc")
def test_the_stats_written_to_fd_2_are_caught_and_parse():
    got, (system, in_use) = arenas.parse_stats(arenas.malloc_stats(ctypes.CDLL(None)))
    assert got[0][0] == 0 and system >= in_use > 0
