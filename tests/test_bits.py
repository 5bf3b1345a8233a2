"""The same-bits check's digests and comparison, on fake job outputs; no
job runs here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from oodtune import scoring
from oodtune.databench import BenchmarkSpec

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bits(monkeypatch):
    monkeypatch.syspath_prepend(str(_TOOLS))  # bits imports pairs
    spec = importlib.util.spec_from_file_location("bits", _TOOLS / "bits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = [("gen desk", b"EMBA\x01"), ("train a.run stdout", b"wrote a.run\n"),
           ("train a.run", b"RUNF\x01\x00")]


def test_digests_cover_each_name_byte_and_boundary(bits):
    base = bits.digests(OUTPUTS)
    assert list(base) == [name for name, _ in OUTPUTS] + ["all"]
    assert base == bits.digests(list(OUTPUTS))
    for changed in ([OUTPUTS[0], OUTPUTS[1], ("train a.run", b"RUNF\x01\x01")],  # one byte
                    [OUTPUTS[0], OUTPUTS[2], OUTPUTS[1]],                         # order
                    [("gen desk", b"EMBA"), ("train a.run stdout", b"\x01wrote a.run\n"),
                     OUTPUTS[2]],                                                 # a boundary
                    [("gen mid", b"EMBA\x01"), *OUTPUTS[1:]]):                    # a name
        assert bits.digests(changed)["all"] != base["all"]


def test_differences_name_changed_and_one_sided_outputs(bits):
    parent = bits.digests(OUTPUTS)
    assert bits.differences(parent, dict(parent)) == []
    change = bits.digests([OUTPUTS[0], ("train a.run stdout", b"wrote b.run\n"), OUTPUTS[2],
                           ("ablate desk", b"{}")])
    assert bits.differences(change, parent) == ["train a.run stdout", "all", "ablate desk"]


def test_a_side_reads_the_digests_its_process_prints(bits, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bits, "jobs", lambda src: OUTPUTS)
    assert bits.main(["--src", str(tmp_path)]) == 0
    printed = capsys.readouterr().out

    def fake_run(cmd, **kwargs):
        assert cmd[-2:] == ["--src", str(tmp_path / "src")]
        return subprocess.CompletedProcess(cmd, 0, printed, "")

    monkeypatch.setattr(bits.subprocess, "run", fake_run)
    assert bits.side(tmp_path) == bits.digests(OUTPUTS)
    monkeypatch.setattr(bits.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 1, "", "boom"))
    with pytest.raises(SystemExit, match="exited 1:\nboom"):
        bits.side(tmp_path)


def test_the_parent_comparison_exits_one_on_any_difference(bits, monkeypatch, capsys):
    same = bits.digests(OUTPUTS)
    other = bits.digests([*OUTPUTS[:2], ("train a.run", b"RUNF\x02\x00")])
    checked_out = []
    monkeypatch.setattr(bits, "checkout", lambda rev, dest: checked_out.append(rev))
    for parent, code in ((same, 0), (other, 1)):
        monkeypatch.setattr(bits, "side", lambda root, parent=parent:
                            same if root == bits.ROOT else parent)
        assert bits.main(["--parent", "abc123"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"{same['all']} working tree", f"{parent['all']} abc123"]
        assert lines[2:] == ([] if code == 0 else ["differs: train a.run", "differs: all"])
    assert checked_out == ["abc123", "abc123"]
    monkeypatch.setattr(bits, "side", lambda root: same)
    assert bits.main([]) == 0
    assert capsys.readouterr().out == f"{same['all']}\n"


def test_the_top_k_jobs_take_every_ranking(bits):
    rankings = []
    for size, (gen_flags, _) in bits.SIZES.items():
        flags = dict(zip(gen_flags[::2], gen_flags[1::2]))
        classes = int(flags.get("--classes", BenchmarkSpec().num_classes))
        for topk in (bits.TOPK, bits.WIDE_TOPK[size]):
            rankings.append(scoring._ranking(int(topk[1]), classes))
    assert rankings == ["sweeps", "argsort", "sweeps", "partial"]
