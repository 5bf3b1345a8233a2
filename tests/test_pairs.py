"""The pair runner's summary arithmetic and its record of a failed run, on
recorded fake perfbench outputs, and the files the change side's copy of a
working tree holds; no perfbench job runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _stdout(setup_s, job_s, peak_rss_mb, failed=0, seed=1):
    """A perfbench run's standard output: report lines, then the result."""
    env = {"numpy": "2.4.0", "nproc": 2, "seed": seed, "workload": "open-eval"}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "job_s": {"value": job_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}
    return "\n".join([f"env {json.dumps(env)}", f"metric job_s {job_s!r} s",
                      json.dumps(result)]) + "\n"


def _pairs(parent_rows, change_rows):
    out = []
    for i, (a, b) in enumerate(zip(parent_rows, change_rows)):
        out.append({"seed": 1 + i, "first": "parent" if i % 2 == 0 else "change",
                    "parent": pairs.parse_run(_stdout(*a, seed=1 + i)),
                    "change": pairs.parse_run(_stdout(*b, seed=1 + i))})
    return out


# the short revision `main` records, so that no test needs a git work tree
REV = "0a1b2c3"


def _no_git(monkeypatch):
    monkeypatch.setattr(pairs, "short_rev", lambda rev: REV)
    monkeypatch.setattr(pairs, "checkout", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "copy_working_tree", lambda dest: None)


def test_parse_run_reads_the_result_line_and_the_environment():
    run = pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=7))
    assert run["correct"] and run["failed"] == 0 and run["attempted"] == 40
    assert run["metrics"]["peak_rss_mb"] == {"value": 300.0, "unit": "MB"}
    assert run["environment"]["seed"] == 7
    with pytest.raises(ValueError):
        pairs.parse_run("")


def test_summary_medians_quartiles_wins_and_verdict():
    parent_rss = [300.0, 296.0, 298.0, 292.0, 294.0, 299.0, 291.0, 297.0, 295.0, 293.0]
    change_rss = [246.0, 244.0, 245.0, 247.0, 243.0, 250.0, 242.0, 248.0, 249.0, 296.0]
    parent_job = [0.40, 0.42, 0.44, 0.41, 0.43, 0.45, 0.44, 0.46, 0.42, 0.41]
    change_job = [0.40, 0.43, 0.40, 0.40, 0.40, 0.40, 0.40, 0.40, 0.40, 0.40]
    setup = [0.2] * 10
    summary = pairs.summarize(
        _pairs(zip(setup, parent_job, parent_rss), zip(setup, change_job, change_rss)),
        END_TO_END)

    rss = summary["peak_rss_mb"]
    assert rss["parent"] == {"median": 295.5, "q1": 293.25, "q3": 297.75}
    assert rss["change"] == {"median": 246.5, "q1": 244.25, "q3": 248.75}
    assert rss["change_lower_in"] == "9/10"  # 296 > 293 in the last pair
    assert rss["change_higher_in"] == "1/10"
    assert rss["parent_iqr"] == 4.5
    assert rss["median_ratio"] == 246.5 / 295.5
    assert rss["claim_holds"] and not rss["worse_than_bound"]

    # one tie and one loss: 8 wins of 10 is below nine tenths
    job = summary["job_s"]
    assert job["change_lower_in"] == "8/10" and job["change_higher_in"] == "1/10"
    assert not job["claim_holds"] and not job["worse_than_bound"]

    # all ties: no win, no loss, no claim
    assert summary["setup_s"]["change_lower_in"] == "0/10"
    assert summary["setup_s"]["change_higher_in"] == "0/10"
    assert not summary["setup_s"]["claim_holds"]


def test_claim_needs_the_medians_apart_by_more_than_the_parents_quartile_distance():
    # the change wins every pair, by less than the parent's own spread
    parent_job = [1.0, 1.2, 1.4, 1.6, 1.8, 1.1, 1.3, 1.5, 1.7, 1.9]
    change_job = [v - 0.01 for v in parent_job]
    rows = [(0.2, j, 100.0) for j in parent_job], [(0.2, j, 100.0) for j in change_job]
    job = pairs.summarize(_pairs(*rows), END_TO_END)["job_s"]
    assert job["change_lower_in"] == "10/10"
    assert job["parent_iqr"] > 0.01 and not job["claim_holds"]


def test_worse_than_bound_is_relative_to_the_parents_median():
    parent = [(0.2, 1.0, 100.0)] * 5
    summary = pairs.summarize(_pairs(parent, [(0.2, 1.15, 110.5)] * 5), END_TO_END)
    assert not summary["job_s"]["worse_than_bound"]  # +15% is at the 0.15 bound
    assert summary["peak_rss_mb"]["worse_than_bound"]  # +10.5% is beyond 0.1
    assert summary["peak_rss_mb"]["change_higher_in"] == "5/5"


def test_higher_better_metric_counts_higher_runs_as_wins():
    spec = [{"name": "job_s", "unit": "s", "better": "higher", "bound": 0.1}]
    rows = [(0.2, 1.0 + i, 1.0) for i in range(10)], [(0.2, 11.0 + i, 1.0) for i in range(10)]
    job = pairs.summarize(_pairs(*rows), spec)["job_s"]
    assert job["change_higher_in"] == "10/10" and job["claim_holds"]


def test_record_keeps_each_pair_and_flags_failed_runs():
    runs = _pairs([(0.2, 0.4, 300.0), (0.21, 0.41, 301.0)],
                  [(0.2, 0.3, 250.0), (0.2, 0.3, 251.0)])
    runs[1]["change"] = pairs.parse_run(_stdout(0.2, 0.3, 251.0, failed=1, seed=2))
    rec = pairs.record("open-eval", "abc1234", False, 20, runs, END_TO_END)
    assert [p["seed"] for p in rec["pairs"]] == [1, 2]
    assert [p["first"] for p in rec["pairs"]] == ["parent", "change"]
    assert rec["pairs"][0]["parent"] == {"correct": True, "failed": 0, "attempted": 40,
                                         "setup_s": 0.2, "job_s": 0.4, "peak_rss_mb": 300.0}
    assert rec["pairs"][1]["change"]["failed"] == 1
    assert not rec["all_correct"]
    assert rec["environment"] == {"numpy": "2.4.0", "nproc": 2, "workload": "open-eval"}
    assert set(rec["metrics"]) == {"setup_s", "job_s", "peak_rss_mb"}


def test_a_failing_run_keeps_the_pairs_done_and_names_the_failure(monkeypatch, tmp_path, capsys):
    calls = []

    def run_side(root, workload, seed, seconds):
        calls.append(seed)
        if len(calls) == 4:  # pair 2's second side
            raise pairs.RunFailed(["run.py"], 3, "".join(f"line {i}\n" for i in range(30)))
        return pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=seed))

    monkeypatch.setattr(pairs, "run_side", run_side)
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    assert pairs.main(["--workload", "open-eval", "--pairs", "5", "--first-seed", "11"]) == 1
    assert calls == [11, 11, 12, 12]
    (path,) = tmp_path.iterdir()
    rec = json.loads(path.read_text())
    assert path.name == f"BENCH_pairs_open-eval_{REV}_seeds11-15.json"
    assert rec["parent"] == REV
    assert [p["seed"] for p in rec["pairs"]] == [11]
    assert rec["metrics"]["job_s"]["change_lower_in"] == "0/1"
    tail = "\n".join(f"line {i}" for i in range(30 - pairs.STDERR_TAIL_LINES, 30))
    # pair 2 runs the change first, so the parent side failed
    assert rec["failure"] == {"side": "parent", "seed": 12, "exit_code": 3, "stderr_tail": tail}
    assert not rec["all_correct"]
    err = capsys.readouterr().err
    assert "the parent run at seed 12 exited 3" in err and "line 29" in err


def test_a_failing_first_run_still_writes_a_record(monkeypatch, tmp_path, capsys):
    def run_side(root, workload, seed, seconds):
        raise pairs.RunFailed(["run.py"], 1, "Traceback\nboom\n")

    monkeypatch.setattr(pairs, "run_side", run_side)
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    assert pairs.main(["--workload", "desk-train", "--pairs", "2", "--aa"]) == 1
    (path,) = tmp_path.iterdir()
    rec = json.loads(path.read_text())
    assert path.name == f"BENCH_pairs_desk-train_{REV}_seeds1-2_aa.json"
    assert rec["parent"] == REV
    assert rec["pairs"] == [] and rec["metrics"] == {} and rec["environment"] == {}
    assert rec["failure"] == {"side": "parent", "seed": 1, "exit_code": 1,
                              "stderr_tail": "Traceback\nboom"}
    capsys.readouterr()


def _main_on(monkeypatch, tmp_path, results):
    """`main` over three pairs whose runs return results[(side, seed)], or
    else the good result; a side's directory is named pairs-<side>-..."""
    good = _stdout(0.2, 0.4, 300.0)
    monkeypatch.setattr(pairs, "run_side", lambda root, workload, seed, seconds: pairs.parse_run(
        results.get((root.name.split("-")[1], seed), good)))
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    code = pairs.main(["--workload", "open-eval", "--pairs", "3"])
    (path,) = tmp_path.iterdir()
    return code, json.loads(path.read_text())


def test_a_run_that_is_not_correct_makes_main_fail_naming_it(monkeypatch, tmp_path, capsys):
    code, rec = _main_on(monkeypatch, tmp_path,
                         {("change", 2): _stdout(0.2, 0.4, 300.0, failed=3, seed=2)})
    assert code == 1 and not rec["all_correct"] and rec["failure"] is None
    assert [p["seed"] for p in rec["pairs"]] == [1, 2, 3]
    err = capsys.readouterr().err
    assert err == ("error: the change run at seed 2 is not correct or failed an operation "
                   "(correct=False, 3/40 failed)\n")


def test_a_metric_worse_than_its_bound_makes_main_fail_naming_it(monkeypatch, tmp_path, capsys):
    worse = {("change", seed): _stdout(0.2, 0.4, 340.0, seed=seed) for seed in (1, 2, 3)}
    code, rec = _main_on(monkeypatch, tmp_path, worse)
    assert code == 1 and rec["all_correct"]
    assert rec["metrics"]["peak_rss_mb"]["worse_than_bound"]
    assert not rec["metrics"]["job_s"]["worse_than_bound"]
    err = capsys.readouterr().err
    assert err == ("error: peak_rss_mb: the change's median 340 is worse than the parent's 300 "
                   "by more than 10%\n")


def test_correct_runs_within_their_bounds_make_main_succeed(monkeypatch, tmp_path, capsys):
    within = {("change", seed): _stdout(0.2, 0.4, 320.0, seed=seed) for seed in (1, 2, 3)}
    code, rec = _main_on(monkeypatch, tmp_path, within)
    assert code == 0 and rec["all_correct"]
    assert capsys.readouterr().err == ""


def test_record_name_carries_the_parent_revision(monkeypatch, tmp_path):
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    assert pairs.record_path("mid-train", "2178388", 20111, 20120, False) == \
        tmp_path / "BENCH_pairs_mid-train_2178388_seeds20111-20120.json"
    assert pairs.record_path("open-eval", "4e3afa1", 1, 5, True) == \
        tmp_path / "BENCH_pairs_open-eval_4e3afa1_seeds1-5_aa.json"


def test_a_run_leaves_earlier_records_in_place(monkeypatch, tmp_path, capsys):
    earlier = {name: f"{{\"old\": \"{name}\"}}\n" for name in
               ("BENCH_pairs_open-eval.json", "BENCH_pairs_open-eval_0000000.json",
                "BENCH_pairs_open-eval_0000000_aa.json")}
    for name, text in earlier.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(pairs, "run_side", lambda root, workload, seed, seconds:
                        pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=seed)))
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    assert pairs.main(["--workload", "open-eval", "--pairs", "2"]) == 0
    for name, text in earlier.items():
        assert (tmp_path / name).read_text() == text
    (new,) = set(tmp_path.iterdir()) - {tmp_path / name for name in earlier}
    rec = json.loads(new.read_text())
    assert new == pairs.record_path("open-eval", REV, 1, 2, False)
    assert [p["seed"] for p in rec["pairs"]] == [1, 2] and rec["all_correct"]
    assert f"wrote {new}" in capsys.readouterr().out


def test_runs_against_one_parent_on_other_seeds_leave_two_records(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(pairs, "run_side", lambda root, workload, seed, seconds:
                        pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=seed)))
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    for first in (1, 101):
        assert pairs.main(["--workload", "mid-train", "--pairs", "3",
                           "--first-seed", str(first)]) == 0
    records = {path.name: json.loads(path.read_text()) for path in tmp_path.iterdir()}
    assert len(records) == 2
    for first in (1, 101):
        (rec,) = [rec for rec in records.values() if rec["pairs"][0]["seed"] == first]
        assert pairs.record_path("mid-train", REV, first, first + 2, False).name \
            in records
        assert [p["seed"] for p in rec["pairs"]] == [first, first + 1, first + 2]
    capsys.readouterr()


def test_each_side_is_calibrated_just_before_its_run(monkeypatch, tmp_path, capsys):
    events = []

    def calibrate():
        events.append("calibrate")
        return {"numpy_s": 0.001 * len(events), "python_s": 0.002 * len(events)}

    def run_side(root, workload, seed, seconds):
        events.append(("run", seed))
        return pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=seed))

    monkeypatch.setattr(pairs, "calibrate", calibrate)
    monkeypatch.setattr(pairs, "run_side", run_side)
    _no_git(monkeypatch)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    assert pairs.main(["--workload", "open-eval", "--pairs", "2"]) == 0
    # one calibration before the first run is thrown away
    assert events == ["calibrate"] + ["calibrate", ("run", 1)] * 2 + ["calibrate", ("run", 2)] * 2
    (path,) = tmp_path.iterdir()
    rec = json.loads(path.read_text())
    # pair 1 runs the parent first, pair 2 the change
    want = {(0, "parent"): 2, (0, "change"): 4, (1, "change"): 6, (1, "parent"): 8}
    for (i, side), n in want.items():
        assert rec["pairs"][i][side]["calibration"] == {"numpy_s": 0.001 * n,
                                                       "python_s": 0.002 * n}
    assert set(rec["metrics"]) == {"setup_s", "job_s", "peak_rss_mb"}
    capsys.readouterr()


def test_calibration_times_both_passes():
    calibration = pairs.calibrate()
    assert set(calibration) == {"numpy_s", "python_s"}
    assert all(0 < t < 10 for t in calibration.values())


def _git(root, *args):
    subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True)


def test_the_working_tree_copy_holds_what_a_commit_of_it_would(tmp_path):
    tree, dest = tmp_path / "tree", tmp_path / "copy"
    (tree / "src" / "pkg").mkdir(parents=True)
    dest.mkdir()
    files = {".gitignore": "*.log\nbuild/\n", "src/pkg/mod.py": "x = 1\n",
             "src/pkg/gone.py": "y = 2\n", "README.md": "old\n"}
    for name, text in files.items():
        (tree / name).write_text(text)
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    (tree / "README.md").write_text("edited, not staged\n")  # tracked, modified
    (tree / "src" / "pkg" / "gone.py").unlink()  # tracked, deleted from disk
    (tree / "src" / "pkg" / "new.py").write_text("z = 3\n")  # untracked, not ignored
    (tree / "run.log").write_text("ignored\n")
    (tree / "build").mkdir()
    (tree / "build" / "out.bin").write_bytes(b"ignored")

    pairs.copy_working_tree(dest, root=tree)
    copied = {str(path.relative_to(dest)): path.read_text()
              for path in dest.rglob("*") if path.is_file()}
    assert copied == {".gitignore": "*.log\nbuild/\n", "README.md": "edited, not staged\n",
                      "src/pkg/mod.py": "x = 1\n", "src/pkg/new.py": "z = 3\n"}


def test_short_rev_names_a_commit_of_the_repository_at_root(monkeypatch, tmp_path):
    (tmp_path / "a.txt").write_text("a\n")
    _git(tmp_path, "init", "-q")
    full = []
    for message in ("first", "second"):
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
             "--allow-empty", "-m", message)
        full.append(subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], check=True,
                                   capture_output=True, text=True).stdout.strip())
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    first, second = pairs.short_rev("HEAD~1"), pairs.short_rev("HEAD")
    assert 4 <= len(first) < 40 and full[0].startswith(first)
    assert 4 <= len(second) < 40 and full[1].startswith(second)
    with pytest.raises(subprocess.CalledProcessError):
        pairs.short_rev("no-such-revision")


@pytest.mark.parametrize("aa", [False, True])
def test_each_side_runs_from_its_own_temporary_directory(monkeypatch, tmp_path, capsys, aa):
    made, roots = [], {}

    def checkout(rev, dest):
        assert rev == REV
        made.append(("checkout", dest))

    def copy_working_tree(dest):
        made.append(("copy", dest))

    def run_side(root, workload, seed, seconds):
        roots.setdefault(root, 0)
        roots[root] += 1
        return pairs.parse_run(_stdout(0.2, 0.4, 300.0, seed=seed))

    monkeypatch.setattr(pairs, "short_rev", lambda rev: REV)
    monkeypatch.setattr(pairs, "checkout", checkout)
    monkeypatch.setattr(pairs, "copy_working_tree", copy_working_tree)
    monkeypatch.setattr(pairs, "run_side", run_side)
    monkeypatch.setattr(pairs, "OUT", tmp_path)
    argv = ["--workload", "desk-train", "--pairs", "2"] + (["--aa"] if aa else [])
    assert pairs.main(argv) == 0
    assert [kind for kind, _ in made] == ["checkout", "checkout" if aa else "copy"]
    parent, change = (dest for _, dest in made)
    # two directories, each run twice, neither the tree itself, both removed
    assert roots == {parent: 2, change: 2}
    assert pairs.ROOT not in roots
    assert not parent.exists() and not change.exists()
    capsys.readouterr()
