"""Alternating parent/change pairs of perfbench runs, with the summary a
perf claim is judged by.

    python3 tools/pairs.py --workload open-eval --pairs 10 [--parent HEAD] [--aa]

The parent side runs from a checkout of `--parent` (default HEAD: the last
commit, while the change is not committed yet) in a temporary directory;
the change side runs from a copy of this working tree in another: its
tracked files as they are on disk, and its untracked files that git does
not ignore. Both directories are removed when the runs end. So the two
sides run from directories of one kind and differ only in their files: run
from the tree itself, an unmodified change side read mid-train `job_s`
1.1% above the parent's, higher in 6 of 6 pairs. Each pair runs both
sides at one seed, a fresh seed for each pair, and the side that runs
first swaps from pair to pair. Two directories can still differ in
set-up, which writes and reads an archive under the checkout: one A/A
record read mid-train `setup_s` 6% apart in 4 of 5 pairs, where two
others read it equal; so a small set-up claim wants an `--aa` record of
the same session beside it. Every run is `perfbench/run.py --trace 0`
for the `run_seconds` of BENCHMARK.json. With `--aa` the change side runs
from a second checkout of the parent, which measures the noise floor a
claim must clear.

The record goes to `bench/BENCH_pairs_<workload>_<rev>_seeds<first>-<last>.json`,
where rev is the parent's short revision and first and last are the seeds
of the first and the last pair asked for (`..._seeds<first>-<last>_aa.json`
for an A/A run), so the records of earlier changes, and of earlier runs
against the same parent on other seeds, stay beside it. It holds each pair's
end-to-end metrics, `correct` and `failed`/`attempted`; each side's median
and quartiles per metric; how many pairs the change wins, ties counting
for neither; the verdict of the pair rule (the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile distance); whether the change's median is worse than the
parent's by more than the metric's bound; and perfbench's environment
record. When a run exits non-zero the pairs stop: the record keeps the
pairs done so far and names the failing side, its seed, its exit code and
the tail of its standard error, and the script exits 1. It also exits 1,
after writing the record, when a run is not `correct` or failed an
operation, or when a metric's change median is worse than its bound; it
prints one `error:` line naming each such run or metric.

Just before each run, the script times a fixed numpy pass (`np.multiply`
over CALIBRATION_VALUES float64 values into a preallocated output) and a
fixed pure-Python loop of CALIBRATION_LOOPS turns, each the median of
CALIBRATION_REPEATS repetitions, and keeps both times as that side's
`calibration` ({"numpy_s", "python_s"}) in the pair's record: they show how
fast the machine was, so records of different sessions can be compared.
They are not end-to-end metrics, and the summary ignores them. The first
pass of a process calibrates faster than the rest: in the four b5b172e
records the numpy pass read 0.625-0.698 ms before the first run and
0.749-1.010 ms before every later one. So one calibration is timed before
the first run and thrown away, and every kept time reads the machine as
the later runs see it. Records written before that warm-up read their
first run's times low; compare them by their later runs.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench"
# the share of pairs the change must win for a claimed gain
WIN_SHARE = 0.9
# lines of a failing run's standard error kept in the record
STDERR_TAIL_LINES = 20
# the calibration before each run: float64 values of its numpy pass, turns
# of its Python loop, and the repetitions each time is the median of
CALIBRATION_VALUES = 1 << 20
CALIBRATION_LOOPS = 1 << 17
CALIBRATION_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    p.add_argument("--first-seed", type=int, default=1,
                   help="seed of the first pair; pair i runs at first-seed + i")
    p.add_argument("--aa", action="store_true", help="run the parent against itself")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be >= 1, got {args.pairs}")
    return args


def short_rev(rev: str) -> str:
    """The short name of `rev` in this repository's git."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> None:
    """Write the files of `rev` into `dest`, from this repository's git."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_working_tree(dest: Path, root: Path = ROOT) -> None:
    """Copy into `dest` the files of the working tree at `root` that a
    commit of it would hold: the tracked files as they are on disk (a
    tracked file deleted from disk is left out) and the untracked files
    that git does not ignore."""
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"],
                            check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def record_path(workload: str, rev: str, first: int, last: int, aa: bool) -> Path:
    """Where the record of a pair run against parent revision `rev`, on
    seeds `first` to `last`, goes."""
    return OUT / f"BENCH_pairs_{workload}_{rev}_seeds{first}-{last}{'_aa' if aa else ''}.json"


def parse_run(stdout: str) -> dict:
    """perfbench's result (its last line) and environment (its `env` line)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("env "):
            result["environment"] = json.loads(line[4:])
    return result


class RunFailed(RuntimeError):
    """A perfbench run that exited non-zero, with its exit code and standard error."""

    def __init__(self, cmd: list[str], code: int, stderr: str):
        super().__init__(f"{' '.join(cmd)} exited {code}:\n{stderr}")
        self.code, self.stderr = code, stderr


def calibrate() -> dict:
    """Median seconds of the fixed numpy pass and of the fixed Python loop."""
    values = np.full(CALIBRATION_VALUES, 1.5)
    out = np.empty_like(values)

    def python_loop():
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i

    def timed(work) -> float:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = perf_counter()
            work()
            times.append(perf_counter() - t0)
        return median(times)

    return {"numpy_s": timed(lambda: np.multiply(values, values, out=out)),
            "python_s": timed(python_loop)}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(cmd, done.returncode, done.stderr)
    return parse_run(done.stdout)


def run_pairs(roots: dict, workload: str, first_seed: int, count: int,
              seconds: float) -> tuple[list[dict], dict | None]:
    """Run `count` alternating pairs; return the pairs done and, once a run
    exits non-zero, what failed (None when every run succeeded)."""
    pairs = []
    calibrate()  # the first pass of a process reads fast; keep none of it
    for i in range(count):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            calibration = calibrate()
            try:
                pair[side] = run_side(roots[side], workload, seed, seconds)
                pair[side]["calibration"] = calibration
            except RunFailed as exc:
                tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL_LINES:])
                return pairs, {"side": side, "seed": seed, "exit_code": exc.code,
                               "stderr_tail": tail}
            print(f"pair {i + 1}/{count} seed {seed} {side}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in pair[side]["metrics"].items()),
                  flush=True)
        pairs.append(pair)
    return pairs, None


def _spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The per-metric summary of pairs of results: each pair is
    {"seed", "first", "parent": result, "change": result}, where a result
    holds perfbench's "metrics" ({name: {"value", "unit"}}); end_to_end is
    BENCHMARK.json's list of {"name", "better", "bound"}."""
    out = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent = _spread([a for a, _ in both])
        change = _spread([b for _, b in both])
        lower = sum(b < a for a, b in both)
        higher = sum(b > a for a, b in both)
        wins = lower if sign > 0 else higher
        # how far the change's median is better than the parent's
        gain = sign * (parent["median"] - change["median"])
        out[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_lower_in": f"{lower}/{len(both)}",
            "change_higher_in": f"{higher}/{len(both)}",
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
            "parent_iqr": parent["q3"] - parent["q1"],
            "claim_holds": wins >= math.ceil(WIN_SHARE * len(both))
            and gain > parent["q3"] - parent["q1"],
            "worse_than_bound": -gain > metric["bound"] * abs(parent["median"]),
        }
    return out


def record(workload: str, parent_rev: str, aa: bool, seconds: float, pairs: list[dict],
           end_to_end: list[dict], failure: dict | None = None) -> dict:
    def runs_ok(side):
        return all(p[side]["correct"] and p[side]["failed"] == 0 for p in pairs)

    env = pairs[0]["parent"].get("environment", {}) if pairs else {}
    return {
        "workload": workload,
        "parent": parent_rev,
        "change": "parent (A/A)" if aa else "working tree",
        "seconds": seconds,
        "pairs": [{"seed": p["seed"], "first": p["first"],
                   **{side: {**{k: p[side][k] for k in ("correct", "failed", "attempted",
                                                        "calibration") if k in p[side]},
                             **{k: v["value"] for k, v in p[side]["metrics"].items()}}
                      for side in ("parent", "change")}}
                  for p in pairs],
        "all_correct": failure is None and runs_ok("parent") and runs_ok("change"),
        "metrics": summarize(pairs, end_to_end),
        "environment": {k: v for k, v in env.items() if k != "seed"},
        "failure": failure,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    seconds = spec["run_seconds"]
    rev = short_rev(args.parent)
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent_tmp, \
            tempfile.TemporaryDirectory(prefix="pairs-change-") as change_tmp:
        roots = {"parent": Path(parent_tmp), "change": Path(change_tmp)}
        checkout(rev, roots["parent"])
        if args.aa:
            checkout(rev, roots["change"])
        else:
            copy_working_tree(roots["change"])
        pairs, failure = run_pairs(roots, args.workload, args.first_seed, args.pairs, seconds)
    rec = record(args.workload, rev, args.aa, seconds, pairs, spec["end_to_end"], failure)
    OUT.mkdir(exist_ok=True)
    path = record_path(args.workload, rev, args.first_seed, args.first_seed + args.pairs - 1,
                       args.aa)
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    for name, m in rec["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} change {m['change']['median']:.4g} "
              f"lower in {m['change_lower_in']} claim_holds={m['claim_holds']} "
              f"worse_than_bound={m['worse_than_bound']}")
    print(f"wrote {path}")
    if failure is not None:
        print(f"error: the {failure['side']} run at seed {failure['seed']} exited "
              f"{failure['exit_code']}:\n{failure['stderr_tail']}", file=sys.stderr)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    problems = [f"the {side} run at seed {p['seed']} is not correct or failed an operation "
                f"(correct={p[side]['correct']}, {p[side]['failed']}/{p[side]['attempted']} "
                f"failed)"
                for p in pairs for side in ("parent", "change")
                if not (p[side]["correct"] and p[side]["failed"] == 0)]
    problems += [f"{name}: the change's median {m['change']['median']:.4g} is worse than the "
                 f"parent's {m['parent']['median']:.4g} by more than {bounds[name]:.0%}"
                 for name, m in rec["metrics"].items() if m["worse_than_bound"]]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if failure is not None or problems else 0


if __name__ == "__main__":
    sys.exit(main())
