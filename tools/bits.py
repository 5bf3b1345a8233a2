"""One sha256 over the outputs of a fixed set of CLI jobs, to check that a
change keeps every output's bits.

    python3 tools/bits.py [--parent REV]

The jobs run through `oodtune.evalcli.main`, in a temporary directory:
- `gen` of a desk-size archive (the defaults: C=20, d=32, d_in=48) and of
  a mid-size one (C=400, d=128, d_in=256, 25 samples per class and domain);
- `train` at desk size (120 steps, B=36, h=64) and at mid size (12 steps,
  B=256, h=256, steps that run as two halves), for the metric and linear
  heads, the bma, ema, avg and none ensembles, and seeds 0 and 7; and at
  the metric head and seed 0: at desk size `--bma-every 3` with bma and
  with avg, `--ensemble ema:0.9`, `--margin fixed:0.2`, `--margin none`,
  `--shots 5`, `--test-domain 0`, `--base-fraction 0.3`, `--beta 1`,
  `--beta 2`, `--lambda 0`, `--tau 0.05`, `--weight-decay 0` and
  `--lr 0.01`, at mid size `--bma-every 3` with bma (two parameter ranges)
  and `--shots 16` (400 non-empty (class, domain) train cells to thin);
- `ablate --json` over 5 seeds of the desk archive;
- `eval --json --topk 3` of the first desk and the first mid run, on each
  `--split` and, at `--split both`, with `--params final` and `zero`; of
  the first linear-head run at `--split both`, also with `--params zero`
  (its seeded encoder and the head copied from the bank); and of each run
  of further flags, at `--split both`;
- `eval --json --split both` of the first desk run at `--topk 15` and of
  the first mid run at `--topk 40`: `--topk 3` takes the argmax sweeps at
  C=20 and C=400, and these take the stable argsort and the partial sort;
- plain `eval --json` (no top-k, so the argmax alone, which `evaluate`
  screens in float32 at mid size) of the first run and the first
  linear-head run of each size, on each `--split`.
The digest covers every archive and run file the jobs write and the text
they print. Without `--parent` the script prints the digest of this
working tree. With `--parent REV` this script's jobs also run on the
package of REV, written by `pairs.checkout` into a temporary directory, so
both sides run the same job list; the script prints
both digests, names each output that differs, and exits 1 if any does.
Each side runs in its own Python process, under this process's
environment, so set the BLAS thread variables before calling it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, checkout

# size name: (gen flags, train flags)
SIZES = {
    "desk": ([], ["--steps", "120"]),
    "mid": (["--classes", "400", "--embed-dim", "128", "--input-dim", "256",
             "--per-class", "25"],
            ["--steps", "12", "--batch", "256", "--hidden", "256"]),
}
HEADS = ("metric", "linear")
ENSEMBLES = ("bma", "ema", "avg", "none")
SEEDS = (0, 7)
# further train flags per size, each one run at the metric head and seed 0
EXTRA_TRAINS = {
    "desk": [["--ensemble", "bma", "--bma-every", "3"], ["--ensemble", "avg", "--bma-every", "3"],
             ["--ensemble", "ema:0.9"], ["--margin", "fixed:0.2"], ["--margin", "none"],
             ["--shots", "5"], ["--test-domain", "0"], ["--base-fraction", "0.3"],
             ["--beta", "1"], ["--beta", "2"], ["--lambda", "0"], ["--tau", "0.05"],
             ["--weight-decay", "0"], ["--lr", "0.01"]],
    "mid": [["--ensemble", "bma", "--bma-every", "3"], ["--shots", "16"]],
}
SPLITS = ("domain", "open", "both", "train")
TOPK = ["--topk", "3"]
# a top-k per size that `scoring._top_k` ranks without the sweeps
WIDE_TOPK = {"desk": ["--topk", "15"], "mid": ["--topk", "40"]}
# further eval flags, each run on the first run of each size at --split both
EXTRA_EVALS = [["--params", "final"], ["--params", "zero"]]
ABLATE_SEEDS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="git revision to compare the working tree with")
    p.add_argument("--src", type=Path, help=argparse.SUPPRESS)  # run the jobs on this source
    return p.parse_args(argv)


def jobs(src: Path) -> list[tuple[str, bytes]]:
    """Run every job on the package under `src`; return its named outputs in order."""
    sys.path.insert(0, str(src))
    from oodtune.evalcli import main as cli

    outputs = []

    def run(name: str, argv: list[str], out: str | None = None) -> None:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        outputs.append((f"{name} stdout", text.getvalue().encode()))
        if out is not None:
            outputs.append((name, Path(out).read_bytes()))

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the file names the jobs print are relative, the same on each side
        try:
            for size, (gen_flags, train_flags) in SIZES.items():
                data = f"{size}.emba"
                run(f"gen {size}", ["gen", "--out", data, *gen_flags], data)
                runs = []
                for head in HEADS:
                    for ensemble in ENSEMBLES:
                        for seed in SEEDS:
                            out = f"{size}-{head}-{ensemble}-{seed}.run"
                            run(f"train {out}", ["train", "--data", data, "--out", out,
                                                 "--head", head, "--ensemble", ensemble,
                                                 "--seed", str(seed), *train_flags], out)
                            runs.append(out)
                linear = runs[len(ENSEMBLES) * len(SEEDS)]
                evals = [(runs[0], split, TOPK) for split in SPLITS]
                evals += [(runs[0], "both", [*TOPK, *flags]) for flags in EXTRA_EVALS]
                evals.append((runs[0], "both", WIDE_TOPK[size]))
                evals += [(linear, "both", TOPK), (linear, "both", [*TOPK, "--params", "zero"])]
                evals += [(out, split, []) for out in (runs[0], linear) for split in SPLITS]
                for flags in EXTRA_TRAINS[size]:
                    out = f"{size}-{'-'.join(flag.lstrip('-') for flag in flags)}.run"
                    run(f"train {out}", ["train", "--data", data, "--out", out, *flags,
                                         *train_flags], out)
                    evals.append((out, "both", TOPK))
                for out, split, flags in evals:
                    run(f"eval {' '.join([out, split, *flags])}",
                        ["eval", "--run", out, "--data", data, "--split", split, "--json",
                         *flags])
            run("ablate desk", ["ablate", "--data", "desk.emba", "--seeds", str(ABLATE_SEEDS),
                                "--json"])
        finally:
            os.chdir(home)
    return outputs


def digests(outputs: list[tuple[str, bytes]]) -> dict[str, str]:
    """The sha256 of each named output, and under "all" one over every
    name and output in order."""
    out, total = {}, hashlib.sha256()
    for name, data in outputs:
        out[name] = hashlib.sha256(data).hexdigest()
        total.update(f"{name}\0{len(data)}\0".encode())
        total.update(data)
    out["all"] = total.hexdigest()
    return out


def side(root: Path) -> dict[str, str]:
    """The digests of the jobs run on the source under `root`, in a new process."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src",
                           str(root / "src")], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"the jobs on {root} exited {done.returncode}:\n{done.stderr}")
    return {name: digest for digest, name in
            (line.split(" ", 1) for line in done.stdout.splitlines())}


def differences(change: dict[str, str], parent: dict[str, str]) -> list[str]:
    """The outputs whose digests differ, or that one side lacks, in order."""
    return [name for name in dict.fromkeys([*parent, *change])
            if parent.get(name) != change.get(name)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.src is not None:
        for name, digest in digests(jobs(args.src)).items():
            print(digest, name)
        return 0
    change = side(ROOT)
    if args.parent is None:
        print(change["all"])
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        checkout(args.parent, Path(tmp))
        parent = side(Path(tmp))
    print(f"{change['all']} working tree")
    print(f"{parent['all']} {args.parent}")
    differ = differences(change, parent)
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
