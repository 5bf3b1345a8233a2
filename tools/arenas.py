"""Each glibc malloc arena's system and in-use bytes after a perfbench
workload's set-up and job have run in this process, to show which threads'
heaps keep memory that no one uses.

    python3 tools/arenas.py --workload open-eval [--jobs 16]

The script pins the BLAS to perfbench's one thread, imports the library
from this checkout's `src/` and the workloads from `perfbench/workloads.py`,
as `perfbench/run.py` does, and runs the workload's set-up and its job, one
after the other, `--jobs` times at seed 0. Then it calls the C library's
`malloc_stats()`, which writes to standard error, with fd 2 redirected to a
temporary file, and prints one line per arena (its index, system bytes and
in-use bytes) and the totals. Arena 0 is the main thread's. Another thread
gets an arena of its own, one that a thread which has exited left free if
there is one, and glibc keeps an arena's memory resident after its thread
exits. Where the C library has no `malloc_stats` (it is not glibc) the
script says so and exits 0.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import re
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_ARENA = re.compile(r"^Arena (\d+):\s*\nsystem bytes\s*=\s*(\d+)\s*\nin use bytes\s*=\s*(\d+)",
                    re.MULTILINE)
_TOTAL = re.compile(r"^Total \(incl\. mmap\):\s*\nsystem bytes\s*=\s*(\d+)\s*\n"
                    r"in use bytes\s*=\s*(\d+)", re.MULTILINE)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--jobs", type=int, default=16)
    args = p.parse_args(argv)
    if args.jobs < 1:
        p.error(f"--jobs must be >= 1, got {args.jobs}")
    return args


def parse_stats(text: str) -> tuple[list[tuple[int, int, int]], tuple[int, int]]:
    """The arenas of a `malloc_stats()` text, as (index, system bytes, in-use
    bytes), and its (system bytes, in-use bytes) total, mmapped chunks
    included."""
    total = _TOTAL.search(text)
    if total is None:
        raise ValueError("no total in the malloc_stats text")
    arenas = [tuple(map(int, m.groups())) for m in _ARENA.finditer(text)]
    return arenas, (int(total[1]), int(total[2]))


def malloc_stats(libc) -> str:
    """What `libc.malloc_stats()` writes to fd 2, caught in a temporary file."""
    with tempfile.TemporaryFile() as caught:
        sys.stderr.flush()
        saved = os.dup(2)
        try:
            os.dup2(caught.fileno(), 2)
            libc.malloc_stats()
            libc.fflush(None)
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        caught.seek(0)
        return caught.read().decode()


def report(arenas, total) -> str:
    lines = [f"{'arena':>5} {'system bytes':>14} {'in use bytes':>14}"]
    lines += [f"{index:>5} {system:>14} {in_use:>14}" for index, system, in_use in arenas]
    lines.append(f"{'total':>5} {total[0]:>14} {total[1]:>14}  (mmapped chunks included)")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "malloc_stats"):
        print("this C library has no malloc_stats: no arenas to show")
        return 0
    sys.path.insert(0, str(PERFBENCH))
    import run
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    run.import_library()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        ctx = W.Context(w=W.WORKLOADS[args.workload], seed=0, tmp=Path(tmp), ledger=W.Ledger())
        for _ in range(args.jobs):
            W.setup_once(ctx)
            if ctx.archive is None:
                break
            with ctx.ledger.op("job"):
                W.JOBS[ctx.w.kind](ctx)
    if ctx.ledger.errors:
        print("error: " + "; ".join(ctx.ledger.errors), file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.jobs} set-ups and jobs")
    print(report(*parse_stats(malloc_stats(libc))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
