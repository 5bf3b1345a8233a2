"""Benchmark for oodtune: runs one workload at one seed and checks its outputs.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 10 --trace 0

Run it from anywhere; it imports the library from `src/` next to this
directory and never from an installed copy. Workloads: desk-train,
mid-train, open-eval, ablate-sweep; workloads.py says what each one runs
and BENCHMARK.json why it is there.

With `--trace 0` the run is untraced and gives the end-to-end metrics of
BENCHMARK.json; with `--trace 1` a separate traced run gives the per-layer
metrics. The report lines name every metric with its unit, the environment
and any failed check; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The full result, and
the spans of a traced run, are written to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from statistics import median
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# one BLAS thread: at two, the median mid-size step of identical batches
# swung by a third between runs; at one it stayed within a few percent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def import_library():
    """Import oodtune from this checkout's src/, or say why not."""
    src = ROOT / "src"
    if not (src / "oodtune" / "__init__.py").is_file():
        raise ImportError(f"no oodtune package under {src}")
    sys.path.insert(0, str(src))
    import oodtune
    if Path(oodtune.__file__).resolve().parent != (src / "oodtune").resolve():
        raise ImportError(f"oodtune was imported from {oodtune.__file__}, not {src}")


def environment(np, workload: str, why: str, seed: int) -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads_runtime": _blas_runtime_threads(np),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "why": why,
    }


def _blas_runtime_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def measure(W, spans_mod, args, tmp):
    """Run the workload; return (ledger, metrics by name, extras)."""
    from oodtune import databench, evalcli, trainer
    w = W.WORKLOADS[args.workload]
    ledger = W.Ledger()
    ctx = W.Context(w=w, seed=args.seed, tmp=tmp, ledger=ledger)
    extras = {}
    recorder = None
    if args.trace:
        recorder = spans_mod.SpanRecorder()
        with recorder.wrapping([(trainer, "train"), (databench, "split"), (evalcli, "evaluate")]):
            times, parts = W.run_jobs(ctx, args.seconds, recorder)
    else:
        times, parts = W.run_jobs(ctx, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stages = W.setup_medians(ctx)
    values = {"setup_s": stages["setup_s"], "peak_rss_mb": peak_rss_mb}
    W.oracle_checks(ctx)
    extras["job_times_s"] = times
    extras["setup_times_s"] = ctx.setup_times.get("setup_s", [])
    if times:
        values["job_s"] = median(times)
        extras["jobs_timed"] = len(times)
        extras.update(throughputs(W, ctx, values["job_s"], parts))
    if args.trace:
        values.update({k: v for k, v in stages.items() if k.startswith("databench.")})
        values.update(W.traced_layers(ctx, parts))
        self_s, sweep_extras = span_summary(W, ctx, recorder)
        extras.update(sweep_extras)
        if self_s is not None:
            values["job.self_s"] = self_s
        if "trace.step_us" in values and "trainer.step_us" in values:
            extras["trace.overhead_us"] = values["trace.step_us"] - values["trainer.step_us"]
        recorder.write(OUT / f"spans_{w.name}_seed{args.seed}.json")
    extras.update(ctx.extra)
    return ledger, values, extras


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_mb", "MB"), ("_flops", "flop"),
                         ("_bytes", "B"), ("_per_step", "count"), ("_timed", "count"),
                         ("_recorded", "count"), ("_share", "1"), ("_diff", "1")):
        if name.endswith(suffix):
            return unit
    return ""


def throughputs(W, ctx, job_s: float, parts: dict) -> dict:
    """The per-workload rates a user sees, from the job times."""
    samples = W.job_samples(ctx)
    out = {}
    if ctx.w.kind == "train":
        out["train_samples_per_s"] = samples["train_samples"] / job_s
    elif ctx.w.kind == "score":
        out["eval_samples_per_s"] = samples["eval_samples"] / median(parts["evalcli.evaluate_s"])
        out["topk_samples_per_s"] = samples["topk_samples"] / median(parts["evalcli.topk_s"])
    else:
        out["sweep_s"] = job_s
    return out


def span_summary(W, ctx, recorder) -> tuple[float | None, dict]:
    """Median self time of the timed jobs and, for the sweep, the rates of
    its child train and evaluate spans."""
    roots = [s for s in recorder.spans if s["parent"] is None and s.get("timed")]
    if not roots:
        return None, {}
    self_s = median([recorder.self_ns(s["id"]) / 1e9 for s in roots])
    out = {"spans_recorded": len(recorder.spans)}
    if ctx.w.kind == "sweep":
        out["evalcli.ablation_self_s"] = self_s
        samples = W.job_samples(ctx)
        for name, key in (("trainer.train", "train"), ("evalcli.evaluate", "eval")):
            per_job = [sum(c["end_ns"] - c["start_ns"] for c in recorder.spans
                           if c["parent"] == r["id"] and c["name"] == name) for r in roots]
            out[f"{key}_samples_per_s"] = samples[f"{key}_samples"] / (median(per_job) / 1e9)
    return self_s, out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import spans as spans_mod
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 1
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    start = time.perf_counter()
    try:
        ledger, values, extras = measure(W, spans_mod, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    why = {wl["name"]: wl["why"] for wl in spec["workloads"]}.get(args.workload)
    env = environment(np, args.workload, why, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for kind, table in (("metric", values), ("extra", extras)):
        for name, value in sorted(table.items()):
            if isinstance(value, list):
                continue  # samples go to the result file only
            print(f"{kind} {name} {value!r} {unit_of(name)}".rstrip())
    share = ledger.failed / max(ledger.attempted, 1)
    print(f"extra failed_share {share!r} ({ledger.failed} of {ledger.attempted} operations)")
    for err in ledger.errors:
        print(f"failed {err}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": ledger.failed == 0 and not missing,
              "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    record = dict(result, environment=env, all_values=values, extras=extras,
                  errors=ledger.errors, wall_s=time.perf_counter() - start, trace=args.trace)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
