"""The benchmark's workloads: set-up, the timed job, output checks, and the
traced extras that give per-layer numbers.

Every workload builds its archive from the workload seed and repeats its
job until the measuring time is spent, reporting the median job as `job_s`.
It also sets up a fixed number of times (generate, EMBA round trip, split,
model init), spread over the measuring time, and reports the median as
`setup_s`. The job is:

- desk-train, mid-train: one `trainer.train`;
- open-eval: a RUNF round trip of a parameter vector, `evaluate` on all four
  protocol cells, and a top-5 report on the open-class cell;
- ablate-sweep: one `evalcli.run_ablation`.

The library is driven only through public functions of its modules.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from oodtune import databench as db
from oodtune import evalcli as ev
from oodtune import trainer as tr
from oodtune.model import Encoder

import oracle
import replica
from spans import SpanRecorder

DESK_SPEC = {}  # BenchmarkSpec defaults: C=20, 3 domains, d=32, d_in=48, 50 per class per domain
MIN_JOBS = 3
TOPK = 5
CHECK_STEPS = 20  # steps of trainer.train the untraced run replays through the replica
COUNT_STEPS = 10  # steps over which Tensor constructions are counted
SCORE_PROBES = 5  # scoring passes a traced run times on workloads whose job is not scoring
SWEEP_GRID = ev.ABLATION_GRID


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train", "score" or "sweep"
    spec: dict  # BenchmarkSpec fields other than the seed
    hidden: int
    batch: int
    steps: int  # steps of one training run in the job (train, sweep) or of the traced replica (score)
    setup_reps: int


# why each workload is there is written next to its name in BENCHMARK.json
WORKLOADS = {w.name: w for w in [
    Workload(
        "desk-train", "train",
        DESK_SPEC, hidden=64, batch=36, steps=5000, setup_reps=21),
    Workload(
        "mid-train", "train",
        {"num_classes": 400, "embed_dim": 128, "input_dim": 256,
         "samples_per_class_per_domain": 25},
        hidden=256, batch=256, steps=300, setup_reps=7),
    Workload(
        "open-eval", "score",
        {"num_classes": 1000, "embed_dim": 64, "input_dim": 96,
         "samples_per_class_per_domain": 20},
        hidden=64, batch=36, steps=300, setup_reps=5),
    Workload(
        "ablate-sweep", "sweep",
        DESK_SPEC, hidden=64, batch=36, steps=300, setup_reps=21),
]}


class Ledger:
    """Counts operations (a train, an evaluate, a file round trip or an
    output check) and the ones that raised or failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any library failure is a failed operation, not a crash
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, what: str, problems) -> None:
        """Record a check; `problems` is a list of messages, empty when it holds."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Context:
    w: Workload
    seed: int
    tmp: Path  # directory for the run's scratch files
    ledger: Ledger
    spec: db.BenchmarkSpec | None = None
    archive: db.EmbeddingArchive | None = None
    splits: db.Splits | None = None
    trainset: tr.TrainSet | None = None
    files: int = 0  # files written so far, for fresh names
    setups_done: int = 0  # set-ups attempted so far
    setup_times: dict = field(default_factory=dict)
    first: object = None  # output of the first job, which every later job must equal
    extra: dict = field(default_factory=dict)

    def cfg(self, steps: int | None = None) -> tr.TrainerConfig:
        return tr.TrainerConfig(steps=steps or self.w.steps, batch_size=self.w.batch,
                                seed=self.seed)

    def encoder(self) -> Encoder:
        """Seeded initial encoder, as the CLI builds it."""
        return Encoder.init(self.archive.input_dim, self.w.hidden, self.archive.bank.dim,
                            np.random.default_rng([self.seed, 0]))


# ---------------------------------------------------------------------------
# set-up


SETUP_STAGES = ("databench.generate_s", "databench.save_s", "databench.load_s",
                "databench.split_s", "setup_s")


def setup_once(ctx: Context) -> None:
    """Set up once (generate, EMBA round trip, split, model init), record the
    stage times, and on the first success install the result in ctx."""
    if ctx.spec is None:
        ctx.spec = db.BenchmarkSpec(**ctx.w.spec, seed=ctx.seed)
    ctx.files += 1
    # a fresh name per write: rewriting a file just written makes ext4 flush
    # it on close, which would time the disk rather than the library
    path = ctx.tmp / f"archive-{ctx.files}.emba"
    ctx.setups_done += 1
    with ctx.ledger.op("EMBA round trip"):
        t0 = time.perf_counter()
        archive = db.generate(ctx.spec)
        t1 = time.perf_counter()
        db.save(archive, path)
        t2 = time.perf_counter()
        loaded = db.load(path)
        t3 = time.perf_counter()
        splits = db.split(loaded, ctx.spec)
        t4 = time.perf_counter()
        trainset = tr.TrainSet(splits.train.features.astype(np.float64), splits.train.labels)
        Encoder.init(loaded.input_dim, ctx.w.hidden, loaded.bank.dim,
                     np.random.default_rng([ctx.seed, 0]))
        t5 = time.perf_counter()
        path.unlink()
        for key, dt in zip(SETUP_STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t0)):
            ctx.setup_times.setdefault(key, []).append(dt)
        ctx.ledger.check("EMBA round trip", [] if db.archives_equal(archive, loaded)
                         else ["loaded archive differs from the generated one"])
        if ctx.archive is None:
            ctx.archive, ctx.splits, ctx.trainset = loaded, splits, trainset
        else:
            ctx.ledger.check("generation is deterministic",
                             [] if db.archives_equal(loaded, ctx.archive)
                             else ["archive differs between set-ups of one seed"])


def setup_medians(ctx: Context) -> dict[str, float]:
    return {k: median(v) for k, v in ctx.setup_times.items()}


# ---------------------------------------------------------------------------
# jobs: each returns (seconds, output, per-part seconds)


def train_job(ctx: Context):
    enc = ctx.encoder()
    t0 = time.perf_counter()
    result = tr.train(enc, ctx.archive.bank, ctx.trainset, ctx.cfg())
    return time.perf_counter() - t0, result, {}


def score_job(ctx: Context, params: np.ndarray | None = None):
    enc = ctx.encoder()
    flat = enc.get_flat() if params is None else params
    ctx.files += 1
    path = ctx.tmp / f"run-{ctx.files}.bin"  # fresh name, as for the archive
    s = ctx.splits
    t0 = time.perf_counter()
    ev.save_run(path, {"seed": ctx.seed, "hidden": ctx.w.hidden}, np.zeros(0), flat, flat)
    run = ev.load_run(path)
    enc.set_flat(run.ensemble_params)
    t1 = time.perf_counter()
    path.unlink()
    reports = {cell: ev.evaluate(enc, ctx.archive.bank, getattr(s, cell), s.base_classes)
               for cell in ("test_domain_shift", "test_open", "test_both", "train")}
    t2 = time.perf_counter()
    top = ev.evaluate(enc, ctx.archive.bank, s.test_open, s.base_classes, topk=TOPK)
    t3 = time.perf_counter()
    out = {"run": run, "saved": flat, "reports": reports, "topk": top}
    return t3 - t0, out, {"evalcli.run_io_s": t1 - t0, "evalcli.evaluate_s": t2 - t1,
                          "evalcli.topk_s": t3 - t2}


def sweep_seeds(seed: int) -> list[int]:
    return [5 * seed + i for i in range(5)]


def sweep_job(ctx: Context):
    t0 = time.perf_counter()
    result = ev.run_ablation(ctx.archive, sweep_seeds(ctx.seed), ctx.w.steps,
                             batch=ctx.w.batch, hidden=ctx.w.hidden)
    return time.perf_counter() - t0, result, {}


JOBS = {"train": train_job, "score": score_job, "sweep": sweep_job}


# ---------------------------------------------------------------------------
# checks on job outputs


def _same_train(a: tr.RunResult, b: tr.RunResult) -> bool:
    return (np.array_equal(a.loss_curve, b.loss_curve)
            and np.array_equal(a.final_params, b.final_params)
            and np.array_equal(a.ensemble_params, b.ensemble_params))


def _same_score(a: dict, b: dict) -> bool:
    return (all(a["reports"][k].to_json() == b["reports"][k].to_json() for k in a["reports"])
            and a["topk"].to_json() == b["topk"].to_json())


def check_job(ctx: Context, out) -> None:
    kind, led = ctx.w.kind, ctx.ledger
    if kind == "train":
        curve = out.loss_curve
        window = max(1, curve.size // 10)
        led.check("loss curve finite", [] if np.all(np.isfinite(curve)) else ["non-finite loss"])
        first, last = float(curve[:window].mean()), float(curve[-window:].mean())
        led.check("loss falls", [] if last < first else
                  [f"last-window loss {last:.4g} >= first-window loss {first:.4g}"])
        same = _same_train
    elif kind == "score":
        problems = [] if np.array_equal(out["run"].ensemble_params, out["saved"]) \
            and np.array_equal(out["run"].final_params, out["saved"]) \
            else ["RUNF parameters changed in the round trip"]
        led.check("RUNF round trip", problems)
        same = _same_score
    else:
        problems = [f"{name} {key}={val}" for name, row in out.items()
                    for key, val in row.items() if not 0.0 <= val <= 1.0]
        if sorted(out) != sorted(f"{m}+{e}" for m, e in SWEEP_GRID):
            problems.append(f"variants {sorted(out)}")
        led.check("sweep accuracies in [0, 1]", problems)
        same = operator.eq
    if ctx.first is None:
        ctx.first = out
    else:
        led.check("job is deterministic", [] if same(out, ctx.first)
                  else ["output differs from the first job of this run"])


def oracle_checks(ctx: Context) -> None:
    """Compare the first job's output with a reference computed apart."""
    led, out = ctx.ledger, ctx.first
    if out is None:
        return
    if ctx.w.kind == "score":
        bank = ctx.archive.bank.embeddings
        for cell, report in list(out["reports"].items()) + [("test_open top-k", out["topk"])]:
            subset = getattr(ctx.splits, cell.split()[0])
            with led.op(f"oracle {cell}"):
                s = oracle.scores(out["saved"], ctx.archive.input_dim, ctx.w.hidden,
                                  ctx.archive.bank.dim, bank, subset.features)
                topk = TOPK if cell.endswith("top-k") else None
                led.check(f"evaluate {cell} matches the numpy oracle",
                          oracle.check_report(report, s, subset, ctx.splits.base_classes,
                                              tau=0.01, topk=topk))  # evaluate's default tau
    elif ctx.w.kind == "sweep":
        with led.op("oracle sweep"):
            want = oracle.sweep(ctx.archive, sweep_seeds(ctx.seed), ctx.w.steps, 3e-3,
                                ctx.w.batch, ctx.w.hidden, SWEEP_GRID)
            problems = [f"{k}: {out.get(k)} vs {v}" for k, v in want.items()
                        if out.get(k) != v]
            led.check("run_ablation matches train/split/evaluate rebuilt", problems)
    else:
        # the replica replays the first steps of the job's schedule
        with led.op("replica check"):
            res, _ = replica.replicate(ctx.encoder(), ctx.archive.bank, ctx.trainset,
                                       ctx.cfg(), steps_run=CHECK_STEPS)
            want = out.loss_curve[:CHECK_STEPS]
            got = res.loss_curve
            ctx.extra["trace.matches_train"] = bool(np.array_equal(got, want))
            worst = float(np.max(np.abs(got - want)))
            led.check("trainer.train agrees with the replica",
                      [] if worst <= replica.AGREE_ATOL else
                      [f"loss differs by {worst:.3g} over the first {CHECK_STEPS} steps"])


# ---------------------------------------------------------------------------
# the timed loop


def run_jobs(ctx: Context, seconds: float, recorder: SpanRecorder | None = None):
    """Set up once, warm up with one job, then repeat jobs until `seconds`
    have passed (at least MIN_JOBS). The remaining set-ups are spread over
    the measuring time, so that a slow stretch of the machine weighs on
    set-up and job times alike. Returns the job times and per-part times."""
    job = JOBS[ctx.w.kind]
    times, parts = [], {}
    timed = False
    deadline = None
    setup_once(ctx)
    if ctx.archive is None:
        raise RuntimeError("set-up failed: " + "; ".join(ctx.ledger.errors))
    while True:
        with ctx.ledger.op(f"{ctx.w.kind} job"):
            if recorder is None:
                dt, out, part = job(ctx)
            else:
                with recorder.span("job") as rec:
                    dt, out, part = job(ctx)
                rec["timed"] = timed
            check_job(ctx, out)
            if timed:
                times.append(dt)
                for k, v in part.items():
                    parts.setdefault(k, []).append(v)
        if not timed:
            timed, deadline = True, time.perf_counter() + seconds
            continue
        left = max(0.0, deadline - time.perf_counter()) / seconds
        while ctx.setups_done < 1 + (ctx.w.setup_reps - 1) * (1.0 - left):
            setup_once(ctx)
        if left == 0.0 and len(times) >= MIN_JOBS:
            break
        if time.perf_counter() >= deadline + 4 * seconds:
            break  # jobs keep failing; stop rather than spin
    while ctx.setups_done < ctx.w.setup_reps:
        setup_once(ctx)
    return times, parts


def job_samples(ctx: Context) -> dict[str, float]:
    """Samples one job processes, for the throughput lines of the report."""
    w, s = ctx.w, ctx.splits
    if w.kind == "train":
        return {"train_samples": w.steps * w.batch}
    if w.kind == "score":
        cells = ("test_domain_shift", "test_open", "test_both", "train")
        return {"eval_samples": sum(getattr(s, c).labels.size for c in cells),
                "topk_samples": s.test_open.labels.size}
    runs = len(SWEEP_GRID) * 5
    return {"train_samples": runs * w.steps * w.batch,
            "eval_samples": runs * s.test_both.labels.size}


# ---------------------------------------------------------------------------
# traced extras


def traced_layers(ctx: Context, parts: dict) -> dict[str, float]:
    """Per-layer numbers of a traced run, past the job loop: the replica's
    stage times against an untraced trainer.train of the same
    configuration, the Tensor count per step, scoring times and computed
    counts."""
    led, w = ctx.ledger, ctx.w
    layers: dict[str, float] = {}
    cfg = ctx.cfg()  # the sweep's adaptive + bma variant at the workload seed
    with led.op("untraced train for the step reference"):
        t0 = time.perf_counter()
        reference = tr.train(ctx.encoder(), ctx.archive.bank, ctx.trainset, cfg)
        layers["trainer.step_us"] = (time.perf_counter() - t0) / cfg.steps * 1e6
    with led.op("traced replica"):
        t0 = time.perf_counter()
        res, stage_ns = replica.replicate(ctx.encoder(), ctx.archive.bank, ctx.trainset, cfg)
        layers["trace.step_us"] = (time.perf_counter() - t0) / cfg.steps * 1e6
        for name, ns in stage_ns.items():
            layers[f"{name}_us"] = float(np.median(ns)) / 1e3
        same, worst = replica.compare(res, reference)
        ctx.extra["trace.matches_train"] = same
        ctx.extra["trace.max_abs_diff"] = worst
        led.check("trainer.train agrees with the replica",
                  [] if worst <= replica.AGREE_ATOL else [f"differs by {worst:.3g}"])
    with led.op("Tensor count"):
        enc = ctx.encoder()
        with replica.counting_tensors() as counter:
            tr.train(enc, ctx.archive.bank, ctx.trainset, ctx.cfg(COUNT_STEPS))
        layers["tensor.tensors_per_step"] = counter[0] / COUNT_STEPS
    if w.kind != "score":
        # time the scoring pass on this workload's archive with the trained vector
        probes = []
        for _ in range(SCORE_PROBES):
            with led.op("scoring probe"):
                _, out, part = score_job(ctx, reference.ensemble_params)
                led.check("RUNF round trip", [] if np.array_equal(
                    out["run"].ensemble_params, out["saved"]) else ["parameters changed"])
                probes.append(part)
        parts = {k: [p[k] for p in probes] for k in probes[0]} if probes else {}
    for k, v in parts.items():
        layers[k] = median(v)
    p = ctx.encoder().get_flat().size
    layers.update(replica.computed_counts(cfg.batch_size, ctx.archive.input_dim, w.hidden,
                                          ctx.archive.bank.dim, ctx.archive.bank.num_classes, p))
    return layers
