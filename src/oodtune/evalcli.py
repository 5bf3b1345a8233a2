"""The run-file container, the run spec `eval` rebuilds a run from, the
command-line surface, and the ablation sweep; `scoring.evaluate` scores.

Run file layout (little-endian):
    magic "RUNF" | version 0x01
    u32 config length | UTF-8 JSON config echo
    u32 T | T f32 loss curve
    u32 P | P f64 final parameter vector
    u32 P | P f64 ensemble parameter vector
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import struct
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import databench as db
from . import losses as L
from . import trainer as tr
from .databench import ArchiveFormatError
from .model import Encoder, LinearHead, trainables, unflatten_params
from .scoring import evaluate

RUN_MAGIC = b"RUNF"
RUN_VERSION = 1


class RunFileError(ValueError):
    """Raised on malformed run files."""


# ---------------------------------------------------------------------------
# Run file container


@dataclass
class RunFile:
    config: dict
    loss_curve: np.ndarray  # float32
    final_params: np.ndarray  # float64
    ensemble_params: np.ndarray  # float64


def save_run(path, config: dict, loss_curve, final_params, ensemble_params) -> None:
    """Write a RUNF v1 file; raise ValueError, before the file is opened,
    for a loss the file's float32 curve cannot hold or parameters that are
    not finite."""
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    loss = np.asarray(loss_curve, dtype=np.float64)
    beyond = np.flatnonzero(~(np.abs(loss) <= np.finfo(np.float32).max))
    if beyond.size:
        raise ValueError(f"the loss at step {beyond[0]}, {loss[beyond[0]]}, is not finite in "
                         f"float32, so the run file cannot store it")
    curve = loss.astype("<f4")
    final = np.ascontiguousarray(final_params, dtype="<f8")
    ens = np.ascontiguousarray(ensemble_params, dtype="<f8")
    if final.shape != ens.shape:
        raise ValueError("final and ensemble parameter vectors differ in length")
    for name, params in (("final", final), ("ensemble", ens)):
        if not np.isfinite(params).all():
            raise ValueError(f"the {name} parameters are not finite")
    with open(path, "wb") as fh:
        fh.write(RUN_MAGIC)
        fh.write(bytes([RUN_VERSION]))
        fh.write(struct.pack("<I", len(config_bytes)))
        fh.write(config_bytes)
        for section in (curve, final, ens):
            fh.write(struct.pack("<I", section.size))
            fh.write(db._raw(section, section.dtype.str))


def load_run(path) -> RunFile:
    with open(path, "rb") as fh:
        reader = db.BoundedReader(fh, RunFileError)
        if reader.read(4, "magic") != RUN_MAGIC:
            raise RunFileError("bad run-file magic")
        if reader.read(1, "version")[0] != RUN_VERSION:
            raise RunFileError("unsupported run-file version")
        (clen,) = struct.unpack("<I", reader.read(4, "config length"))
        raw = reader.read(clen, "config")
        try:
            config = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RunFileError(f"run config is not UTF-8 JSON: {exc}") from None
        (t,) = struct.unpack("<I", reader.read(4, "curve length"))
        curve = reader.array("<f4", t, "loss curve")
        (p,) = struct.unpack("<I", reader.read(4, "final length"))
        final = reader.array("<f8", p, "final params")
        (q,) = struct.unpack("<I", reader.read(4, "ensemble length"))
        ens = reader.array("<f8", q, "ensemble params")
    if reader.left:
        raise RunFileError(f"{reader.left} trailing bytes after the ensemble params")
    return RunFile(config=config, loss_curve=curve, final_params=final, ensemble_params=ens)


# ---------------------------------------------------------------------------
# CLI


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError; it and its subcommands take each flag by its whole
    name only (argparse would read `--seed` as `--seeds`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _kind_number(flag: str, text: str, kinds: tuple[str, ...], numbered: str,
                 default: float) -> tuple[str, float]:
    """Read a `<kind>` or `<numbered>:<number>` flag value as (kind, number);
    a value without a number gives `default`."""
    kind, colon, number = text.partition(":")
    if kind in kinds and (kind == numbered or not colon):
        with contextlib.suppress(ValueError):
            return kind, float(number) if colon else default
    raise UsageError(f"bad {flag} value {text!r}; use {numbered}:<number> or one of "
                     f"{', '.join(kinds)}")


# the least value of each integer a run records; the CLI flags of the same
# names are held to it as usage errors
_LEAST = {"seed": 0, "hidden": 1, "shots": 1}

# the encoder's hidden width unless --hidden sets it
DEFAULT_HIDDEN = 64

# eval --split choices and the protocol cell each scores
_SPLIT_CELLS = {"domain": "test_domain_shift", "open": "test_open", "both": "test_both",
                "train": "train"}


def build_parser() -> _Parser:
    parser = _Parser(prog="oodtune", description="Synthetic OOD fine-tuning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # defaults that a config field holds are read from its class
    spec, cfg, loss = db.BenchmarkSpec, tr.TrainerConfig, L.LossConfig
    gen = sub.add_parser("gen", help="generate a synthetic embedding archive")
    gen.add_argument("--classes", type=int, default=spec.num_classes)
    gen.add_argument("--domains", type=int, default=spec.num_domains)
    gen.add_argument("--embed-dim", type=int, default=spec.embed_dim)
    gen.add_argument("--input-dim", type=int, default=spec.input_dim)
    gen.add_argument("--per-class", type=int, default=spec.samples_per_class_per_domain)
    gen.add_argument("--test-domain", type=int,
                     help="only checked against --domains: the archive holds every domain; "
                          "defaults to the last one")
    gen.add_argument("--noise-sigma", type=float, default=spec.noise_sigma)
    gen.add_argument("--domain-strength", type=float, default=spec.domain_strength)
    gen.add_argument("--seed", type=int, default=spec.seed)
    gen.add_argument("--out", required=True)

    # the flags train and ablate share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", required=True)
    common.add_argument("--lr", type=float, default=cfg.base_lr)
    common.add_argument("--batch", type=int, default=cfg.batch_size)
    common.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    common.add_argument("--base-fraction", type=float, default=spec.base_fraction)
    common.add_argument("--test-domain", type=int,
                        help="held-out domain; defaults to the last one")

    train = sub.add_parser("train", parents=[common],
                           help="fine-tune on the base-class training domains")
    train.add_argument("--out", required=True)
    train.add_argument("--lambda", dest="lam", type=float, default=loss.lam)
    train.add_argument("--beta", type=float, default=cfg.beta)
    train.add_argument("--tau", type=float, default=loss.tau)
    train.add_argument("--steps", type=int, default=cfg.steps)
    train.add_argument("--weight-decay", type=float, default=cfg.weight_decay)
    train.add_argument("--seed", type=int, default=cfg.seed)
    train.add_argument("--margin", default=loss.margin_mode)
    train.add_argument("--ensemble", default=cfg.ensemble_mode)
    train.add_argument("--head", choices=[tr.HEAD_METRIC, tr.HEAD_LINEAR], default=cfg.head)
    train.add_argument("--bma-every", type=int, default=cfg.bma_every)
    train.add_argument("--shots", type=int)

    ev = sub.add_parser("eval", help="evaluate a run file on a protocol split")
    ev.add_argument("--run", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=list(_SPLIT_CELLS), default="both")
    ev.add_argument("--params", choices=["ensemble", "final", "zero"], default="ensemble")
    ev.add_argument("--topk", type=int)
    ev.add_argument("--json", action="store_true")

    ab = sub.add_parser("ablate", parents=[common],
                        help="sweep margin x ensemble and report mean H")
    ab.add_argument("--seeds", type=int, default=5)
    ab.add_argument("--steps", type=int, default=300)
    ab.add_argument("--json", action="store_true")
    return parser


def _archive_sizes(archive: db.EmbeddingArchive) -> dict[str, int]:
    """The archive sizes a run config records, named as `BenchmarkSpec` names them."""
    return {"input_dim": archive.input_dim, "embed_dim": archive.bank.dim,
            "num_classes": archive.bank.num_classes, "num_domains": archive.num_domains}


@dataclass(frozen=True)
class RunSpec:
    """The run-config fields `eval` rebuilds a run from. Each annotation is
    the JSON type the field holds; a field with a default may be missing
    from a run config. A run config also holds the archive sizes, which
    `eval` checks, and the trainer config, which it does not read."""

    seed: int
    hidden: int
    head: str
    tau: float
    base_fraction: float
    test_domain: int
    shots: int | None = None  # no cap on the train split

    @classmethod
    def from_config(cls, config, archive: db.EmbeddingArchive) -> RunSpec:
        """The spec of a run config. RunFileError names the first field that
        eval cannot use: missing, of the wrong type or value, or not
        matching the archive."""
        if not isinstance(config, dict):
            raise RunFileError("run config is not a JSON object")
        sizes = _archive_sizes(archive)
        defaults = {f.name: f.default for f in fields(cls)}
        for key, kind in (typing.get_type_hints(cls) | dict.fromkeys(sizes, int)).items():
            if key not in config and defaults.get(key, MISSING) is MISSING:
                raise RunFileError(f"run config lacks the field {key!r}")
            value = config.get(key, defaults.get(key))
            kinds = int | float if kind is float else kind  # a JSON integer is a float too
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise RunFileError(f"run config field {key!r} has the wrong type: {value!r}")
        spec = cls(**{key: config.get(key, default) for key, default in defaults.items()})
        if spec.head not in (tr.HEAD_METRIC, tr.HEAD_LINEAR):
            raise RunFileError(f"run config field 'head' is unknown: {spec.head!r}")
        if not (math.isfinite(spec.tau) and spec.tau > 0 and math.isfinite(1.0 / spec.tau)):
            raise RunFileError("run config field 'tau' must be finite and positive, with a finite "
                               f"reciprocal: {spec.tau!r}")
        for key, least in _LEAST.items():
            value = getattr(spec, key)
            if value is not None and value < least:
                null = " or null" if defaults[key] is None else ""
                raise RunFileError(f"run config field {key!r} must be >= {least}{null}: {value!r}")
        for key, actual in sizes.items():
            if config[key] != actual:
                raise RunFileError(
                    f"run config field {key!r} is {config[key]}, the archive has {actual}")
        try:
            spec._benchmark(archive)
        except ValueError as exc:  # BenchmarkSpec's messages open with the field's name
            key = str(exc).split()[0]
            if key not in defaults:
                raise
            raise RunFileError(f"run config field {key!r}: {exc}") from None
        return spec

    def echo(self, cfg: tr.TrainerConfig, archive: db.EmbeddingArchive) -> dict:
        """The run config `train` writes: the trainer config's fields with
        the loss fields inlined and lam named lambda, the spec's fields and
        the archive sizes."""
        echo = asdict(cfg)
        echo.update(echo.pop("loss"))
        echo["lambda"] = echo.pop("lam")
        return echo | asdict(self) | _archive_sizes(archive)

    def param_count(self, archive: db.EmbeddingArchive) -> int:
        """Entries of the run's parameter vectors: the encoder's, and with the
        linear head its C x d weights."""
        d = archive.bank.dim
        count = self.hidden * (archive.input_dim + 1 + d) + d
        return count + archive.bank.num_classes * d if self.head == tr.HEAD_LINEAR else count

    def _benchmark(self, archive: db.EmbeddingArchive) -> db.BenchmarkSpec:
        """The spec `split` cuts the run's cells of the archive by."""
        return db.BenchmarkSpec(
            **_archive_sizes(archive),
            samples_per_class_per_domain=1,  # unused by split()
            base_fraction=self.base_fraction, test_domain=self.test_domain, seed=self.seed,
            shots=self.shots)

    def splits(self, archive: db.EmbeddingArchive) -> db.Splits:
        """The run's protocol cells of the archive."""
        return db.split(archive, self._benchmark(archive))

    def model(self, archive: db.EmbeddingArchive) -> tuple[Encoder, LinearHead | None]:
        """The seeded initial encoder of the run, and with the linear head
        its head, a copy of the class bank."""
        rng = np.random.default_rng([self.seed, 0])
        encoder = Encoder.init(archive.input_dim, self.hidden, archive.bank.dim, rng)
        linear = self.head == tr.HEAD_LINEAR
        return encoder, LinearHead.from_bank(archive.bank) if linear else None


def _check_out(path: str) -> None:
    """Raise OSError (exit 2) if no file can be written at `path`."""
    folder = os.path.dirname(path) or "."  # of "a/b/" it is a/b: a trailing slash is no file
    problem = ("is a directory" if os.path.isdir(path) else
               "is in a missing directory" if not os.path.isdir(folder) else
               "is in a directory that is not writable" if not os.access(folder, os.W_OK) else
               None)
    if problem is not None:
        raise OSError(f"--out {path} {problem}")


@contextlib.contextmanager
def _sized_by(what: str, args, *flags: str):
    """Turn a MemoryError inside into a ValueError (exit 2) that names the
    size flags, with their values, at which `what` did not fit."""
    try:
        yield
    except MemoryError:
        sizes = ", ".join(f"{flag} {getattr(args, flag[2:].replace('-', '_'))}" for flag in flags)
        raise ValueError(f"{what} does not fit in memory at {sizes}") from None


def _cmd_gen(args) -> int:
    _check_out(args.out)
    spec = db.BenchmarkSpec(
        num_classes=args.classes,
        num_domains=args.domains,
        embed_dim=args.embed_dim,
        input_dim=args.input_dim,
        samples_per_class_per_domain=args.per_class,
        test_domain=args.domains - 1 if args.test_domain is None else args.test_domain,
        noise_sigma=args.noise_sigma,
        domain_strength=args.domain_strength,
        seed=args.seed,
    )
    with _sized_by("the archive", args, "--classes", "--domains", "--per-class", "--embed-dim",
                   "--input-dim"):
        archive = db.generate(spec)
    db.save(archive, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_out(args.out)
    archive = db.load(args.data)
    margin_mode, fixed_m = _kind_number("--margin", args.margin, L.MARGIN_MODES, L.MARGIN_FIXED,
                                        L.LossConfig.fixed_margin)
    ensemble_mode, ema_decay = _kind_number("--ensemble", args.ensemble, tr.ENSEMBLE_MODES,
                                            tr.ENSEMBLE_EMA, tr.TrainerConfig.ema_decay)
    # the config rejects this too, but as a ValueError (exit 2); a --steps
    # below 1 is left to the config's own message
    if ensemble_mode in (tr.ENSEMBLE_BMA, tr.ENSEMBLE_AVG) and args.bma_every > args.steps >= 1:
        raise UsageError(f"--bma-every {args.bma_every} exceeds --steps {args.steps}: "
                         f"the {ensemble_mode} ensemble would get no update")
    cfg = tr.TrainerConfig(
        steps=args.steps,
        batch_size=args.batch,
        base_lr=args.lr,
        weight_decay=args.weight_decay,
        beta=args.beta,
        loss=L.LossConfig(tau=args.tau, lam=args.lam,
                          margin_mode=margin_mode, fixed_margin=fixed_m),
        seed=args.seed,
        ensemble_mode=ensemble_mode,
        ema_decay=ema_decay,
        bma_every=args.bma_every,
        head=args.head,
    )
    held_out = archive.num_domains - 1 if args.test_domain is None else args.test_domain
    spec = RunSpec(seed=args.seed, hidden=args.hidden, head=args.head, tau=args.tau,
                   base_fraction=args.base_fraction, test_domain=held_out, shots=args.shots)
    splits = spec.splits(archive)
    with _sized_by("training", args, "--batch", "--hidden"):
        encoder, head = spec.model(archive)
        result = tr.train(encoder, archive.bank,
                          tr.TrainSet(splits.train.features, splits.train.labels), cfg, head=head)
    save_run(args.out, spec.echo(cfg, archive), result.loss_curve, result.final_params,
             result.ensemble_params)
    print(f"wrote {args.out} (final loss {result.loss_curve[-1]:.4f})")
    return 0


def _cmd_eval(args) -> int:
    archive = db.load(args.data)
    run = load_run(args.run)
    spec = RunSpec.from_config(run.config, archive)
    # checked before the model is built, whose size the config sets
    expected = spec.param_count(archive)
    for name, flat in (("final", run.final_params), ("ensemble", run.ensemble_params)):
        if flat.size != expected:
            raise RunFileError(f"the {name} parameter vector has {flat.size} entries, expected "
                               f"{expected} for the run config's model")
    splits = spec.splits(archive)
    subset = getattr(splits, _SPLIT_CELLS[args.split])

    encoder, head = spec.model(archive)
    if args.params != "zero":  # "zero" keeps the seeded initialization
        flat = run.final_params if args.params == "final" else run.ensemble_params
        unflatten_params(trainables(encoder, head), flat)

    report = evaluate(encoder, archive.bank, subset, splits.base_classes,
                      tau=spec.tau, head=head, topk=args.topk)
    report.config = dict(run.config, split=args.split, params=args.params)
    if args.json:
        for chunk in report.json_chunks():
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    else:
        print(f"split={args.split} params={args.params}")
        print(f"  base accuracy: {report.acc_base:.4f}")
        print(f"  new accuracy:  {report.acc_new:.4f}")
        print(f"  harmonic mean: {report.acc_h:.4f}")
        for m, acc in sorted(report.per_domain.items()):
            print(f"  domain {m}: {acc:.4f}")
        for sample, ranked in report.topk or []:
            print(f"  sample {sample}: " + " ".join(f"{c}:{p:.4f}" for c, p in ranked))
    return 0


ABLATION_GRID = [
    ("adaptive", "bma"),
    ("adaptive", "none"),
    ("none", "bma"),
    ("none", "none"),
]


def run_ablation(archive: db.EmbeddingArchive, seeds: list[int], steps: int,
                 lr: float = tr.TrainerConfig.base_lr, batch: int = tr.TrainerConfig.batch_size,
                 hidden: int = DEFAULT_HIDDEN,
                 base_fraction: float = db.BenchmarkSpec.base_fraction,
                 test_domain: int | None = None) -> dict:
    """Train every margin x ensemble variant per seed; report mean
    base/new/H on the domain+class split.

    Each margin variant is one `train` call with one lane per seed. The
    BMA ensemble only reads the parameters, so a run without an ensemble
    follows the same trajectory: its `final_params` give the `+none` row
    and its BMA average the `+bma` row.
    """
    if not seeds:
        raise ValueError("run_ablation needs at least one seed")
    held_out = archive.num_domains - 1 if test_domain is None else test_domain
    specs = [RunSpec(seed=seed, hidden=hidden, head=tr.HEAD_METRIC, tau=L.LossConfig.tau,
                     base_fraction=base_fraction, test_domain=held_out) for seed in seeds]
    trainsets, bases = [], []
    for spec in specs:
        splits = spec.splits(archive)
        trainsets.append(tr.TrainSet(splits.train.features, splits.train.labels))
        bases.append(splits.base_classes)
    # the held-out-domain cell does not depend on the seed: the last seed's
    # is scored, and evaluate reads its feature rows from the archive, so no
    # test cell's features are copied
    test = splits.test_both
    del splits
    accs = {}
    for margin in dict.fromkeys(m for m, _ in ABLATION_GRID):
        cfgs = [tr.TrainerConfig(steps=steps, batch_size=batch, base_lr=lr, seed=spec.seed,
                                 loss=L.LossConfig(tau=spec.tau, margin_mode=margin),
                                 ensemble_mode=tr.ENSEMBLE_BMA)
                for spec in specs]
        encoders = [spec.model(archive)[0] for spec in specs]
        results = tr.train(encoders, archive.bank, trainsets, cfgs)
        for spec, encoder, result, base in zip(specs, encoders, results, bases):
            for ensemble, flat in ((tr.ENSEMBLE_BMA, result.ensemble_params),
                                   (tr.ENSEMBLE_NONE, result.final_params)):
                encoder.set_flat(flat)
                report = evaluate(encoder, archive.bank, test, base, tau=spec.tau)
                accs.setdefault(f"{margin}+{ensemble}", []).append(
                    (report.acc_base, report.acc_new, report.acc_h))
    results = {}
    for margin, ensemble in ABLATION_GRID:
        arr = np.array(accs[f"{margin}+{ensemble}"])
        results[f"{margin}+{ensemble}"] = {
            "acc_base": float(arr[:, 0].mean()),
            "acc_new": float(arr[:, 1].mean()),
            "acc_h": float(arr[:, 2].mean()),
        }
    return results


def _cmd_ablate(args) -> int:
    archive = db.load(args.data)
    with _sized_by("the sweep", args, "--seeds", "--batch", "--hidden"):
        results = run_ablation(
            archive, seeds=list(range(args.seeds)), steps=args.steps,
            lr=args.lr, batch=args.batch, hidden=args.hidden,
            base_fraction=args.base_fraction, test_domain=args.test_domain,
        )
    if args.json:
        print(json.dumps(results, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{'variant':<18} {'base':>8} {'new':>8} {'H':>8}")
        for name, row in results.items():
            print(f"{name:<18} {row['acc_base']:>8.4f} {row['acc_new']:>8.4f} {row['acc_h']:>8.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        for key, least in (_LEAST | {"seeds": 1, "topk": 1}).items():  # where a command takes it
            value = getattr(args, key, None)
            if value is not None and value < least:
                raise UsageError(f"--{key} must be >= {least}, got {value}")
        return {"gen": _cmd_gen, "train": _cmd_train, "eval": _cmd_eval,
                "ablate": _cmd_ablate}[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ArchiveFormatError, RunFileError, db.GenerationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
