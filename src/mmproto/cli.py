"""Command-line entry point: corpus generation, pretraining, probes,
Sinkhorn demo, and gradient verification.

Every run writes a JSON manifest next to its primary output with the fully
resolved configuration, so any result can be reproduced from the manifest
alone. Exit codes: 0 success, 1 I/O error or out of memory, otherwise
the `exit_code` of the `mmproto.errors` class raised (1 file format,
2 usage, 3 numerical).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .data import CorpusSpec, check_seed, generate, load_corpus, save_corpus
from .errors import Error, FormatError, NumericalError, UsageError
from .evaluation import (check_neighbors, cluster_agreement, knn_probe,
                         linear_probe)
from .gradcheck import C, FD_STEP, TOLERANCE, run_suite
from .model import EncoderConfig
from .sinkhorn import SinkhornConfig, compute_codes
from .trainer import (TrainConfig, config_entries, config_from_dict,
                      config_to_text, load_checkpoint, save_checkpoint, train)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = UsageError.exit_code
EXIT_NUMERIC = NumericalError.exit_code


#: pretrain flag -> (config key, argument type, help text before the default)
CONFIG_FLAGS = {
    "--epochs": ("epochs", int, "training epochs"),
    "--batch-size": ("batch_size", int, "batch size"),
    "--lr": ("base_lr", float, "base learning rate"),
    "--momentum": ("momentum", float, "SGD momentum"),
    "--k": ("k_prototypes", int, "number of prototypes"),
    "--temperature": ("loss.temperature", float, "softmax temperature"),
    "--epsilon": ("loss.sinkhorn.epsilon", float, "Sinkhorn regularization"),
    "--queue-length": ("loss.queue_length", int, "feature queue capacity"),
    "--embed-dim": ("encoder.embed_dim", int, "embedding dimensionality"),
    "--hidden-dims": ("encoder.hidden_dims", str,
                      "comma-separated hidden widths"),
    "--seed": ("seed", int, "training seed"),
}

#: gen-data flag -> (CorpusSpec field, argument type, default, help text)
CORPUS_FLAGS = {
    "--n": ("n_samples", int, 2000, "number of samples"),
    "--clusters": ("n_latent_clusters", int, 8, "latent clusters"),
    "--latent-dim": ("latent_dim", int, 16, "latent dimensionality"),
    "--d1": ("d1", int, 32, "modality-1 dimensionality"),
    "--d2": ("d2", int, 32, "modality-2 dimensionality"),
    "--sigma": ("noise_sigma", float, 0.05, "gaussian noise level"),
    "--seed": ("seed", int, 0, "generator seed"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _write_manifest(path, command: str, config: dict, paths: dict, seed):
    manifest = {"command": command, "config": config, "paths": paths,
                "seed": seed, "version": __version__}
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmproto",
        description="Two-modality swapped-prediction clustering engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic paired corpus")
    for flag, (_, kind, default, text) in CORPUS_FLAGS.items():
        g.add_argument(flag, type=kind, default=default,
                       help=f"{text} (default: %(default)s)")
    g.add_argument("--out", required=True, help="output corpus path")

    p = sub.add_parser("pretrain", help="train encoder and prototypes")
    p.add_argument("--data", required=True, help="corpus file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--metrics", help="append-only metrics file (JSON lines)")
    defaults = config_entries(config_to_text(TrainConfig()))
    for flag, (key, kind, text) in CONFIG_FLAGS.items():
        p.add_argument(flag, type=kind,
                       help=f"{text} (default: {defaults[key]})")
    p.add_argument("--stop-after", type=int,
                   help="stop after this many total steps, keeping the "
                        "full schedule; resume later with --resume "
                        "(default: run to completion)")

    r = sub.add_parser("probe", help="evaluate a checkpoint")
    r.add_argument("--ckpt", required=True, help="checkpoint file")
    r.add_argument("--data", required=True, help="labeled corpus file")
    r.add_argument("--probe", required=True,
                   choices=["linear", "knn", "cluster"],
                   help="probe kind")
    r.add_argument("--seed", type=int, default=0,
                   help="train/test split seed (default: %(default)s)")
    r.add_argument("--modality", default="m1", choices=["m1", "m2", "both"],
                   help="embeddings to probe; the cluster probe takes m1 "
                        "or m2 (default: %(default)s)")
    r.add_argument("--knn-k", type=int, default=5,
                   help="neighbors for the knn probe (default: %(default)s)")
    r.add_argument("--results", help="append report to this file")

    c = sub.add_parser("codes", help="Sinkhorn demo on a CSV score matrix")
    c.add_argument("--scores", required=True,
                   help="CSV file, one score row per line")
    c.add_argument("--epsilon", type=float, default=SinkhornConfig.epsilon,
                   help="entropy regularization (default: %(default)s)")
    c.add_argument("--iters", type=int, default=SinkhornConfig.n_iterations,
                   help="normalization sweeps; 0 solves to the fixed point "
                        "(default: %(default)s)")

    d = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    d.add_argument("--seed", type=int, default=0,
                   help="suite seed (default: %(default)s)")
    return parser


def _flags_to_config(args, base: TrainConfig) -> tuple[TrainConfig, dict]:
    """Resolve `base` < --config file < inline flags; returns the config and
    the inline overrides for the manifest."""
    if args.config:
        base = config_from_dict(config_entries(
            Path(args.config).read_text(errors="replace")), base)
    overrides = {key: str(value) for flag, (key, _, _) in CONFIG_FLAGS.items()
                 if (value := getattr(args, _dest(flag))) is not None}
    return config_from_dict(overrides, base), overrides


def _cmd_gen_data(args) -> int:
    corpus = generate(CorpusSpec(**{
        field: getattr(args, _dest(flag))
        for flag, (field, *_) in CORPUS_FLAGS.items()}))
    save_corpus(corpus, args.out)
    _write_manifest(args.out + ".manifest.json", "gen-data",
                    {_dest(flag): getattr(args, _dest(flag))
                     for flag in CORPUS_FLAGS if flag != "--seed"},
                    {"out": args.out}, args.seed)
    print(f"wrote {args.out}: {corpus.n_samples} samples, "
          f"dims {args.d1}/{args.d2}")
    return EXIT_OK


def _cmd_pretrain(args) -> int:
    for flag, path in (("--out", args.out), ("--metrics", args.metrics)):
        # checked before the run, which could not save its results
        if path is not None and not Path(path).parent.is_dir():
            raise FileNotFoundError(
                f"{flag} {path}: no directory {Path(path).parent}")
    corpus = load_corpus(args.data)
    # the corpus widths are the defaults, which --config and flags override
    config, overrides = _flags_to_config(args, TrainConfig(
        encoder=EncoderConfig(input_dims=(corpus.modality1.shape[1],
                                          corpus.modality2.shape[1]))))
    if args.resume and (args.config or overrides):
        raise UsageError("--resume takes its config from the checkpoint; "
                         "drop --config and the config flags")
    resume = load_checkpoint(args.resume) if args.resume else None
    if resume is not None:
        config = resume.config

    metrics_file = None

    def sink(record):  # opened on the first record: a rejected run writes none
        nonlocal metrics_file
        if metrics_file is None:
            metrics_file = open(args.metrics, "a")
        metrics_file.write(json.dumps(dataclasses.asdict(record)) + "\n")

    try:
        ckpt, metrics = train(corpus, config, resume_from=resume,
                              metrics_sink=sink if args.metrics else None,
                              stop_after=args.stop_after)
    finally:
        if metrics_file:
            metrics_file.close()

    save_checkpoint(ckpt, args.out)
    _write_manifest(
        args.out + ".manifest.json", "pretrain",
        {"resolved": config_to_text(config).strip().splitlines(),
         "inline_overrides": overrides},
        {"data": args.data, "out": args.out, "config": args.config,
         "resume": args.resume, "metrics": args.metrics}, config.seed)
    final = metrics[-1] if metrics else None
    if final:
        print(f"trained {len(metrics)} steps; final loss {final.loss:.6f}")
    return EXIT_OK


def _cmd_probe(args) -> int:
    # every probe kind takes these flags, so each kind checks them
    check_neighbors(args.knn_k)
    check_seed("split_seed", args.seed)
    ckpt = load_checkpoint(args.ckpt)
    corpus = load_corpus(args.data)
    if args.probe == "linear":
        report = linear_probe(ckpt, corpus, args.seed, args.modality)
    elif args.probe == "knn":
        report = knn_probe(ckpt, corpus, args.knn_k, args.seed, args.modality)
    else:
        report = cluster_agreement(ckpt, corpus, args.modality)
    line = json.dumps(report.to_dict(), sort_keys=True)
    print(line)
    if args.results:
        with open(args.results, "a") as f:
            f.write(line + "\n")
    return EXIT_OK


def _cmd_codes(args) -> int:
    config = SinkhornConfig(args.epsilon, args.iters)
    try:
        lines = Path(args.scores).read_text().splitlines()
        # (line number, columns) of each line that holds scores
        widths = [(number, data.count(",") + 1)
                  for number, line in enumerate(lines, 1)
                  if (data := line.partition("#")[0]).strip()]
        for number, width in widths:
            if width != widths[0][1]:
                raise FormatError(f"{args.scores}: line {number} has "
                                  f"{width} column(s), line {widths[0][0]} "
                                  f"has {widths[0][1]}")
        with warnings.catch_warnings():
            # an empty file is reported as a FormatError below
            warnings.filterwarnings("ignore", "loadtxt: input contained no")
            scores = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:  # also a file that is not text
        raise FormatError(f"{args.scores}: {exc}") from None
    if scores.size == 0:
        raise FormatError(f"{args.scores}: no scores")
    codes = compute_codes(scores, config)
    if config.n_iterations == 0 and not codes.converged:
        raise NumericalError(f"codes did not converge: {codes.newton_steps} "
                             f"Newton steps left residual {codes.residual:.3g}")
    for row in codes.q:
        print(",".join(f"{v:.9g}" for v in row))
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_suite(seed=args.seed)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.op:<20s} of_bound={r.bound_ratio:.3e} "
              f"at {r.worst}")
        ok = ok and r.passed
    print(f"gradcheck: {'all gradients within' if ok else 'exceeded'} "
          f"the bound {TOLERANCE}*|n| + {C:g}*eps*|f|/{FD_STEP}")
    return EXIT_OK if ok else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    handlers = {"gen-data": _cmd_gen_data, "pretrain": _cmd_pretrain,
                "probe": _cmd_probe, "codes": _cmd_codes,
                "gradcheck": _cmd_gradcheck}
    try:
        with warnings.catch_warnings():  # restores showwarning on exit
            # a warning the filters let through is one `warning:` line
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return handlers[args.command](args)
    except Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
