"""Command-line front end tying the pipeline together.

Subcommands: generate, preprocess, search, train, fit-detector,
build-testsets, evaluate, report. Every command takes a master seed and
fans it out to per-stage seeds, echoes its effective configuration into
the output file, and writes outputs atomically. A JSON config file
(--config) may supply any optional flag the command line does not give;
unknown keys, and keys naming a required flag, are rejected.

Exit codes: 0 success, 1 runtime error, 2 usage error. Relative output
paths resolve under $T2VAD_OUT_DIR when set.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict

from . import detect
from .autoenc import AEConfig, build_model, calibrate, embed_many, hyper_search, train
from .inject import InjectionSpec, build_testsets
from .persist import (atomic_write_json, config_digest, load_corpus, load_detector,
                      load_model, load_report, load_testsuite, save_corpus,
                      save_detector, save_model, save_report, save_testsuite)
from .pipeline import (SynthParams, WindowSet, auto_resample_width, clean, load_csv,
                       resample, split, synth_generate, windowize)
from .evaluate import format_report_table, run_benchmark
from .ndtensor import NonFiniteError, TrainingDiverged
from .rng import derive_seed


class CommandError(RuntimeError):
    """User-facing failure; printed and mapped to exit code 1."""


def _out_path(path: str) -> str:
    base = os.environ.get("T2VAD_OUT_DIR", "")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _fits(action: argparse.Action, value) -> bool:
    """Whether a --config value has the JSON type, and is one of the choices, of its flag."""
    if action.nargs == "+":
        return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)
    if action.nargs == 0:      # store_true
        return isinstance(value, bool)
    kind = {int: int, float: (int, float)}.get(action.type, str)
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


class _ConfigFile(argparse.Action):
    """--config FILE: the JSON object's values become the subcommand's flag
    defaults. They are checked as the flag is parsed, before argparse looks for
    missing required flags; `main` then parses again to apply them, so flags
    the command line gives win. Unknown keys, keys naming a required flag
    (argparse takes no default for one) and values that do not fit their
    flag are errors."""

    def __call__(self, parser, namespace, path, option_string=None):
        setattr(namespace, self.dest, path)
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CommandError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(overrides, dict):
            raise CommandError(f"config file {path} must hold a JSON object, "
                               f"not {type(overrides).__name__}")
        actions = {a.dest: a for a in parser._actions if a.dest != "help"}
        unknown = [k for k in overrides if k not in actions]
        if unknown:
            raise CommandError(f"unknown config keys: {unknown}")
        required = [k for k in overrides if actions[k].required]
        if required:
            raise CommandError(f"config keys {required} name required flags: "
                               f"give them on the command line")
        for key, value in overrides.items():
            if not _fits(actions[key], value):
                raise CommandError(f"config value {key}={json.dumps(value)} does not fit its flag")
        parser.set_defaults(**overrides)


def _effective(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    return json.loads(json.dumps(cfg))  # normalize tuples etc. to JSON types


def _require(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise CommandError(f"missing {what}: {path}")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    params = SynthParams(n_windows=args.windows, test_fraction=args.test_fraction)
    corpus = synth_generate(params, seed=derive_seed(args.seed, "generate"))
    corpus.provenance["master_seed"] = args.seed
    corpus.provenance["effective_config"] = _effective(args)
    save_corpus(_out_path(args.out), corpus)
    print(f"wrote corpus: {len(corpus.windows)} windows "
          f"({len(corpus.train_idx)} train / {len(corpus.test_idx)} test)")
    return 0


def cmd_preprocess(args) -> int:
    features = [c.strip() for c in args.features.split(",") if c.strip()]
    if not features:
        raise CommandError("no feature columns given")
    sets = []
    for path in args.inputs:
        series = load_csv(_require(path, "input CSV"), features, args.timestamp_column)
        series = clean(series, args.fence_k)
        width = auto_resample_width(len(series)) if args.auto_resample else args.resample
        series = resample(series, width)
        sets.append(windowize(series))
    windows = WindowSet.concat(sets)
    if not len(windows):
        raise CommandError("preprocessing produced no windows")
    corpus = split(windows, args.test_fraction, seed=derive_seed(args.seed, "split"),
                   provenance={"source_files": list(args.inputs),
                               "fence_k": args.fence_k,
                               "master_seed": args.seed,
                               "effective_config": _effective(args)})
    save_corpus(_out_path(args.out), corpus)
    print(f"wrote corpus: {len(corpus.windows)} windows from {len(args.inputs)} files")
    return 0


def _train_data(path: str):
    """The (n, N, F) training windows of the corpus at `path`; the rest of the
    corpus is not kept."""
    return load_corpus(_require(path, "corpus")).train_windows.data


def cmd_search(args) -> int:
    result = hyper_search(_train_data(args.corpus), args.variant, args.trials,
                          master_seed=derive_seed(args.seed, f"search/{args.variant}"))
    doc = {
        "schema_version": 1,
        "kind": "search",
        "variant": args.variant,
        "effective_config": _effective(args),
        "trials": [{"config": asdict(cfg), "val_dtw": score_}
                   for cfg, score_ in result.trials],
        "best_index": result.best_index,
        "best_config": asdict(result.best_config),
        "best_val_dtw": result.best_score,
    }
    atomic_write_json(_out_path(args.out), doc)
    print(f"best trial {result.best_index}: val DTW {result.best_score:.4f}")
    return 0


def cmd_train(args) -> int:
    detect.checked_quantile(args.threshold_quantile)   # before any loading or training
    cfg = AEConfig(variant=args.variant, k=args.k, decoder_layers=args.decoder_layers,
                   encoder_layers=args.encoder_layers, filters=args.filters,
                   kernel=args.kernel, epochs=args.epochs, batch=args.batch,
                   lr=args.lr, seed=derive_seed(args.seed, f"train/{args.variant}"))
    data = _train_data(args.corpus)
    model = train(build_model(cfg, *data.shape[1:]), data)
    calib = None
    if args.variant == "reconstruction":
        calib = calibrate(model, data, args.threshold_quantile)
    save_model(_out_path(args.out), model, calib)
    print(f"trained {args.variant} AE: loss {model.loss_curve[0]:.5f} -> "
          f"{model.loss_curve[-1]:.5f} over {cfg.epochs} epochs")
    return 0


def cmd_fit_detector(args) -> int:
    data = _train_data(args.corpus)
    model, _ = load_model(_require(args.model, "model"))
    emb = embed_many(model, data)
    del data                    # the windows are not needed once embedded
    kinds = list(detect.KINDS) if args.kind == "all" else [args.kind]
    cfg = detect.DetectorConfig(threshold_quantile=args.threshold_quantile,
                                seed=args.seed)
    # every kind is fitted before any file is written, so a failed fit leaves
    # the files of an earlier run as they were, never a mix of two runs;
    # `fit` standardizes `emb` in place, so the embeddings are held once
    fitted = detect.fit(kinds, emb, cfg)
    for kind, detector in fitted.items():
        path = args.out if len(kinds) == 1 else _suffixed(args.out, kind)
        save_detector(_out_path(path), detector)
        curve = detector.state.get("loss_curve")
        print(f"fitted {kind}: threshold {detector.threshold:.4f} "
              f"(q={args.threshold_quantile})"
              + (f"; loss {curve[0]:.5f} -> {curve[-1]:.5f}" if curve else ""))
    return 0


def _suffixed(path: str, kind: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{kind}{ext or '.json'}"


def cmd_build_testsets(args) -> int:
    corpus = load_corpus(_require(args.corpus, "corpus"))
    spec = InjectionSpec(anomaly_fraction=args.anomaly_fraction,
                         noise_fraction=args.noise_fraction,
                         salt_pepper_prob=args.salt_pepper_prob,
                         step_alpha=args.step_alpha,
                         flat_features=tuple(int(i) for i in args.flat_features.split(",")),
                         seed=derive_seed(args.seed, "inject"))
    suite = build_testsets(corpus.test_windows, spec)
    save_testsuite(_out_path(args.out), suite)
    anomalous = suite.windows.anomalous
    for key, rows in suite.sets.items():
        print(f"{key}: {len(rows)} windows, {anomalous[rows].sum()} anomalous")
    return 0


def cmd_evaluate(args) -> int:
    suite = load_testsuite(_require(args.suite, "test suite"))
    t2v_model, _ = load_model(_require(args.t2v_model, "t2v model"))
    recon_model, calib = load_model(_require(args.recon_model, "reconstruction model"))
    if t2v_model.config.variant != "t2v":
        raise CommandError(f"{args.t2v_model} is not a t2v model")
    if calib is None:
        raise CommandError(f"{args.recon_model} carries no score calibration "
                           "(train it with --variant reconstruction)")
    detectors, paths = {detect.BASELINE: calib}, {}
    for path in args.detectors:
        model = load_detector(_require(path, "detector"))
        if model.kind in paths:
            raise CommandError(f"{paths[model.kind]} and {path} are both {model.kind} detectors")
        detectors[model.kind], paths[model.kind] = model, path
    effective = _effective(args)
    report = run_benchmark(suite, t2v_model, recon_model, detectors,
                           config_digest=config_digest(effective),
                           seeds={"master_seed": args.seed})
    if args.stamp:
        report.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    save_report(_out_path(args.out), report)
    print(format_report_table(report))
    return 0


def cmd_report(args) -> int:
    report = load_report(_require(args.report, "report"))
    print(format_report_table(report))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t2vad",
        description="Window anomaly detection: embedding AE + one-class "
                    "detectors vs a reconstruction baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--config", action=_ConfigFile,
                       help="JSON file supplying optional flags' defaults")

    p = sub.add_parser("generate", help="generate the synthetic corpus")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--windows", type=int, default=2950)
    p.add_argument("--test-fraction", type=float, default=0.10)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="CSV files -> cleaned windowed corpus")
    common(p)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--features", required=True, help="comma-separated column names")
    p.add_argument("--timestamp-column", default="timestamp")
    p.add_argument("--fence-k", type=float, default=1.5,
                   help="quantile fence multiplier; 0 = literal keep-IQR rule")
    p.add_argument("--resample", type=int, default=1, help="bucket width in seconds")
    p.add_argument("--auto-resample", action="store_true",
                   help="bucket width = ceil(rows/100) per file")
    p.add_argument("--test-fraction", type=float, default=0.10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("search", help="random hyperparameter search (DTW objective)")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", choices=["t2v", "reconstruction"], default="t2v")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train one autoencoder variant")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--variant", choices=["t2v", "reconstruction"], default="t2v")
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--decoder-layers", type=int, default=3)
    p.add_argument("--encoder-layers", type=int, default=2)
    p.add_argument("--filters", type=int, default=16)
    p.add_argument("--kernel", type=int, default=5)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--threshold-quantile", type=float, default=0.99,
                   help="baseline score threshold (reconstruction variant)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit-detector", help="fit one-class detector(s) on embeddings")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="trained t2v model")
    p.add_argument("--kind", choices=[*detect.KINDS, "all"], default="all")
    p.add_argument("--threshold-quantile", type=float, default=0.99)
    p.add_argument("--out", required=True,
                   help="output path; kind suffix added when fitting all")
    p.set_defaults(func=cmd_fit_detector)

    p = sub.add_parser("build-testsets", help="derive A/AN x 6F/4F evaluation sets")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--anomaly-fraction", type=float, default=0.5)
    p.add_argument("--noise-fraction", type=float, default=0.10)
    p.add_argument("--salt-pepper-prob", type=float, default=0.02)
    p.add_argument("--step-alpha", type=float, default=3.0)
    p.add_argument("--flat-features", default="4,5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_testsets)

    p = sub.add_parser("evaluate", help="run the full benchmark grid")
    common(p)
    p.add_argument("--suite", required=True)
    p.add_argument("--t2v-model", required=True)
    p.add_argument("--recon-model", required=True)
    p.add_argument("--detectors", nargs="+", required=True,
                   help="five detector files (one per kind)")
    p.add_argument("--stamp", action="store_true",
                   help="embed a wall-clock timestamp (breaks byte-identical reruns)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="print the text table for a report file")
    common(p)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:     # parsing --config set new defaults: parse again to apply them
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:   # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    except (CommandError, ValueError, OSError, TrainingDiverged, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
