"""Command-line entry point.

Subcommands: extract (wav to feature files), synth (generate a
synthetic keyword dataset), train, eval, and ablate (one model per
value of any one config key). Configuration comes from an INI file with
[frontend], [sdc] and [model] sections; command-line flags override
file values. Exit codes: 0 success, 1 runtime or data error, 2 usage
error. The SDCKWS_LOG environment variable (debug/info/warning/error)
sets log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import data as data_module
from . import metrics as metrics_module
from . import model as model_module
from .errors import EmptyDataset, KwsError
from .features import (
    FEATURE_NAMES,
    SdcConfig,
    make_front_end,
    write_features,
)

LOG = logging.getLogger("sdckws")


class UsageError(Exception):
    """Bad flags or configuration keys; maps to exit code 2."""


def _setup_logging():
    name = os.environ.get("SDCKWS_LOG", "info").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def load_ini(path) -> dict:
    """Read and decode the config file, rejecting unknown sections and keys."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from None
    except configparser.Error as exc:
        raise UsageError(f"{path}: malformed config ({exc})") from None
    sections = {spec.section for spec in model_module.CONFIG_KEYS.values()}
    values = {}
    for section in parser.sections():
        if section not in sections:
            raise UsageError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            spec = model_module.CONFIG_KEYS.get(key)
            if spec is None or spec.section != section:
                raise UsageError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = model_module.decode_value(spec.type, text)
            except ValueError as exc:
                raise UsageError(
                    f"bad value for {section}.{key}: {text!r} ({exc})") from None
    return values


def build_model_config(args) -> model_module.ModelConfig:
    """Defaults, then config file values, then flag overrides.

    A flag overrides the config key named by its argparse dest; --sdc
    replaces the whole [sdc] section.
    """
    values = load_ini(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "sdc", None) is not None:
        values.update(asdict(args.sdc))
    for key, spec in model_module.CONFIG_KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = (model_module.decode_value(spec.type, flag)
                           if isinstance(flag, str) else flag)
    try:
        cfg = model_module.config_with(model_module.ModelConfig(), values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _log_config(cfg)
    return cfg


def _log_environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    LOG.info("environment: numpy %s, scipy %s, blas %s %s, %s, cpus %s",
             np.__version__, scipy.__version__, blas.get("name"),
             blas.get("version"), threads, os.cpu_count())


def _log_config(cfg):
    LOG.info("resolved config: %s",
             " ".join(f"{k}={v}" for k, v in cfg.to_dict().items()))


def _atomic(path, write_fn):
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_extract(args) -> int:
    cfg = build_model_config(args)
    kind = cfg.feature
    front = make_front_end(kind, cfg.front_end, cfg.sdc)
    if os.path.isdir(args.input):
        wavs = sorted(glob.glob(os.path.join(args.input, "**", "*.wav"),
                                recursive=True))
        if not wavs:
            raise EmptyDataset(f"no .wav files under {args.input}")
        out_dir = args.output or args.input
        targets = [
            os.path.join(out_dir,
                         os.path.splitext(os.path.basename(p))[0] + ".kwsf")
            for p in wavs
        ]
        source_of = {}
        for source, target in zip(wavs, targets):
            other = source_of.setdefault(target, source)
            if other != source:
                raise UsageError(f"{other} and {source} would both be written"
                                 f" to {target}")
        os.makedirs(out_dir, exist_ok=True)
    else:
        wavs = [args.input]
        default = os.path.splitext(args.input)[0] + ".kwsf"
        targets = [args.output or default]
    for source, target in zip(wavs, targets):
        feat = front(data_module.read_wav(source))
        _atomic(target, lambda tmp: write_features(tmp, feat))
        LOG.info("%s -> %s (%d x %d)", source, target,
                 feat.num_frames, feat.dim)
        print(target)
    return 0


def cmd_synth(args) -> int:
    manifest_path = data_module.synth_dataset(
        args.keywords, args.per_keyword, args.negative_ratio, args.seed,
        args.output)
    LOG.info("synthesized %d keywords x %d into %s", len(args.keywords),
             args.per_keyword, args.output)
    print(manifest_path)
    return 0


def cmd_train(args) -> int:
    cfg = build_model_config(args)
    manifest = data_module.load_manifest(args.manifest)
    def log_row(stats):
        LOG.info("epoch %d train_loss=%.4f val_loss=%.4f val_auc=%.4f"
                 " val_eer=%.4f", stats.epoch, stats.train_loss,
                 stats.val_loss, stats.val_auc, stats.val_eer)
    _, checkpoint, history = model_module.train(
        manifest, cfg, args.epochs, log=log_row)
    _atomic(args.output, lambda tmp: model_module.save_checkpoint(tmp, checkpoint))
    stem = os.path.splitext(args.output)[0]
    history_path = args.history or stem + "_history.csv"
    _atomic(history_path, lambda tmp: Path(tmp).write_text(
        model_module.history_csv(history), encoding="utf-8"))
    epochs_path = stem + "_epochs.jsonl"
    _atomic(epochs_path, lambda tmp: Path(tmp).write_text(
        model_module.epochs_jsonl(history), encoding="utf-8"))
    best_auc = max((row.val_auc for row in history), default=float("nan"))
    LOG.info("checkpoint %s, history %s, epoch records %s", args.output,
             history_path, epochs_path)
    print(f"best_val_auc={best_auc!r}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = model_module.load_checkpoint(args.ckpt)
    kws = model_module.KwsModel.from_checkpoint(checkpoint)
    _log_config(kws.cfg)
    manifest = data_module.load_manifest(args.manifest)
    scored = model_module.evaluate(kws, manifest)
    if args.output:
        _atomic(args.output, lambda tmp: metrics_module.write_scores(tmp, scored))
    print(f"auc={metrics_module.auc(scored)!r}")
    print(f"eer={metrics_module.eer(scored)!r}")
    print(f"f1_at_0.5={metrics_module.f1_at(scored, 0.5)!r}")
    return 0


def parse_sweep(text: str):
    """Parse 'KEY=V1,V2,...', or 'KEY=LO..HI' for an int key, into (key, values)."""
    key, _, span = text.partition("=")
    spec = model_module.CONFIG_KEYS.get(key)
    if spec is None:
        raise argparse.ArgumentTypeError(
            f"sweep key must be a config file key, got {key!r}")
    try:
        if spec.type == "int" and ".." in span:
            low, high = (int(end) for end in span.split("..", 1))
            values = list(range(low, high + 1))
        else:
            values = [model_module.decode_value(spec.type, item)
                      for item in span.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad sweep value in {text!r} ({exc})") from None
    if not values:
        raise argparse.ArgumentTypeError(f"empty sweep range {text!r}")
    return key, values


def cmd_ablate(args) -> int:
    cfg = build_model_config(args)
    key, values = args.sweep
    for value in values:
        try:
            model_module.config_with(cfg, {key: value})
        except ValueError as exc:
            raise UsageError(f"--sweep {key}: {exc}") from None
    manifest_train = data_module.load_manifest(args.train_manifest)
    manifest_eval = data_module.load_manifest(args.eval_manifest)
    def log_row(row):
        LOG.info("%s=%s auc=%.4f eer=%.4f", key,
                 model_module.encode_value(row.value), row.auc, row.eer)
    rows = model_module.ablation_grid(
        manifest_train, manifest_eval, key, values, cfg, args.epochs,
        log=log_row)
    _atomic(args.output, lambda tmp: Path(tmp).write_text(
        model_module.ablation_csv(rows), encoding="utf-8"))
    print(args.output)
    return 0


# Least value of each count flag; main rejects smaller or non-finite ones.
_MINIMUMS = {"per_keyword": 1, "negative_ratio": 0, "epochs": 0, "seed": 0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdckws",
        description="Keyword spotting with shifted-delta and baseline"
                    " front-ends.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_model: bool):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--feature", choices=sorted(FEATURE_NAMES),
                       help="front-end name")
        p.add_argument("--sdc", type=SdcConfig.parse, metavar="N-d-p-k",
                       help="shifted-delta configuration, e.g. 40-1-3-8")
        if with_model:
            p.add_argument("--lr", type=float, help="learning rate")
            p.add_argument("--batch-size", dest="batch_size", type=int)
            p.add_argument("--dropout", type=float)
            p.add_argument("--seed", type=int)

    p_extract = sub.add_parser("extract", help="wav(s) to feature file(s)")
    p_extract.add_argument("input", help="a .wav file or a directory of them")
    p_extract.add_argument("-o", "--output", help="output file or directory")
    add_config_flags(p_extract, with_model=False)
    p_extract.set_defaults(handler=cmd_extract)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--keywords", nargs="+", required=True)
    p_synth.add_argument("--per-keyword", dest="per_keyword", type=int,
                         default=25)
    p_synth.add_argument("--negative-ratio", dest="negative_ratio", type=float,
                         default=1.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("-o", "--output", required=True, help="output directory")
    p_synth.set_defaults(handler=cmd_synth)

    p_train = sub.add_parser("train", help="train a matcher")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--epochs", type=int, required=True)
    p_train.add_argument("-o", "--output", required=True,
                         help="checkpoint path")
    p_train.add_argument("--history", help="history CSV path")
    add_config_flags(p_train, with_model=True)
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("-o", "--output", help="scores CSV path")
    p_eval.set_defaults(handler=cmd_eval)

    p_ablate = sub.add_parser("ablate", help="one model per swept key value")
    p_ablate.add_argument("--train-manifest", dest="train_manifest",
                          required=True)
    p_ablate.add_argument("--eval-manifest", dest="eval_manifest",
                          required=True)
    p_ablate.add_argument("--sweep", type=parse_sweep, required=True,
                          metavar="KEY=V1,V2,...|KEY=LO..HI")
    p_ablate.add_argument("--epochs", type=int, required=True)
    p_ablate.add_argument("-o", "--output", required=True, help="grid CSV path")
    add_config_flags(p_ablate, with_model=True)
    p_ablate.set_defaults(handler=cmd_ablate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and len(set(args.keywords)) < 2:
        parser.error("synth needs at least 2 distinct keywords")
    for name, low in _MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and not low <= value < float("inf"):
            parser.error(f"--{name.replace('_', '-')} must be finite and >= {low}")
    _log_environment()
    try:
        return args.handler(args)
    except UsageError as exc:
        LOG.error("%s", exc)
        return 2
    except (KwsError, OSError) as exc:
        LOG.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
