"""Command-line entry point.

Subcommands: synth, train, tune {uart|encoder}, infer, eval.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 protocol error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import ingest, make_folds
from .dsp import TARGET_RATE, AudioSegment, read_wav, resample_to_16k
from .errors import ConfigError, DataError, ProtocolError
from .experiments import split_off_fold
from .inference import SHIPSEAR_CLASS_MAP, evaluate, identity_class_map, prompt_infer, render_report
from .model import TriModalModel
from .synth import SynthSpec, synth_generate
from .templates import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, candidate_queue, parse_template
from .trainer import train
from .tuning import encoder_tune, uart_tune


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


@functools.cache  # built once per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="tricl", description="Template-guided tri-modal acoustic recognition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synth spec JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="contrastive training from scratch")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="run config JSON (defaults used if omitted)")
    p.add_argument("--template", help="training template file (default built-in)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--holdout-fold", type=int, default=None, help="fold excluded from training")
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--log", help="training log path (default <out>.log)")

    p = sub.add_parser("tune", help="adapt a pretrained checkpoint")
    tune_sub = p.add_subparsers(dest="strategy", required=True)
    for strategy in ("uart", "encoder"):
        q = tune_sub.add_parser(strategy)
        q.add_argument("--ckpt", required=True)
        q.add_argument("--manifest", required=True)
        q.add_argument("--config", help="run config JSON (default: checkpoint config)")
        q.add_argument("--out", required=True)
        q.add_argument("--holdout-fold", type=int, default=None)
        q.add_argument("--folds", type=int, default=4)
        if strategy == "uart":
            q.add_argument("--log")
            q.add_argument("--template", help="template file (default: checkpoint template)")
        else:
            q.add_argument("--freeze-encoder", action="store_true")

    p = sub.add_parser("infer", help="prompt inference on one WAV file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--labels", required=True, help="JSON array of candidate labels")
    p.add_argument("--template", help="test template file (default: checkpoint template)")

    p = sub.add_parser("eval", help="fold-based evaluation of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", type=int, default=4)
    p.add_argument("--fold", type=int, default=None, help="evaluate a single fold")
    p.add_argument("--class-map", choices=("auto", "shipsear", "identity"), default="auto")
    p.add_argument("--report", help="write the report here as well as stdout")
    return parser


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    return RunConfig.load(path)


def _template_text(path: str | None, default_text: str) -> str:
    if path is None:
        return default_text
    if not Path(path).exists():
        raise ConfigError(f"template file not found: {path}")
    text = Path(path).read_text(encoding="utf-8")
    parse_template(text)  # validate eagerly
    return text


def _cmd_synth(args) -> int:
    if not Path(args.spec).exists():
        raise ConfigError(f"synth spec not found: {args.spec}")
    manifest = synth_generate(SynthSpec.load(args.spec), args.out)
    print(manifest)
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    template_text = _template_text(args.template, AUX_TEMPLATE_TEXT)
    train_ds, _, _ = split_off_fold(args.manifest, template_text, config, args.holdout_fold, args.folds)
    log_path = args.log or (args.out + ".log")
    model, _ = train(train_ds, config, template_text, log_path=log_path)
    save_checkpoint(model, args.out)
    print(args.out)
    return 0


def _cmd_tune(args) -> int:
    model = load_checkpoint(args.ckpt)
    if not isinstance(model, TriModalModel):
        raise ConfigError(f"{args.strategy} tuning starts from a tri-modal checkpoint")
    config = _load_config(args.config) if args.config else model.config
    uart = args.strategy == "uart"
    template_text = _template_text(args.template, model.train_template_text) if uart else model.train_template_text
    train_ds, _, _ = split_off_fold(args.manifest, template_text, config, args.holdout_fold, args.folds)
    if uart:
        model.train_template_text = template_text
        uart_tune(model, train_ds, config, log_path=args.log)
    else:
        model, _ = encoder_tune(model, train_ds, config, freeze_encoder=args.freeze_encoder)
    save_checkpoint(model, args.out)
    print(args.out)
    return 0


def _cmd_infer(args) -> int:
    model = load_checkpoint(args.ckpt)
    if not isinstance(model, TriModalModel):
        raise ConfigError("prompt inference needs a tri-modal checkpoint")
    if args.template is not None:
        model.test_template_text = _template_text(args.template, model.test_template_text)
    if not Path(args.labels).exists():
        raise ConfigError(f"labels file not found: {args.labels}")
    try:
        labels = json.loads(Path(args.labels).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"labels file is not valid JSON: {exc}") from exc
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ConfigError("labels file must be a JSON array of strings")

    samples, rate = read_wav(args.wav)
    if rate != TARGET_RATE:
        samples = resample_to_16k(samples, rate)
    segment = AudioSegment(samples)
    candidates = candidate_queue(parse_template(model.test_template_text), labels)
    index, sims = prompt_infer(segment, candidates, model)
    print(
        json.dumps(
            {
                "prediction": labels[index],
                "labels": labels,
                "similarities": [round(float(s), 6) for s in sims],
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    # evaluation reads no sentences, so the label template serves any checkpoint
    dataset, manifest = ingest(args.manifest, parse_template(LABEL_TEMPLATE_TEXT), model.config.preprocess)
    folds = make_folds(manifest, k=args.folds)
    labels = sorted(set(model.class_labels) | set(dataset.vessel_types()))
    unmapped = [l for l in labels if l not in SHIPSEAR_CLASS_MAP.mapping]
    if args.class_map == "shipsear" and unmapped:
        raise ConfigError(f"the shipsear class map has no entry for {', '.join(map(repr, unmapped))}")
    if args.class_map != "identity" and not unmapped:
        class_map = SHIPSEAR_CLASS_MAP
    else:
        class_map = identity_class_map(labels)
    fold_list = [args.fold] if args.fold is not None else list(range(args.folds))
    results = [evaluate(model, dataset, folds, fold, class_map) for fold in fold_list]
    report = render_report(results, class_map)
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "infer":
            return _cmd_infer(args)
        if args.command == "eval":
            return _cmd_eval(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
