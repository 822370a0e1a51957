#!/usr/bin/env python3
"""Auxiliary-information study on the confusable synthetic pair.

Trains six arms per seed on identical data and epochs:
  aux-tri    descriptive templates, all three encoders
  label-tri  label-only templates, all three encoders
  aux-bi     descriptive templates, audio+text only
and the traditional classifier paradigms on the audio encoder alone:
  multilabel  category and every annotated field as one multi-label head set
  multitask   category and distance heads, softmax CE summed
  category    category head only

Usage: python scripts/run_auxiliary_comparison.py [--seeds 0 1 2] [--epochs 90]
"""

import argparse
import tempfile
from contextlib import nullcontext

import numpy as np

from tricl.experiments import held_out_accuracy, split_off_fold, train_on_fold
from tricl.presets import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, experiment_run_config
from tricl.synth import confusable_pair_spec, synth_generate
from tricl.tuning import encoder_tune, multilabel_baseline, multitask_baseline

CLASSIFIER_ARMS = {
    "multilabel": multilabel_baseline,
    "multitask": lambda dataset, config: multitask_baseline(dataset, ["category", "distance"], config),
    "category": lambda dataset, config: encoder_tune(None, dataset, config),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=90)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    arms = {
        "aux-tri": (AUX_TEMPLATE_TEXT, "tri"),
        "label-tri": (LABEL_TEMPLATE_TEXT, "tri"),
        "aux-bi": (AUX_TEMPLATE_TEXT, "audio_text"),
    }
    scores = {name: [] for name in [*arms, *CLASSIFIER_ARMS]}
    with nullcontext(args.out) if args.out else tempfile.TemporaryDirectory(prefix="tricl_aux_") as out:
        manifest = synth_generate(confusable_pair_spec(seed=0, samples_per_class=24), out)
        print(f"dataset: {manifest}")
        for seed in args.seeds:
            for name, (template, modalities) in arms.items():
                config = experiment_run_config(seed=seed, epochs=args.epochs, modalities=modalities)
                model, dataset, folds, _ = train_on_fold(manifest, template, config)
                acc = held_out_accuracy(model, dataset, folds)
                scores[name].append(acc)
                print(f"seed={seed} {name:<9} accuracy={acc:.3f}")
            config = experiment_run_config(seed=seed, epochs=args.epochs)
            train_ds, dataset, folds = split_off_fold(manifest, LABEL_TEMPLATE_TEXT, config, 0, 4)
            for name, run in CLASSIFIER_ARMS.items():
                model, _ = run(train_ds, config)
                acc = held_out_accuracy(model, dataset, folds)
                scores[name].append(acc)
                print(f"seed={seed} {name:<10} accuracy={acc:.3f}")

    print()
    for name, accs in scores.items():
        print(f"{name:<9} mean={np.mean(accs):.3f} ({', '.join(f'{a:.2f}' for a in accs)})")
    print(f"auxiliary benefit (aux-tri - label-tri): {100 * (np.mean(scores['aux-tri']) - np.mean(scores['label-tri'])):+.1f} points")
    print(f"spectrogram-encoder benefit (aux-tri - aux-bi): {100 * (np.mean(scores['aux-tri']) - np.mean(scores['aux-bi'])):+.1f} points")
    best = max(CLASSIFIER_ARMS, key=lambda name: np.mean(scores[name]))
    print(f"UART benefit over the best classifier (aux-tri - {best}): "
          f"{100 * (np.mean(scores['aux-tri']) - np.mean(scores[best])):+.1f} points")


if __name__ == "__main__":
    main()
