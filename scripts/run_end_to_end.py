#!/usr/bin/env python3
"""Train the tri-modal model on the separable 3-class synthetic dataset and
report held-out prompt-inference accuracy.

Usage: python scripts/run_end_to_end.py [--seed 0] [--epochs 40] [--out DIR]
"""

import argparse
import tempfile
import time
from contextlib import nullcontext

from tricl.experiments import held_out_accuracy, train_on_fold
from tricl.presets import AUX_TEMPLATE_TEXT, experiment_run_config
from tricl.synth import synth_generate, three_class_spec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--out", default=None, help="dataset directory (default: temp)")
    args = ap.parse_args()

    with nullcontext(args.out) if args.out else tempfile.TemporaryDirectory(prefix="tricl_e2e_") as out:
        manifest = synth_generate(three_class_spec(seed=0, samples_per_class=24), out)
        print(f"dataset: {manifest}")

        config = experiment_run_config(seed=args.seed, epochs=args.epochs)
        t0 = time.time()
        model, dataset, folds, lines = train_on_fold(manifest, AUX_TEMPLATE_TEXT, config)
        acc = held_out_accuracy(model, dataset, folds)
    print(f"epochs={args.epochs} seed={args.seed}")
    print(f"final epoch: {lines[-1]}")
    print(f"held-out fold accuracy: {acc:.3f}  ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
