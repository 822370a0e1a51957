#!/usr/bin/env python3
"""Incomplete-annotation robustness: train with the wind clause present but
~15% of wind annotations missing, and compare against the fully annotated
run. Sentences for incomplete records simply drop the wind clause.

Usage: python scripts/run_incomplete_annotations.py [--seed 0] [--epochs 40]
"""

import argparse
import math
import tempfile

from tricl.experiments import held_out_accuracy, train_on_fold
from tricl.presets import AUX_TEMPLATE_TEXT, experiment_run_config
from tricl.synth import synth_generate, wind_annotated_spec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()

    results = {}
    for missing in (0.0, 0.15):
        with tempfile.TemporaryDirectory(prefix=f"tricl_wind{int(missing * 100)}_") as out:
            manifest = synth_generate(wind_annotated_spec(seed=0, missing_rate=missing, samples_per_class=20), out)
            config = experiment_run_config(seed=args.seed, epochs=args.epochs)
            model, dataset, folds, lines = train_on_fold(manifest, AUX_TEMPLATE_TEXT, config)
        losses = [float(l.split()[1].split("=")[1]) for l in lines]
        assert all(math.isfinite(x) for x in losses), "non-finite loss"
        results[missing] = held_out_accuracy(model, dataset, folds)
        print(f"missing_rate={missing:.2f} accuracy={results[missing]:.3f} final_loss={losses[-1]:.4f}")

    delta = 100 * (results[0.0] - results[0.15])
    print(f"\naccuracy cost of 15% missing wind annotations: {delta:+.1f} points")


if __name__ == "__main__":
    main()
