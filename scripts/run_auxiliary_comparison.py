#!/usr/bin/env python3
"""Auxiliary-information study on the confusable synthetic pair, on identical
data and epochs: aux-tri (descriptive templates, all three encoders) against
label-tri (label-only templates), aux-bi (audio+text only) and the classifier
paradigms on the audio encoder alone. `tricl.experiments.ARMS` defines each arm.

Usage: python scripts/run_auxiliary_comparison.py [--seeds 0 1 2] [--epochs 90]
"""

import argparse
import tempfile

import numpy as np

from tricl.experiments import ARMS, CLAIMS, claim_delta, prepare, run_claims

SUMMARY = {
    "auxiliary templates": "auxiliary benefit",
    "tri-modal": "spectrogram-encoder benefit",
    "classifier paradigms": "UART benefit over the best classifier",
}


def report(seed, name, accuracy, *_):
    width = 9 if ARMS[name].fit is None else 10  # the classifier arms print one column wider
    print(f"seed={seed} {name:<{width}} accuracy={accuracy:.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=90)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tricl_aux_") as work:
        print(f"dataset: {prepare(ARMS['aux-tri'].preset, work)}")
        scores = run_claims(SUMMARY, args.seeds, work, args.epochs, report)

    print()
    for name, accs in scores.items():
        print(f"{name:<9} mean={np.mean(accs):.3f} ({', '.join(f'{a:.2f}' for a in accs)})")
    for claim, title in SUMMARY.items():
        delta, best = claim_delta(claim, scores)
        print(f"{title} ({CLAIMS[claim][0]} - {best}): {100 * delta:+.1f} points")


if __name__ == "__main__":
    main()
