#!/usr/bin/env python3
"""Incomplete-annotation robustness: train with the wind clause present but
~15% of wind annotations missing, and compare against the fully annotated
run. Sentences for incomplete records simply drop the wind clause.

Usage: python scripts/run_incomplete_annotations.py [--seed 0] [--epochs 40]
"""

import argparse
import tempfile

from tricl.experiments import ARMS, PRESETS, claim_delta, run_claims


def report(seed, name, accuracy, trace, _):
    missing = PRESETS[ARMS[name].preset]().aux_fields["wind"].missing_rate
    final_loss = float(trace[-1].split()[1].removeprefix("mean_loss="))
    print(f"missing_rate={missing:.2f} accuracy={accuracy:.3f} final_loss={final_loss:.4f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tricl_wind_") as work:
        scores = run_claims(["missing annotations"], [args.seed], work, args.epochs, report)
    delta, _ = claim_delta("missing annotations", scores)
    print(f"\naccuracy cost of 15% missing wind annotations: {100 * delta:+.1f} points")


if __name__ == "__main__":
    main()
