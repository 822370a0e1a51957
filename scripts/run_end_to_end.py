#!/usr/bin/env python3
"""Train the tri-modal model on the separable 3-class synthetic dataset and
report held-out prompt-inference accuracy (the `end-to-end` arm).

Usage: python scripts/run_end_to_end.py [--seed 0] [--epochs 40]
"""

import argparse
import tempfile
import time

from tricl.experiments import ARMS, prepare, run_arm


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=40)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tricl_e2e_") as work:
        print(f"dataset: {prepare(ARMS['end-to-end'].preset, work)}")
        t0 = time.time()
        accuracy, trace, _ = run_arm("end-to-end", args.seed, work, args.epochs)
    print(f"epochs={args.epochs} seed={args.seed}")
    print(f"final epoch: {trace[-1]}")
    print(f"held-out fold accuracy: {accuracy:.3f}  ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
