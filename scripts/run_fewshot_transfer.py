#!/usr/bin/env python3
"""Few-shot transfer: pretrain the tri-modal model on the annotated 3-class
task, then tune only the audio encoder (plus a classifier head) on a
disjoint-class task using 10% of the labeled sources, against a random-init
control with paired seeds.

Usage: python scripts/run_fewshot_transfer.py [--seeds 0 1 2] [--pretrain-epochs 40] [--tune-epochs 25]
"""

import argparse
import tempfile

from tricl.experiments import claim_delta, run_claims


def report(seed, name, accuracy, _, n_train):
    print(f"seed={seed} {name:<11} n_train={n_train} accuracy={accuracy:.3f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--pretrain-epochs", type=int, default=40)
    ap.add_argument("--tune-epochs", type=int, default=25)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tricl_fewshot_") as work:
        print("pretraining on the annotated source task ...")
        scores = run_claims(["pretraining transfers"], args.seeds, work, args.pretrain_epochs, report,
                            tune_epochs=args.tune_epochs)
    delta, _ = claim_delta("pretraining transfers", scores)
    print(f"\nmean advantage of pretraining: {100 * delta:+.1f} points over {len(args.seeds)} paired seeds")


if __name__ == "__main__":
    main()
