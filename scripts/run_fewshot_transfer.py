#!/usr/bin/env python3
"""Few-shot transfer: pretrain the tri-modal model on the annotated 3-class
task, then tune only the audio encoder (plus a classifier head) on a
disjoint-class task using 10% of the labeled sources, against a random-init
control with paired seeds.

Usage: python scripts/run_fewshot_transfer.py [--seeds 0 1 2] [--fraction 0.1]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from tricl.data import stratified_source_subset
from tricl.experiments import split_off_fold, train_on_fold
from tricl.inference import evaluate
from tricl.presets import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, experiment_run_config
from tricl.synth import synth_generate, three_class_spec, transfer_target_spec
from tricl.tuning import encoder_tune


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--fraction", type=float, default=0.1)
    ap.add_argument("--pretrain-epochs", type=int, default=40)
    ap.add_argument("--tune-epochs", type=int, default=25)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="tricl_fewshot_") as tmp:
        pre_manifest = synth_generate(three_class_spec(seed=0, samples_per_class=24), Path(tmp, "pre"))
        tgt_manifest = synth_generate(transfer_target_spec(seed=7, samples_per_class=24), Path(tmp, "tgt"))

        print("pretraining on the annotated source task ...")
        pretrained, _, _, _ = train_on_fold(pre_manifest, AUX_TEMPLATE_TEXT,
                                            experiment_run_config(seed=0, epochs=args.pretrain_epochs))

        gaps = []
        for seed in args.seeds:
            config = experiment_run_config(seed=seed, epochs=args.tune_epochs, batch_size=4)
            train_ds, dataset, folds = split_off_fold(tgt_manifest, LABEL_TEMPLATE_TEXT, config, 0, 4)
            few = stratified_source_subset(train_ds, args.fraction, seed=seed)
            accs = {}
            for arm, source in (("pretrained", pretrained), ("random-init", None)):
                clf, _ = encoder_tune(source, few, config)
                accs[arm] = evaluate(clf, dataset, folds, 0).accuracy
                print(f"seed={seed} {arm:<11} n_train={len(few.samples)} accuracy={accs[arm]:.3f}")
            gaps.append(accs["pretrained"] - accs["random-init"])
    print(f"\nmean advantage of pretraining: {100 * np.mean(gaps):+.1f} points over {len(gaps)} paired seeds")


if __name__ == "__main__":
    main()
