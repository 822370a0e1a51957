"""Reusable experiment steps (ingest, split off a held-out fold, train on the
rest, score the fold) and the one registry of the paper's claims: `PRESETS`,
`ARMS` and `CLAIMS`. `run_arm` shares no state but a process-local
pretraining cache, so arms can run in separate processes.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import RunConfig
from .data import Dataset, FoldAssignment, ingest, make_folds, stratified_source_subset
from .inference import evaluate
from .model import TriModalModel
from .presets import experiment_run_config
from .synth import confusable_pair_spec, synth_generate, three_class_spec, transfer_target_spec, wind_annotated_spec
from .templates import AUX_TEMPLATE_TEXT, LABEL_TEMPLATE_TEXT, parse_template
from .trainer import train
from .tuning import encoder_tune, multilabel_baseline, multitask_baseline


def split_off_fold(manifest_path, template_text: str, config: RunConfig, test_fold: int | None,
                   k: int) -> tuple[Dataset, Dataset, FoldAssignment | None]:
    """Ingest the manifest and drop `test_fold` of `k` from training.

    Returns (training set, whole dataset, folds). Folds use seed 0, the
    assignment `tricl eval` uses by default, whatever the training seed.
    With no test fold the training set is the whole dataset and no folds
    are built.
    """
    dataset, manifest = ingest(manifest_path, parse_template(template_text), config.preprocess)
    if test_fold is None:
        return dataset, dataset, None
    folds = make_folds(manifest, k=k, seed=0)
    train_ds, _ = dataset.split_by_fold(folds, test_fold)
    return train_ds, dataset, folds


def train_on_fold(manifest_path, template_text: str,
                  config: RunConfig) -> tuple[TriModalModel, Dataset, FoldAssignment, list[str]]:
    """Split off fold 0 of 4, train on the rest; returns everything needed
    to evaluate."""
    train_ds, dataset, folds = split_off_fold(manifest_path, template_text, config, 0, 4)
    model, lines = train(train_ds, config, template_text)
    return model, dataset, folds, lines


def held_out_accuracy(model, dataset: Dataset, folds: FoldAssignment) -> float:
    return evaluate(model, dataset, folds, 0).accuracy


PRESETS = {
    "three_class": lambda: three_class_spec(seed=0, samples_per_class=24),
    "confusable": lambda: confusable_pair_spec(seed=0, samples_per_class=24),
    "transfer": lambda: transfer_target_spec(seed=7, samples_per_class=24),
    "wind-0.00": lambda: wind_annotated_spec(seed=0, missing_rate=0.0, samples_per_class=20),
    "wind-0.15": lambda: wind_annotated_spec(seed=0, missing_rate=0.15, samples_per_class=20),
}


def prepare(preset: str, work) -> Path:
    """The preset's manifest under `work`, generated on first use."""
    manifest = Path(work, preset, "manifest.jsonl")
    return manifest if manifest.exists() else synth_generate(PRESETS[preset](), manifest.parent)


@lru_cache(maxsize=None)
def _pretrained(manifest: Path, epochs: int) -> TriModalModel:
    """The seed-0 UART model the transfer arm tunes, trained once per process."""
    return train_on_fold(manifest, AUX_TEMPLATE_TEXT, experiment_run_config(seed=0, epochs=epochs))[0]


class Arm(NamedTuple):
    preset: str
    template: str = LABEL_TEMPLATE_TEXT
    fit: Callable | None = None  # (train set, config, work, epochs) -> (model, trace); None trains UART
    modalities: str = "tri"
    few_shot: bool = False  # tune for tune_epochs at batch 4 on 10 % of the training sources


ARMS = {
    "end-to-end": Arm("three_class", AUX_TEMPLATE_TEXT),
    "aux-tri": Arm("confusable", AUX_TEMPLATE_TEXT),
    "label-tri": Arm("confusable"),
    "aux-bi": Arm("confusable", AUX_TEMPLATE_TEXT, modalities="audio_text"),
    "multilabel": Arm("confusable", fit=lambda ds, config, *_: multilabel_baseline(ds, config)),
    "multitask": Arm("confusable", fit=lambda ds, config, *_: multitask_baseline(ds, ["category", "distance"], config)),
    "category": Arm("confusable", fit=lambda ds, config, *_: encoder_tune(None, ds, config)),
    "pretrained": Arm("transfer", few_shot=True, fit=lambda ds, config, work, epochs: encoder_tune(
        _pretrained(prepare("three_class", work), epochs), ds, config)),
    "random-init": Arm("transfer", few_shot=True, fit=lambda ds, config, *_: encoder_tune(None, ds, config)),
    "wind-complete": Arm("wind-0.00", AUX_TEMPLATE_TEXT),
    "wind-missing": Arm("wind-0.15", AUX_TEMPLATE_TEXT),
}

CLAIMS = {  # claim -> (arm, controls); the last is a cost, and holds when small
    "auxiliary templates": ("aux-tri", ("label-tri",)),
    "tri-modal": ("aux-tri", ("aux-bi",)),
    "classifier paradigms": ("aux-tri", ("multilabel", "multitask", "category")),
    "pretraining transfers": ("pretrained", ("random-init",)),
    "missing annotations": ("wind-complete", ("wind-missing",)),
}


def run_arm(name: str, seed: int, work, epochs: int, tune_epochs: int = 25) -> tuple[float, list, int]:
    """Train arm `name` at `seed` off fold 0 of its preset (a transfer arm pretrains for `epochs`), score
    fold 0, and return (accuracy, UART epoch log lines or classifier epoch losses, training segments)."""
    arm = ARMS[name]
    config = experiment_run_config(seed=seed, epochs=tune_epochs if arm.few_shot else epochs,
                                   modalities=arm.modalities, batch_size=4 if arm.few_shot else 8)
    train_ds, dataset, folds = split_off_fold(prepare(arm.preset, work), arm.template, config, 0, 4)
    train_ds = stratified_source_subset(train_ds, 0.1, seed=seed) if arm.few_shot else train_ds
    model, trace = (arm.fit(train_ds, config, work, epochs) if arm.fit
                    else train(train_ds, config, arm.template))
    return held_out_accuracy(model, dataset, folds), trace, len(train_ds.samples)


def run_claims(claims, seeds, work, epochs: int, report: Callable, tune_epochs: int = 25) -> dict[str, list[float]]:
    """Run every arm the claims name, seed by seed, calling `report(seed,
    name, *run_arm's result)` as each lands; returns each arm's accuracies."""
    scores = {arm: [] for claim in claims for arm in (CLAIMS[claim][0], *CLAIMS[claim][1])}
    for seed in seeds:
        for name in scores:
            result = run_arm(name, seed, work, epochs, tune_epochs)
            scores[name].append(result[0])
            report(seed, name, *result)
    return scores


def claim_delta(claim: str, scores: dict[str, list[float]]) -> tuple[float, str]:
    """(the arm's mean accuracy minus its best control's, that control)."""
    arm, controls = CLAIMS[claim]
    best = max(controls, key=lambda name: np.mean(scores[name]))
    return np.mean(scores[arm]) - np.mean(scores[best]), best
