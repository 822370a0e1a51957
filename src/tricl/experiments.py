"""Reusable experiment steps: ingest a manifest and split off a held-out
fold, train a model on the rest, and score it on the held-out fold. The CLI
and the experiment scripts run through these helpers; the planned
acceptance tests are to use them too.
"""

from __future__ import annotations

from .config import RunConfig
from .data import Dataset, FoldAssignment, ingest, make_folds
from .inference import evaluate
from .model import TriModalModel
from .templates import LABEL_TEMPLATE_TEXT, parse_template
from .trainer import train


def split_off_fold(
    manifest_path, template_text: str, config: RunConfig, test_fold: int | None, k: int
) -> tuple[Dataset, Dataset, FoldAssignment | None]:
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


def train_on_fold(
    manifest_path, template_text: str, config: RunConfig, test_fold: int = 0
) -> tuple[TriModalModel, Dataset, FoldAssignment, list[str]]:
    """Split off `test_fold` of 4, train on the rest; returns everything
    needed to evaluate."""
    train_ds, dataset, folds = split_off_fold(manifest_path, template_text, config, test_fold, 4)
    model, lines = train(train_ds, config, template_text, LABEL_TEMPLATE_TEXT)
    return model, dataset, folds, lines


def held_out_accuracy(model, dataset: Dataset, folds: FoldAssignment, test_fold: int = 0) -> float:
    return evaluate(model, dataset, folds, test_fold).accuracy
