"""Downstream adaptation: template-based tuning of the full tri-modal model,
and the classifier paradigms the paper compares against, which share one
model shape (the audio encoder plus one linear head per task) and differ
only in their training loss: `_classifier_batch_loss`, softmax CE per head
(category-only encoder tuning and the multi-task baseline), or
`_multilabel_batch_loss`, binary CE over every head's logits side by side
(the multi-label baseline). Both embed a batch with `AudioEncoder.encode`,
whose kernel build is taped, or memoised for a frozen encoder.
`train_classifier` runs either through `trainer.fit`; neither skips a batch.
Both model types name their audio encoder `audio_encoder`, so
`encoder_tune` starts from either. `ClassifierModel.head_logits` is the one
place a head is applied. A tuning config may differ from its pretrained
model only in the train section and the encoder seed, which seeds new heads.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import trainer
from .config import RunConfig
from .data import Dataset, TrainSample
from .dsp import AudioSegment
from .encoders import AudioEncoder
from .errors import ConfigError
from .layers import Linear
from .model import TriModalModel
from .store import ParameterStore, trainable
from .templates import AUX_FIELDS
from .tensor import (
    Tensor,
    absval,
    add,
    backward,  # noqa: F401  (perfbench wraps tuning.backward)
    concat,
    cross_entropy,
    mean,
    mul,
    neg,
    no_grad,
    relu,
    softplus,
    sub,
    take_rows,
)


def binary_ce_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean element-wise binary cross entropy in the numerically stable form
    relu(z) - z*y + log(1 + exp(-|z|))."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    return mean(add(sub(relu(logits), mul(logits, t)), softplus(neg(absval(logits)))))


def _task_stream(task: str) -> int:
    return int.from_bytes(task.encode("utf-8"), "little") % (2**31)


def _check_tasks(tasks) -> None:
    unknown = sorted(set(tasks) - {"category", *AUX_FIELDS})
    if "category" not in tasks or unknown:
        raise ConfigError(f"classifier tasks are category plus any of {AUX_FIELDS}; got {sorted(tasks)}")


def _annotation(sample: TrainSample, task: str) -> str | None:
    return sample.vessel_type if task == "category" else getattr(sample.record, task)


class ClassifierModel:
    """Audio encoder plus one linear head per task over discrete targets.

    `task_classes` maps each task, `category` (mandatory) or an `AUX_FIELDS`
    name, to its classes. Only the category head predicts, so auxiliary
    tasks never alter the inference pathway.
    """

    def __init__(self, config: RunConfig, task_classes: dict[str, list[str]],
                 train_source_ids: tuple[str, ...] = ()):
        _check_tasks(task_classes)
        self.config = config
        self.task_classes = {k: list(v) for k, v in task_classes.items()}
        self.class_labels = self.task_classes["category"]
        self.train_source_ids = tuple(train_source_ids)
        seed = config.encoder.seed
        self.audio_encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng([seed, 0]))
        self.heads: dict[str, Linear] = {}
        for task in sorted(self.task_classes):
            rng = np.random.default_rng([seed, 10, _task_stream(task)])
            self.heads[task] = Linear(rng, config.encoder.d, len(self.task_classes[task]), f"head.{task}")
        self.store = ParameterStore(trainable(self.audio_encoder, self.heads))  # encoder first: the heads are the tail

    def head_logits(self, embeddings: Tensor, task: str) -> Tensor:
        return self.heads[task](embeddings)

    def clamp(self) -> None:
        self.audio_encoder.wavelet.clamp()

    def predict_labels(self, segments: list[AudioSegment]) -> list[str]:
        embeddings = self.audio_encoder.embed(segments, self.config.train.batch_size)
        with no_grad():
            logits = self.head_logits(embeddings, "category").values
        return [self.class_labels[int(i)] for i in np.argmax(logits, axis=1)]


def train_classifier(model: ClassifierModel, dataset: Dataset, config: RunConfig,
                     freeze_encoder: bool = False, multilabel: bool = False) -> list[float]:
    """Train with the multi-label loss or, by default, the per-head softmax
    CE; returns per-epoch mean losses. A frozen encoder stays off the tape
    and unchanged: the run trains the heads' store alone."""
    loss_fn = _multilabel_batch_loss if multilabel else _classifier_batch_loss  # per call: perfbench wraps these names
    heads = model.store.split(len(trainable(model.audio_encoder)))[1] if freeze_encoder else None
    return [metrics.mean_loss for metrics in trainer.fit(dataset, model, config, loss_fn, heads)]


def _classifier_batch_loss(dataset: Dataset, indices: list[int], model: ClassifierModel) -> Tensor:
    """Softmax CE summed over the heads. A sample missing an annotation is
    left out of that task's term; never None, since every sample has a
    vessel type."""
    batch = [dataset.samples[i] for i in indices]
    embeddings = model.audio_encoder.encode([s.segment for s in batch])
    total = None
    for task in sorted(model.heads):
        class_index = {c: i for i, c in enumerate(model.task_classes[task])}
        rows = [i for i, sample in enumerate(batch) if _annotation(sample, task) is not None]
        if not rows:
            continue
        targets = [class_index[_annotation(batch[i], task)] for i in rows]
        term = cross_entropy(model.head_logits(take_rows(embeddings, rows), task), targets)
        total = term if total is None else add(total, term)
    return total


def _multilabel_batch_loss(dataset: Dataset, indices: list[int], model: ClassifierModel) -> Tensor:
    """Mean binary CE of every head's logits side by side, in sorted task
    order, against multi-hot targets; a missing annotation is a row of
    zeros in its task's block."""
    batch = [dataset.samples[i] for i in indices]
    embeddings = model.audio_encoder.encode([s.segment for s in batch])
    tasks = sorted(model.heads)
    targets = np.hstack([[[_annotation(s, task) == c for c in model.task_classes[task]] for s in batch]
                         for task in tasks])  # one-hot blocks; None matches no class
    logits = concat([model.head_logits(embeddings, task) for task in tasks], axis=1)
    return binary_ce_logits(logits, targets)


def _task_classes(dataset: Dataset, tasks) -> dict[str, list[str]]:
    """Each task's classes: the vessel types for category, the annotated
    values of an auxiliary field."""
    _check_tasks(tasks)
    task_classes = {}
    for task in tasks:
        task_classes[task] = sorted({_annotation(s, task) for s in dataset.samples} - {None})
        if not task_classes[task]:
            raise ConfigError(f"no annotations present for task {task!r}")
    if len(task_classes["category"]) < 2:
        raise ConfigError(f"classification needs at least 2 classes, got {task_classes['category']}")
    return task_classes


def _check_tuning_config(config: RunConfig, checkpoint: RunConfig, train_keys: tuple[str, ...] = ()) -> None:
    for section in ("preprocess", "encoder", "train"):
        ours, theirs = asdict(getattr(config, section)), asdict(getattr(checkpoint, section))
        for key in train_keys if section == "train" else ours:
            if key != "seed" and ours[key] != theirs[key]:
                raise ConfigError(f"tuning config sets {section}.{key}={ours[key]!r}, the checkpoint has {theirs[key]!r}")


def uart_tune(model: TriModalModel, dataset: Dataset, config: RunConfig, log_path=None) -> list[str]:
    """Continue contrastive training on a new dataset without touching the
    model structure; templates may differ, the tokenizer is kept. The train
    keys that shape the model, its encoders and its text side, must be the
    checkpoint's."""
    _check_tuning_config(config, model.config, ("modalities", "vocab_size", "max_tokens"))
    lines = trainer.continue_training(dataset, model, config, log_path=log_path)
    model.class_labels = dataset.vessel_types()
    return lines


def encoder_tune(pretrained: TriModalModel | ClassifierModel | None, dataset: Dataset, config: RunConfig,
                 freeze_encoder: bool = False) -> tuple[ClassifierModel, list[float]]:
    """Attach a category head to an audio encoder, a copy of the pretrained
    model's (tri-modal or classifier: its other encoders or heads are
    dropped) or a fresh one for None, and train with softmax CE."""
    model = ClassifierModel(config, _task_classes(dataset, ["category"]))
    if pretrained is not None:
        _check_tuning_config(config, pretrained.config)
        weights = {name: t.values for name, t in trainable(pretrained.audio_encoder).items()}
        model.store.split(len(weights))[0].load_values(weights, "pretrained encoder")
    trace = train_classifier(model, dataset, config, freeze_encoder=freeze_encoder)
    return model, trace


def multilabel_baseline(dataset: Dataset, config: RunConfig) -> tuple[ClassifierModel, list[float]]:
    """Heads over category and every annotated auxiliary field, trained as
    one multi-label classifier with binary CE on multi-hot targets."""
    annotated = [f for f in AUX_FIELDS if any(getattr(s.record, f) is not None for s in dataset.samples)]
    model = ClassifierModel(config, _task_classes(dataset, ["category", *annotated]))
    trace = train_classifier(model, dataset, config, multilabel=True)
    return model, trace


def multitask_baseline(dataset: Dataset, tasks: list[str], config: RunConfig) -> tuple[ClassifierModel, list[float]]:
    """Shared audio encoder with one softmax head per task; losses are summed."""
    model = ClassifierModel(config, _task_classes(dataset, tasks))
    trace = train_classifier(model, dataset, config)
    return model, trace
