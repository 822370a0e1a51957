"""Downstream adaptation: template-based tuning of the full tri-modal model,
encoder-only tuning with a classifier head, and the multi-label / multi-task
baselines that fuse auxiliary annotations into discrete targets.

Classifier training runs the trainer's one batch loop, `trainer.train_epoch`,
with `_classifier_batch_loss`; that loss never skips a batch. Its softmax
heads use `tensor.cross_entropy`, the op contrastive training uses, and
`ClassifierModel.head_logits` is the one place a head is applied. A tuning
config may differ from its checkpoint only in the train section and in the
encoder seed, which seeds new heads.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .config import RunConfig
from .data import Dataset
from .dsp import AudioSegment
from .encoders import AudioEncoder
from .errors import ConfigError, ContractError
from .layers import Linear
from .model import TriModalModel
from .optim import AdamW
from .store import ParameterStore, trainable
from .templates import AUX_FIELDS
from .tensor import (
    Tensor,
    absval,
    add,
    backward,  # noqa: F401  (perfbench wraps tuning.backward)
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
from .trainer import continue_training, train_epoch


def binary_ce_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean element-wise binary cross entropy in the numerically stable form
    relu(z) - z*y + log(1 + exp(-|z|))."""
    t = Tensor(np.asarray(targets, dtype=np.float64))
    return mean(add(sub(relu(logits), mul(logits, t)), softplus(neg(absval(logits)))))


def _task_stream(task: str) -> int:
    return int.from_bytes(task.encode("utf-8"), "little") % (2**31)


class ClassifierModel:
    """Audio encoder plus one or more linear heads over discrete targets.

    kind "category": one softmax head. kind "multitask": one head per task,
    category mandatory. kind "multilabel": a single wide head over the fused
    dictionary (categories first), trained with per-dimension binary CE and
    read out by argmax restricted to the category dimensions.
    """

    def __init__(self, config: RunConfig, kind: str, task_classes: dict[str, list[str]],
                 train_source_ids: tuple[str, ...] = ()):
        if kind not in ("category", "multitask", "multilabel"):
            raise ConfigError(f"unknown classifier kind {kind!r}")
        if kind == "multilabel":
            if "multilabel" not in task_classes or "n_categories" not in task_classes:
                raise ConfigError("multilabel classifier needs the fused dictionary and n_categories")
        elif "category" not in task_classes:
            raise ConfigError("classifier needs a category task")
        self.config = config
        self.kind = kind
        self.task_classes = {k: list(v) for k, v in task_classes.items()}
        self.train_source_ids = tuple(train_source_ids)
        seed = config.encoder.seed
        self.encoder = AudioEncoder(config.encoder, config.preprocess, np.random.default_rng([seed, 0]))
        self.heads: dict[str, Linear] = {}
        for task in sorted(t for t in self.task_classes if t != "n_categories"):
            width = len(self.task_classes[task])
            rng = np.random.default_rng([seed, 10, _task_stream(task)])
            self.heads[task] = Linear(rng, config.encoder.d, width, f"head.{task}")
        self.store = ParameterStore(trainable(self.encoder, self.heads))  # encoder first: the heads are the tail

    @property
    def n_categories(self) -> int:
        if self.kind == "multilabel":
            return int(self.task_classes["n_categories"][0])
        return len(self.task_classes["category"])

    @property
    def class_labels(self) -> list[str]:
        if self.kind == "multilabel":
            return self.task_classes["multilabel"][: self.n_categories]
        return self.task_classes["category"]

    def head_logits(self, embeddings: Tensor, task: str) -> Tensor:
        return self.heads[task](embeddings)

    def clamp(self) -> None:
        self.encoder.wavelet.clamp()

    def predict_labels(self, segments: list[AudioSegment]) -> list[str]:
        task = "multilabel" if self.kind == "multilabel" else "category"
        embeddings = self.encoder.embed(segments, self.config.train.batch_size)
        with no_grad():
            logits = self.head_logits(embeddings, task).values[:, : self.n_categories]  # never an auxiliary index
        return [self.class_labels[int(i)] for i in np.argmax(logits, axis=1)]


def train_classifier(model: ClassifierModel, dataset: Dataset, config: RunConfig,
                     freeze_encoder: bool = False) -> list[float]:
    """Cross-entropy training shared by encoder tuning and both baselines.

    Returns per-epoch mean losses. Samples missing an auxiliary annotation
    are excluded from that task's loss term only. A non-finite batch loss
    raises NonFiniteLossError before any gradient is computed.
    """
    encoder, heads = model.store.split(len(trainable(model.encoder)))
    frozen_before = encoder.buffer.copy() if freeze_encoder else None
    optimizer = AdamW(heads if freeze_encoder else model.store, lr=config.train.lr,
                      weight_decay=config.train.weight_decay)
    rng = np.random.default_rng(config.train.seed)
    trace = [train_epoch(dataset, model, optimizer, config, rng, _classifier_batch_loss).mean_loss
             for _ in range(config.train.epochs)]
    model.train_source_ids = tuple(sorted(set(model.train_source_ids) | dataset.source_ids()))
    if freeze_encoder and not np.array_equal(encoder.buffer, frozen_before):
        raise ContractError("frozen encoder parameters changed during head-only tuning")
    return trace


def _classifier_batch_loss(dataset: Dataset, indices: list[int], model: ClassifierModel) -> Tensor:
    """Never None: the category task is mandatory and every sample has a vessel type."""
    batch = [dataset.samples[i] for i in indices]
    embeddings = model.encoder.encode([s.segment for s in batch], model.encoder.build_kernels())
    if model.kind == "multilabel":
        dictionary = model.task_classes["multilabel"]
        dim_index = {entry: i for i, entry in enumerate(dictionary)}
        targets = np.zeros((len(batch), len(dictionary)))
        for r, sample in enumerate(batch):
            targets[r, dim_index[sample.vessel_type]] = 1.0
            for f in AUX_FIELDS:
                v = getattr(sample.record, f)
                if v is not None and f"{f}={v}" in dim_index:
                    targets[r, dim_index[f"{f}={v}"]] = 1.0
        return binary_ce_logits(model.head_logits(embeddings, "multilabel"), targets)

    total = None
    for task in sorted(model.heads):
        classes = model.task_classes[task]
        class_index = {c: i for i, c in enumerate(classes)}
        rows, targets = [], []
        for i, sample in enumerate(batch):
            value = sample.vessel_type if task == "category" else getattr(sample.record, task)
            if value is None:
                continue  # annotation missing: skip this sample for this task only
            rows.append(i)
            targets.append(class_index[value])
        if not rows:
            continue
        term = cross_entropy(model.head_logits(take_rows(embeddings, rows), task), targets)
        total = term if total is None else add(total, term)
    return total


def _check_tuning_config(config: RunConfig, checkpoint: RunConfig) -> None:
    for section in ("preprocess", "encoder"):
        ours, theirs = asdict(getattr(config, section)), asdict(getattr(checkpoint, section))
        for key in ours:
            if key != "seed" and ours[key] != theirs[key]:
                raise ConfigError(f"tuning config sets {section}.{key}={ours[key]!r}, the checkpoint has {theirs[key]!r}")


def uart_tune(model: TriModalModel, dataset: Dataset, config: RunConfig, log_path=None) -> list[str]:
    """Continue contrastive training on a new dataset without touching the
    model structure; templates may differ, the tokenizer is kept."""
    _check_tuning_config(config, model.config)
    lines = continue_training(dataset, model, config, log_path=log_path)
    model.class_labels = dataset.vessel_types()
    return lines


def encoder_tune(pretrained: TriModalModel | None, dataset: Dataset, config: RunConfig,
                 freeze_encoder: bool = False) -> tuple[ClassifierModel, list[float]]:
    """Drop the text and spectrogram encoders; attach a category head to the
    audio encoder (the pretrained model's, or a fresh one for None) and train
    with softmax CE."""
    labels = dataset.vessel_types()
    if len(labels) < 2:
        raise ConfigError(f"classification needs at least 2 classes, got {labels}")
    model = ClassifierModel(config, "category", {"category": labels})
    if pretrained is not None:
        _check_tuning_config(config, pretrained.config)
        weights = {name: t.values for name, t in trainable(pretrained.audio_encoder).items()}
        model.store.split(len(trainable(model.encoder)))[0].load_values(weights, "pretrained encoder")
    trace = train_classifier(model, dataset, config, freeze_encoder=freeze_encoder)
    return model, trace


def multilabel_baseline(dataset: Dataset, config: RunConfig) -> tuple[ClassifierModel, list[float]]:
    """One wide head over the fused annotation dictionary with multi-hot targets."""
    categories = dataset.vessel_types()
    aux_entries = sorted(
        {
            f"{f}={getattr(s.record, f)}"
            for s in dataset.samples
            for f in AUX_FIELDS
            if getattr(s.record, f) is not None
        }
    )
    dictionary = categories + aux_entries
    if not dictionary:
        raise ConfigError("empty label dictionary")
    model = ClassifierModel(
        config,
        "multilabel",
        {"multilabel": dictionary, "n_categories": [len(categories)]},
    )
    trace = train_classifier(model, dataset, config)
    return model, trace


def multitask_baseline(dataset: Dataset, tasks: list[str], config: RunConfig) -> tuple[ClassifierModel, list[float]]:
    """Shared audio encoder with one linear head per task; losses are summed.

    Inference uses only the category head, so auxiliary tasks never alter the
    inference pathway.
    """
    if "category" not in tasks:
        raise ConfigError("multitask baseline requires the category task")
    task_classes: dict[str, list[str]] = {}
    for task in tasks:
        if task == "category":
            task_classes[task] = dataset.vessel_types()
        else:
            if task not in AUX_FIELDS:
                raise ConfigError(f"unknown task {task!r}; expected category or one of {AUX_FIELDS}")
            values = sorted({getattr(s.record, task) for s in dataset.samples if getattr(s.record, task) is not None})
            if not values:
                raise ConfigError(f"no annotations present for task {task!r}")
            task_classes[task] = values
    model = ClassifierModel(config, "multitask" if len(tasks) > 1 else "category", task_classes)
    trace = train_classifier(model, dataset, config)
    return model, trace
