"""Contrastive training and the one training run every training path uses.

`fit` is that run: `train.epochs` passes of `train_epoch`, the one batch
loop: shuffle, batch loss, backward, AdamW step, clamp. A batch's tape lives
as long as its loss, and `train_epoch` drops the loss once its value is
recorded, so one tape is alive per step: the next batch's forward starts
from none. It takes the
batch-loss function `(dataset, indices, model) -> Tensor | None`, and a
`None` loss means skip the batch and count it. Contrastive training passes
`batch_loss`: batched embedding, anomaly filtering, scaled similarity logits
for each modality pair the model has a scale for, and the symmetric cross
entropy (`tensor.cross_entropy` against identity targets, row-wise and
column-wise) averaged over those pairs: six terms tri-modal, two audio+text.
Classifier tuning passes its own loss, built on the same op.

The encoders do not depend on each other, so `batch_loss` runs them on two
threads (`tensor.beside`): audio and text on the worker beside the
spectrogram encoder, or audio beside text for an audio+text model. The
audio encoder builds its wavelet kernels inside `encode`, so the build also
runs on the worker, beside the spectrogram (or text) encoder. Each embedding
is a `tensor.branch`, so `backward` walks the encoders on the same threads,
and the gradients are bitwise those of a one-thread step. The AdamW step
that follows splits its update over the same two threads once the store is
large enough (`optim.SPLIT_AT`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bpe import train_bpe
from .config import RunConfig
from .errors import ContractError, DataError, DegenerateBatchError, NonFiniteLossError
from .model import TriModalModel, cosine_matrix
from .optim import AdamW
from .templates import LABEL_TEMPLATE_TEXT
from .tensor import (
    Tensor,
    add,
    backward,
    beside,
    branch,
    cross_entropy,
    exp,
    mul,
    scalar_scale,
    take_rows,
    transpose,
)

log = logging.getLogger(__name__)


def anomaly_filter(modal_embeddings: dict[str, Tensor]) -> tuple[dict[str, Tensor], list[int]]:
    """Drop every row whose embedding norm is zero in any modality.

    A dropped sample is removed from all modalities so the batch stays
    aligned; fewer than two survivors aborts the batch.
    """
    sizes = {len(v) for v in modal_embeddings.values()}
    if len(sizes) != 1:
        raise ContractError(f"modalities disagree on batch size: { {k: len(v) for k, v in modal_embeddings.items()} }")
    batch = sizes.pop()
    norms = [np.sqrt((v.values**2).sum(axis=1)) for v in modal_embeddings.values()]
    kept = [i for i in range(batch) if all(n[i] > 0.0 for n in norms)]
    if len(kept) < 2:
        raise DegenerateBatchError(f"only {len(kept)} of {batch} samples survived anomaly filtering")
    return {k: take_rows(v, kept) for k, v in modal_embeddings.items()}, kept


def compute_logits(x: Tensor, y: Tensor, scale: Tensor) -> Tensor:
    """B x B matrix of cosine similarities times e**scale.

    Rows are L2-normalized first, so entry (i, j) is exactly the cosine of
    x_i and y_j. `scale` is a scalar tensor, learnable or constant.
    """
    if x.shape != y.shape:
        raise ContractError(f"logits need equal batch shapes, got {x.shape} vs {y.shape}")
    return mul(cosine_matrix(x, y), exp(scale))


def contrastive_loss(*logits: Tensor) -> Tensor:
    """Row-wise and column-wise CE against identity targets, averaged over
    the given pair matrices (six terms tri-modal, two audio+text)."""
    b = len(logits[0])
    if b < 2:
        raise ContractError(f"contrastive loss needs a batch of at least 2 samples, got {b}")
    terms = [cross_entropy(m, range(b)) for mat in logits for m in (mat, transpose(mat))]
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return scalar_scale(total, 1.0 / len(terms))


def check_finite_loss(loss: Tensor, batch: int, indices: list[int]) -> None:
    """Raise NonFiniteLossError naming the batch before a NaN/inf loss reaches backward."""
    value = float(loss.values)
    if not math.isfinite(value):
        raise NonFiniteLossError(f"non-finite loss {value} in batch {batch} (sample indices {indices})")


@dataclass
class EpochMetrics:
    mean_loss: float
    skipped_batches: int


def batch_loss(dataset, indices, model: TriModalModel) -> Tensor | None:
    """Embed one batch (each distinct sentence once), filter anomalies, and
    build the pairwise CE loss.

    None for a batch that cannot form contrastive pairs: a single sample, or
    fewer than two samples left after anomaly filtering.
    """
    if len(indices) < 2:
        return None
    samples = [dataset.samples[i] for i in indices]
    sentences = list(dict.fromkeys(s.sentence for s in samples))
    row_of = {sentence: r for r, sentence in enumerate(sentences)}

    def audio():
        return model.audio_encoder.encode([s.segment for s in samples])

    def text():
        return take_rows(model.encode_text(sentences), [row_of[s.sentence] for s in samples])

    if model.spec_encoder is None:
        a, t = beside(audio, text)
        embeddings = {"audio": branch(a, on_worker=True), "text": branch(t)}
    else:
        (a, t), spec = beside(lambda: (audio(), text()),
                              lambda: model.spec_encoder.encode([dataset.spectrogram(s) for s in samples]))
        embeddings = {"audio": branch(a, on_worker=True), "text": branch(t, on_worker=True), "spec": branch(spec)}

    try:
        emb, _ = anomaly_filter(embeddings)
    except DegenerateBatchError as exc:
        log.warning("skipping degenerate batch: %s", exc)
        return None
    scales = model.scales  # the audio+text model has no ts and as scales
    pairs = (("audio", "text", scales.scale_at), ("text", "spec", scales.scale_ts), ("audio", "spec", scales.scale_as))
    return contrastive_loss(*[compute_logits(emb[x], emb[y], scale) for x, y, scale in pairs if scale is not None])


def train_epoch(dataset, model, optimizer: AdamW, config: RunConfig, rng: np.random.Generator,
                loss_fn) -> EpochMetrics:
    """One pass over the dataset: shuffle, batch, loss, backward, Adam step, clamp.

    `loss_fn(dataset, indices, model)` gives the batch loss; a None loss skips
    the batch and counts it, and an epoch that skipped every batch raises
    DataError. Every parameter the optimizer holds updates in the same step.
    A non-finite batch loss raises NonFiniteLossError before backward runs.
    """
    n = len(dataset.samples)
    if n == 0:
        raise ContractError("dataset is empty")
    order = rng.permutation(n)
    bs = config.train.batch_size
    losses: list[float] = []
    skipped = 0
    for start in range(0, n, bs):
        indices = order[start : start + bs].tolist()
        loss = loss_fn(dataset, indices, model)
        if loss is None:
            skipped += 1
            continue
        check_finite_loss(loss, start // bs, indices)
        backward(loss)
        optimizer.step()
        model.clamp()
        losses.append(float(loss.values))
        del loss  # the batch's tape goes now, not when the next batch's loss replaces it
    if not losses:
        raise DataError(f"all {skipped} batches of the epoch were skipped: no batch gave a loss")
    return EpochMetrics(mean_loss=math.fsum(losses) / len(losses), skipped_batches=skipped)


def format_log_line(epoch: int, metrics: EpochMetrics, model: TriModalModel) -> str:
    parts = [f"epoch={epoch:03d}", f"mean_loss={metrics.mean_loss:.6f}", f"skipped_batches={metrics.skipped_batches}"]
    for name, value in model.scales.multipliers().items():
        parts.append(f"exp_{name.replace('.', '_')}={value:.6f}")
    return " ".join(parts)


def fit(dataset, model, config: RunConfig, loss_fn, store=None):
    """The one training run: AdamW over `store` (default: the whole model store) for `train.epochs`
    epochs, yielding each epoch's metrics. Parameters outside `store` stay off the tape and must end
    the run unchanged (else ContractError); a finished run records the dataset's sources."""
    store = model.store if store is None else store
    optimizer = AdamW(store, lr=config.train.lr, weight_decay=config.train.weight_decay)
    rng = np.random.default_rng(config.train.seed)
    frozen = [t for name, t in model.store.tensors.items() if name not in store.tensors]
    before = [t.values.copy() for t in frozen]
    for t in frozen:
        t.requires_grad = False
    try:
        for _ in range(config.train.epochs):
            yield train_epoch(dataset, model, optimizer, config, rng, loss_fn)
    finally:
        for t in frozen:
            t.requires_grad = True
    changed = [t.name for t, b in zip(frozen, before) if not np.array_equal(t.values, b)]
    if changed:
        raise ContractError(f"parameters outside the trained store changed during the run: {changed}")
    model.train_source_ids = tuple(sorted(set(model.train_source_ids) | dataset.source_ids()))


def train(dataset, config: RunConfig, train_template_text: str, log_path=None) -> tuple[TriModalModel, list[str]]:
    """Train a fresh tri-modal model on the dataset; returns (model, log lines)."""
    sentences = [s.sentence for s in dataset.samples]
    tokenizer = train_bpe(sentences, config.train.vocab_size)
    model = TriModalModel(config, tokenizer, train_template_text, LABEL_TEMPLATE_TEXT, dataset.vessel_types())
    lines = continue_training(dataset, model, config, log_path=log_path)
    return model, lines


def continue_training(dataset, model: TriModalModel, config: RunConfig, log_path=None) -> list[str]:
    """Run config.train.epochs epochs of Alg-style contrastive updates on `model`."""
    lines = [format_log_line(epoch, metrics, model)
             for epoch, metrics in enumerate(fit(dataset, model, config, batch_loss), start=1)]
    if log_path is not None:
        Path(log_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return lines
