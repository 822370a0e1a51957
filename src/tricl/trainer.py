"""Contrastive training loop: batch embedding, anomaly filtering, scaled
similarity logits, and the symmetric cross-entropy loss averaged over all
modality pairs (six terms tri-modal, two terms audio+text).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bpe import train_bpe
from .config import RunConfig
from .encoders import Embedding
from .errors import ContractError, DegenerateBatchError, NonFiniteLossError
from .model import TriModalModel
from .optim import AdamW
from .tensor import (
    Tensor,
    add,
    backward,
    concat,
    cross_entropy_identity,
    exp,
    l2_normalize_rows,
    matmul,
    mul,
    reshape,
    scalar_scale,
    transpose,
)

log = logging.getLogger(__name__)


def anomaly_filter(modal_embeddings: dict[str, list[Embedding]]) -> tuple[dict[str, list[Embedding]], list[int]]:
    """Drop every sample whose embedding norm is zero in any modality.

    A dropped sample is removed from all modalities so the batch stays
    aligned; fewer than two survivors aborts the batch.
    """
    sizes = {len(v) for v in modal_embeddings.values()}
    if len(sizes) != 1:
        raise ContractError(f"modalities disagree on batch size: { {k: len(v) for k, v in modal_embeddings.items()} }")
    batch = sizes.pop()
    kept = [i for i in range(batch) if all(embs[i].norm > 0.0 for embs in modal_embeddings.values())]
    if len(kept) < 2:
        raise DegenerateBatchError(f"only {len(kept)} of {batch} samples survived anomaly filtering")
    return {k: [v[i] for i in kept] for k, v in modal_embeddings.items()}, kept


def _values_of(e) -> np.ndarray:
    if isinstance(e, Embedding):
        return e.vector.values
    if isinstance(e, Tensor):
        return e.values
    return np.asarray(e, dtype=np.float64)


def cosine_similarity(e1, e2) -> float:
    """dot(e1, e2) / (||e1|| * ||e2||); zero-norm inputs are a contract violation."""
    v1, v2 = _values_of(e1).ravel(), _values_of(e2).ravel()
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ContractError("cosine similarity of a zero-norm embedding (anomaly filter missed it?)")
    return float(v1 @ v2 / (n1 * n2))


def stack_embeddings(embeddings: list[Embedding]) -> Tensor:
    rows = [reshape(e.vector, (1, e.vector.size)) for e in embeddings]
    return concat(rows, axis=0) if len(rows) > 1 else rows[0]


def compute_logits(e_x, e_y, scale) -> Tensor:
    """B x B matrix of cosine similarities times e**scale.

    Rows are L2-normalized first, so entry (i, j) is exactly the cosine of
    x_i and y_j. `scale` may be a learnable scalar tensor or a plain float.
    """
    x = stack_embeddings(e_x) if isinstance(e_x, list) else e_x
    y = stack_embeddings(e_y) if isinstance(e_y, list) else e_y
    if x.shape != y.shape:
        raise ContractError(f"logits need equal batch shapes, got {x.shape} vs {y.shape}")
    for side, mat in (("x", x), ("y", y)):
        norms = np.sqrt((mat.values**2).sum(axis=1))
        if np.any(norms == 0.0):
            raise ContractError(f"zero-norm embedding in {side} batch; run anomaly_filter first")
    sims = matmul(l2_normalize_rows(x), transpose(l2_normalize_rows(y)))
    if isinstance(scale, Tensor):
        return mul(sims, exp(scale))
    return scalar_scale(sims, math.exp(float(scale)))


def contrastive_loss(logits_at: Tensor, logits_ts: Tensor | None = None, logits_as: Tensor | None = None) -> Tensor:
    """Row-wise and column-wise CE against identity targets, averaged over
    all provided pair matrices (six terms tri-modal, two audio+text)."""
    mats = [m for m in (logits_at, logits_ts, logits_as) if m is not None]
    terms = []
    for m in mats:
        terms.append(cross_entropy_identity(m))
        terms.append(cross_entropy_identity(transpose(m)))
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


def batch_loss(dataset, indices, model: TriModalModel) -> Tensor:
    """Embed one batch, filter anomalies, and build the pairwise CE loss."""
    kernels = model.audio_encoder.build_kernels()
    embeddings: dict[str, list[Embedding]] = {"audio": [], "text": []}
    if model.spec_encoder is not None:
        embeddings["spec"] = []
    text_cache: dict[str, Embedding] = {}
    for i in indices:
        sample = dataset.samples[i]
        embeddings["audio"].append(model.audio_encoder.encode(sample.segment, kernels))
        cached = text_cache.get(sample.sentence)
        if cached is None:
            cached = model.encode_text(sample.sentence)
            text_cache[sample.sentence] = cached
        embeddings["text"].append(cached)
        if model.spec_encoder is not None:
            embeddings["spec"].append(model.spec_encoder.encode(dataset.spectrogram(sample)))

    filtered, _ = anomaly_filter(embeddings)
    audio = stack_embeddings(filtered["audio"])
    text = stack_embeddings(filtered["text"])
    logits_at = compute_logits(audio, text, model.scales.scale_at)
    if model.spec_encoder is None:
        return contrastive_loss(logits_at)
    spec = stack_embeddings(filtered["spec"])
    logits_ts = compute_logits(text, spec, model.scales.scale_ts)
    logits_as = compute_logits(audio, spec, model.scales.scale_as)
    return contrastive_loss(logits_at, logits_ts, logits_as)


def train_epoch(dataset, model: TriModalModel, optimizer: AdamW, config: RunConfig, rng: np.random.Generator) -> EpochMetrics:
    """One pass over the dataset: shuffle, batch, loss, backward, Adam step.

    Encoders, wavelet parameters, and scale coefficients update together in
    the same step; degenerate batches are skipped and counted. A non-finite
    batch loss raises NonFiniteLossError before any gradient is computed.
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
        if len(indices) < 2:
            # a trailing singleton cannot form contrastive pairs
            skipped += 1
            continue
        try:
            loss = batch_loss(dataset, indices, model)
        except DegenerateBatchError as exc:
            log.warning("skipping degenerate batch: %s", exc)
            skipped += 1
            continue
        check_finite_loss(loss, start // bs, indices)
        backward(loss)
        optimizer.step()
        model.clamp()
        losses.append(float(loss.values))
    mean_loss = math.fsum(losses) / len(losses) if losses else float("nan")
    return EpochMetrics(mean_loss=mean_loss, skipped_batches=skipped)


def format_log_line(epoch: int, metrics: EpochMetrics, model: TriModalModel) -> str:
    parts = [f"epoch={epoch:03d}", f"mean_loss={metrics.mean_loss:.6f}", f"skipped_batches={metrics.skipped_batches}"]
    for name, value in model.scales.multipliers(model.modalities).items():
        parts.append(f"exp_{name.replace('.', '_')}={value:.6f}")
    return " ".join(parts)


def train(
    dataset,
    config: RunConfig,
    train_template_text: str,
    test_template_text: str,
    log_path=None,
) -> tuple[TriModalModel, list[str]]:
    """Train a fresh tri-modal model on the dataset; returns (model, log lines)."""
    sentences = [s.sentence for s in dataset.samples]
    tokenizer = train_bpe(sentences, config.train.vocab_size)
    labels = sorted({s.vessel_type for s in dataset.samples})
    sources = tuple(sorted({s.source_id for s in dataset.samples}))
    model = TriModalModel(
        config,
        tokenizer,
        train_template_text,
        test_template_text,
        class_labels=labels,
        train_source_ids=sources,
    )
    lines = continue_training(dataset, model, config, log_path=log_path)
    return model, lines


def continue_training(dataset, model: TriModalModel, config: RunConfig, log_path=None) -> list[str]:
    """Run config.train.epochs epochs of Alg-style contrastive updates on `model`."""
    params = list(model.parameters().values())
    optimizer = AdamW(params, lr=config.train.lr, weight_decay=config.train.weight_decay)
    rng = np.random.default_rng(config.train.seed)
    lines = []
    for epoch in range(1, config.train.epochs + 1):
        metrics = train_epoch(dataset, model, optimizer, config, rng)
        lines.append(format_log_line(epoch, metrics, model))
    model.train_source_ids = tuple(sorted(set(model.train_source_ids) | {s.source_id for s in dataset.samples}))
    if log_path is not None:
        Path(log_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return lines
