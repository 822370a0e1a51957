"""Dataset ingestion: JSONL manifests, WAV loading, 30 s / 15 s segmentation,
and the source-grouped stratified 4-fold protocol. Each manifest row becomes
one AnnotationRecord, rendered into the sentence every segment of its
recording shares; a malformed row is a DataError naming the row.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import PreprocessConfig
from .dsp import (
    TARGET_RATE,
    AudioSegment,
    Spectrogram,
    mel_spectrogram,
    read_wav,
    resample_to_16k,
    stft_spectrogram,
)
from .errors import ConfigError, DataError, EmptyInputError, ProtocolError
from .templates import AUX_FIELDS, AnnotationRecord, TemplateSpec, render_template

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ManifestRecord:
    audio_path: Path
    source_id: str
    sample_rate_hz: int
    annotation: AnnotationRecord

    @property
    def vessel_type(self) -> str:
        return self.annotation.vessel_type


@dataclass
class DatasetManifest:
    records: list[ManifestRecord]


def _sample_rate(value, where: str) -> int:
    """A positive int, a float with no fraction, or a string that int() reads."""
    try:
        rate = int(value)
        if isinstance(value, str) or rate == value:
            if rate > 0:
                return rate
            raise DataError(f"{where}: sample_rate_hz must be positive, got {value!r}")
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(f"{where}: sample_rate_hz must be an integer, got {value!r}")


def load_manifest(path) -> DatasetManifest:
    """Parse a JSON-Lines manifest; paths are resolved relative to the file."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    base = path.parent
    records = []
    source_types: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} row {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise DataError(f"{path} row {lineno}: expected an object")
        for required in ("audio", "source_id", "vessel_type", "sample_rate_hz"):
            if row.get(required) in (None, ""):  # 0 is a value
                raise DataError(f"{path} row {lineno}: missing required field {required!r}")
        audio_path = base / row["audio"]
        if not audio_path.exists():
            raise DataError(f"{path} row {lineno}: audio file not found: {audio_path}")
        aux = {}
        for f in AUX_FIELDS:
            v = row.get(f)
            if v is not None:
                if not isinstance(v, str) or not v:
                    raise DataError(f"{path} row {lineno}: field {f!r} must be a nonempty string")
                aux[f] = v
        rec = ManifestRecord(
            audio_path=audio_path,
            source_id=str(row["source_id"]),
            sample_rate_hz=_sample_rate(row["sample_rate_hz"], f"{path} row {lineno}"),
            annotation=AnnotationRecord(vessel_type=str(row["vessel_type"]), **aux),
        )
        prev = source_types.setdefault(rec.source_id, rec.vessel_type)
        if prev != rec.vessel_type:
            raise DataError(f"{path} row {lineno}: source {rec.source_id!r} has conflicting vessel types")
        records.append(rec)
    if not records:
        raise DataError(f"{path}: manifest is empty")
    return DatasetManifest(records)


def segment_audio(
    samples: np.ndarray,
    source_id: str,
    segment_seconds: float = 30.0,
    overlap_seconds: float = 15.0,
) -> list[AudioSegment]:
    """Cut 16 kHz samples into fixed windows at offsets 0, step, 2*step, ...
    where step = segment - overlap; recordings shorter than one window yield none."""
    seg_len = int(round(segment_seconds * TARGET_RATE))
    step = int(round((segment_seconds - overlap_seconds) * TARGET_RATE))
    if step <= 0:
        raise DataError(f"segment step must be positive (segment={segment_seconds}s, overlap={overlap_seconds}s)")
    n = len(samples)
    if n < seg_len:
        log.warning("recording %s too short for one %.0fs segment; skipped", source_id, segment_seconds)
        return []
    count = (n - seg_len) // step + 1
    return [AudioSegment(samples[k * step : k * step + seg_len]) for k in range(count)]


@dataclass(frozen=True)
class FoldAssignment:
    mapping: dict[str, int]
    k: int

    def fold_of(self, source_id: str) -> int:
        return self.mapping[source_id]


def _shuffled_sources_by_type(records, seed: int) -> list[list[str]]:
    """The distinct source ids of each vessel type, sorted and then shuffled,
    in sorted type order; one generator seeded `seed` shuffles them all."""
    by_type: dict[str, set[str]] = {}
    for r in records:
        by_type.setdefault(r.vessel_type, set()).add(r.source_id)
    rng = np.random.default_rng(seed)
    groups = [sorted(by_type[vessel_type]) for vessel_type in sorted(by_type)]
    for group in groups:
        rng.shuffle(group)
    return groups


def make_folds(manifest: DatasetManifest, k: int = 4, seed: int = 0) -> FoldAssignment:
    """Assign each source to one fold, stratified by vessel type.

    Sources are shuffled within each type and dealt round-robin with a global
    counter, so folds stay balanced and every fold is nonempty when there are
    at least k sources.
    """
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    order = [s for group in _shuffled_sources_by_type(manifest.records, seed) for s in group]
    if len(order) < k:
        raise ProtocolError(f"need at least {k} sources for {k} folds, have {len(order)}")
    return FoldAssignment(mapping={s: i % k for i, s in enumerate(order)}, k=k)


@dataclass
class TrainSample:
    segment: AudioSegment
    sentence: str
    source_id: str
    record: AnnotationRecord
    spec: Spectrogram | None = field(default=None, repr=False)  # cached encoder input

    @property
    def vessel_type(self) -> str:
        return self.record.vessel_type


@dataclass
class Dataset:
    samples: list[TrainSample]
    preprocess: PreprocessConfig

    def spectrogram(self, sample: TrainSample) -> Spectrogram:
        if sample.spec is None:
            p = self.preprocess
            if p.spec_input == "mel":
                sample.spec = mel_spectrogram(
                    sample.segment, p.n_mels, p.frame_length_ms, p.frame_shift_ms, p.fft_size, p.log_magnitude
                )
            else:
                sample.spec = stft_spectrogram(
                    sample.segment, p.frame_length_ms, p.frame_shift_ms, p.fft_size, p.log_magnitude
                )
        return sample.spec

    def select(self, indices) -> "Dataset":
        return Dataset([self.samples[i] for i in indices], self.preprocess)

    def source_ids(self) -> set[str]:
        return {s.source_id for s in self.samples}

    def vessel_types(self) -> list[str]:
        return sorted({s.vessel_type for s in self.samples})

    def split_by_fold(self, folds: FoldAssignment, test_fold: int) -> tuple["Dataset", "Dataset"]:
        if not 0 <= test_fold < folds.k:
            raise ConfigError(f"fold {test_fold} is out of range for {folds.k} folds (0 to {folds.k - 1})")
        train_idx = [i for i, s in enumerate(self.samples) if folds.fold_of(s.source_id) != test_fold]
        test_idx = [i for i, s in enumerate(self.samples) if folds.fold_of(s.source_id) == test_fold]
        train, test = self.select(train_idx), self.select(test_idx)
        leaked = train.source_ids() & test.source_ids()
        if leaked:
            raise ProtocolError(f"sources straddle the fold boundary: {sorted(leaked)}")
        return train, test


def stratified_source_subset(dataset: Dataset, fraction: float, seed: int = 0) -> Dataset:
    """Keep a seeded per-class fraction of sources (at least one per class)."""
    if not 0.0 < fraction <= 1.0:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    groups = _shuffled_sources_by_type(dataset.samples, seed)
    keep = {s for group in groups for s in group[: max(1, round(fraction * len(group)))]}
    return dataset.select([i for i, s in enumerate(dataset.samples) if s.source_id in keep])


def ingest(manifest_path, template: TemplateSpec, preprocess: PreprocessConfig) -> tuple[Dataset, DatasetManifest]:
    """Load every recording, segment it, and render its sentence.

    Spectrograms are computed lazily by Dataset.spectrogram and cached on the
    sample, since they are constant across training epochs.
    """
    manifest = load_manifest(manifest_path)
    samples: list[TrainSample] = []
    for rec in manifest.records:
        raw, rate = read_wav(rec.audio_path)
        if rate != rec.sample_rate_hz:
            raise DataError(f"{rec.audio_path}: header rate {rate} != manifest rate {rec.sample_rate_hz}")
        if rate != TARGET_RATE:
            try:
                raw = resample_to_16k(raw, rate)
            except EmptyInputError as exc:
                raise EmptyInputError(f"{rec.audio_path}: {exc}") from exc
        sentence = render_template(template, rec.annotation)
        for segment in segment_audio(raw, rec.source_id, preprocess.segment_seconds, preprocess.overlap_seconds):
            samples.append(TrainSample(segment, sentence, rec.source_id, rec.annotation))
    if not samples:
        raise DataError("no segments produced; recordings shorter than the segment length?")
    return Dataset(samples, preprocess), manifest
