"""Prompt-style inference and fold-based evaluation with class merging.

Prompt inference picks the candidate sentence whose text embedding is most
cosine-similar to the audio embedding; only the audio is consumed, and no
annotations enter the inference path. Evaluation asks either model type for
`predict_labels` on the held-out fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FoldAssignment
from .dsp import AudioSegment
from .errors import ConfigError, ContractError, ProtocolError


@dataclass(frozen=True)
class ClassMap:
    """Total mapping from vessel type to evaluation class."""

    mapping: dict

    def merged(self, vessel_type: str) -> str:
        if vessel_type not in self.mapping:
            raise ContractError(f"class map has no entry for {vessel_type!r}")
        return self.mapping[vessel_type]

    def classes(self) -> list[str]:
        return sorted(set(self.mapping.values()))


SHIPSEAR_CLASS_MAP = ClassMap(
    {
        "Fishboat": "A",
        "Musselboat": "A",
        "Dredger": "A",
        "Motorboat": "B",
        "Sailboat": "B",
        "Passengers": "C",
        "Oceanliner": "D",
        "RORO": "D",
        "Naturalnoise": "E",
    }
)


def identity_class_map(labels) -> ClassMap:
    return ClassMap({label: label for label in labels})


def prompt_infer(segment: AudioSegment, candidates: list[str], model) -> tuple[int, np.ndarray]:
    """Index of the candidate sentence most similar to the audio, plus all
    similarities. Ties break toward the lowest index."""
    sims = model.similarities([segment], candidates)[0]
    return int(np.argmax(sims)), sims


@dataclass
class EvalResult:
    fold: int
    accuracy: float
    class_names: list[str]
    confusion: np.ndarray  # rows = truth, cols = prediction, merged classes
    n_segments: int


def evaluate(model, dataset: Dataset, folds: FoldAssignment, test_fold: int, class_map: ClassMap | None = None) -> EvalResult:
    """Segment-level accuracy on one held-out fold, scored after class merging.

    Raises ProtocolError if any test source was seen at training time or if
    a source straddles the fold boundary.
    """
    _, test = dataset.split_by_fold(folds, test_fold)
    if not test.samples:
        raise ProtocolError(f"fold {test_fold} contains no segments")
    leaked = set(model.train_source_ids) & test.source_ids()
    if leaked:
        raise ProtocolError(f"test fold {test_fold} shares sources with the training set: {sorted(leaked)[:5]}")

    labels = sorted(set(model.class_labels) | set(test.vessel_types()))
    if class_map is None:
        class_map = identity_class_map(labels)
    classes = class_map.classes()
    index = {c: i for i, c in enumerate(classes)}

    predictions = model.predict_labels([s.segment for s in test.samples])
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    hits = 0
    for sample, pred in zip(test.samples, predictions):
        truth = class_map.merged(sample.vessel_type)
        merged_pred = class_map.merged(pred)
        confusion[index[truth], index[merged_pred]] += 1
        hits += int(truth == merged_pred)
    return EvalResult(
        fold=test_fold,
        accuracy=hits / len(test.samples),
        class_names=classes,
        confusion=confusion,
        n_segments=len(test.samples),
    )


def render_report(results: list[EvalResult], class_map: ClassMap) -> str:
    """Human-readable fold summary followed by a machine-readable JSON block."""
    if not results:
        raise ConfigError("no evaluation results to report")
    classes = results[0].class_names
    total_confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    lines = ["evaluation report", "=" * 17]
    for r in results:
        lines.append(f"fold {r.fold}: accuracy={r.accuracy:.6f} over {r.n_segments} segments")
        total_confusion += r.confusion
    mean_acc = float(np.mean([r.accuracy for r in results]))
    lines.append(f"mean accuracy: {mean_acc:.6f}")
    lines.append("")
    lines.append("confusion (rows=truth, cols=prediction): " + " ".join(classes))
    for name, row in zip(classes, total_confusion):
        lines.append(f"  {name}: " + " ".join(str(int(v)) for v in row))
    payload = {
        "per_fold_accuracy": {str(r.fold): r.accuracy for r in results},
        "mean_accuracy": mean_acc,
        "classes": classes,
        "confusion": total_confusion.tolist(),
        "class_map": dict(sorted(class_map.mapping.items())),
    }
    lines.append("")
    lines.append("JSON: " + json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + "\n"
