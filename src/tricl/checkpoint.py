"""Versioned checkpoints, format v2: one npz archive holding the model's
parameter store as a single ``params`` array plus a JSON ``__meta__`` record
(config, training sources, the name/shape index of ``params``, and by model
type: a tri-modal model's tokenizer, templates and label set, a classifier's
classes per task). Round trips are bit-exact (raw float64). The reader
ignores metadata fields it does not read, such as the ``kind`` earlier
classifier checkpoints carry. Version 1 files, one npz member per
parameter, and parameters holding NaN or infinity are rejected.
"""

from __future__ import annotations

import json
import math
import zipfile
from pathlib import Path

import numpy as np

from .bpe import BpeTokenizer
from .config import RunConfig
from .errors import ConfigError, DataError
from .layers import no_init
from .model import TriModalModel
from .tuning import ClassifierModel

FORMAT = "tricl-checkpoint"
VERSION = 2
# JSON type of each metadata field load_checkpoint reads
_META_TYPES = {
    "config": dict,
    "train_source_ids": list,
    "model_type": str,
    "tokenizer": str,
    "train_template": str,
    "test_template": str,
    "class_labels": list,
    "task_classes": dict,
    "params": list,
}


def _meta_for(model) -> dict:
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "config": json.loads(model.config.to_json()),
        "train_source_ids": list(model.train_source_ids),
    }
    if isinstance(model, TriModalModel):
        meta.update(
            {
                "model_type": "trimodal",
                "tokenizer": model.tokenizer.to_text(),
                "train_template": model.train_template_text,
                "test_template": model.test_template_text,
                "class_labels": list(model.class_labels),
            }
        )
    elif isinstance(model, ClassifierModel):
        meta.update({"model_type": "classifier", "task_classes": model.task_classes})
    else:
        raise ConfigError(f"cannot checkpoint object of type {type(model).__name__}")
    meta["params"] = model.store.index()
    return meta


def save_checkpoint(model, path) -> None:
    meta = np.array(json.dumps(_meta_for(model), sort_keys=True))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.savez(f, params=model.store.buffer, __meta__=meta)


def _split(flat: np.ndarray, index: list, path: Path) -> dict[str, np.ndarray]:
    """Views of `flat` per [name, shape] entry of the index, in order."""
    try:
        sizes = [math.prod(shape) for _, shape in index]
        if flat.ndim != 1 or sum(sizes) != flat.size:
            raise ValueError(f"the index covers {sum(sizes)} values, the params array holds {flat.size}")
        offsets = np.cumsum([0] + sizes)
        return {name: flat[o : o + n].reshape(shape) for (name, shape), o, n in zip(index, offsets, sizes)}
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed parameter index: {exc}") from exc


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["__meta__"]))
            if not isinstance(meta, dict):
                raise DataError(f"{path}: checkpoint metadata is a JSON {type(meta).__name__}, expected an object")
            if meta.get("format") != FORMAT:
                raise ConfigError(f"{path}: not a {FORMAT} file")
            if meta.get("version") != VERSION:
                raise ConfigError(f"{path}: unsupported checkpoint version {meta.get('version')}")
            flat = z["params"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from exc

    def field(name: str):
        if name not in meta:
            raise DataError(f"{path}: checkpoint metadata lacks the {name!r} field")
        value, kind = meta[name], _META_TYPES[name]
        if not isinstance(value, kind):
            raise DataError(
                f"{path}: checkpoint metadata field {name!r} is a {type(value).__name__}, expected {kind.__name__}"
            )
        return value

    try:
        config = RunConfig.from_dict(field("config"))
    except ConfigError as exc:
        raise DataError(f"{path}: malformed config: {exc}") from exc
    sources = tuple(field("train_source_ids"))
    model_type = field("model_type")
    with no_init():  # load_values overwrites every parameter: draw no random init
        if model_type == "trimodal":
            try:
                tokenizer = BpeTokenizer.from_text(field("tokenizer"))
            except ValueError as exc:
                raise DataError(f"{path}: malformed tokenizer: {exc}") from exc
            model = TriModalModel(
                config,
                tokenizer,
                field("train_template"),
                field("test_template"),
                class_labels=field("class_labels"),
                train_source_ids=sources,
            )
        elif model_type == "classifier":
            model = ClassifierModel(config, field("task_classes"), sources)
        else:
            raise ConfigError(f"{path}: unknown model_type {model_type!r}")
    model.store.load_values(_split(flat, field("params"), path))
    if not np.isfinite(model.store.buffer).all():
        bad = next(name for name, t in model.store.tensors.items() if not np.isfinite(t.values).all())
        raise DataError(f"{path}: parameter {bad} holds a non-finite value (NaN or infinity)")
    return model
