"""Versioned checkpoint container: one npz archive holding every named
parameter array plus a JSON metadata record (config, tokenizer, templates,
label set, training sources). Round trips are bit-exact because parameters
are stored as raw float64 arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bpe import BpeTokenizer
from .config import RunConfig
from .errors import ConfigError, DataError
from .model import TriModalModel
from .tuning import ClassifierModel

FORMAT = "tricl-checkpoint"
VERSION = 1
_PARAM_PREFIX = "param::"
# JSON type of each metadata field load_checkpoint reads
_META_TYPES = {
    "config": dict,
    "train_source_ids": list,
    "model_type": str,
    "tokenizer": str,
    "train_template": str,
    "test_template": str,
    "class_labels": list,
    "kind": str,
    "task_classes": dict,
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
        meta.update({"model_type": "classifier", "kind": model.kind, "task_classes": model.task_classes})
    else:
        raise ConfigError(f"cannot checkpoint object of type {type(model).__name__}")
    return meta


def save_checkpoint(model, path) -> None:
    arrays = {_PARAM_PREFIX + name: t.values for name, t in model.parameters().items()}
    arrays["__meta__"] = np.array(json.dumps(_meta_for(model), sort_keys=True))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["__meta__"]))
            arrays = {k[len(_PARAM_PREFIX) :]: np.asarray(z[k]) for k in z.files if k.startswith(_PARAM_PREFIX)}
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is a JSON {type(meta).__name__}, expected an object")
    if meta.get("format") != FORMAT:
        raise ConfigError(f"{path}: not a {FORMAT} file")
    if meta.get("version") != VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {meta.get('version')}")

    def field(name: str):
        if name not in meta:
            raise DataError(f"{path}: checkpoint metadata lacks the {name!r} field")
        value, kind = meta[name], _META_TYPES[name]
        if not isinstance(value, kind):
            raise DataError(
                f"{path}: checkpoint metadata field {name!r} is a {type(value).__name__}, expected {kind.__name__}"
            )
        return value

    config = RunConfig.from_dict(field("config"))
    sources = tuple(field("train_source_ids"))
    model_type = field("model_type")
    if model_type == "trimodal":
        model = TriModalModel(
            config,
            BpeTokenizer.from_text(field("tokenizer")),
            field("train_template"),
            field("test_template"),
            class_labels=field("class_labels"),
            train_source_ids=sources,
        )
    elif model_type == "classifier":
        model = ClassifierModel(config, field("kind"), field("task_classes"), sources)
    else:
        raise ConfigError(f"{path}: unknown model_type {model_type!r}")
    model.load_values(arrays)
    return model
