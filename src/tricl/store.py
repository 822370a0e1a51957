"""One contiguous float64 buffer holding a model's trainable parameters.

Parameters are found, not listed: ``trainable`` walks a model's parts
through their attributes in assignment order and collects every tensor that
requires grad, keyed by its name. That order is the buffer layout and so the
checkpoint layout: reordering the attribute assignments of a layer or an
encoder moves it. Each parameter's ``values`` is a view into the buffer
(encoder first, so a classifier's heads are the tail). Checkpoints,
``load_values`` and the optimizer all work on the buffer or a contiguous run
of it. Write a parameter through its view (``t.values[...] = x``); rebinding
``t.values`` detaches it from the store.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor


def trainable(*parts) -> dict[str, Tensor]:
    """Every tensor that requires grad under `parts`, keyed by name.

    Objects are walked through ``vars()`` in assignment order, lists and
    tuples in order, dicts by value; ``None`` and other leaves are skipped.
    """
    found: dict[str, Tensor] = {}
    _collect(parts, found)
    return found


def _collect(obj, found: dict[str, Tensor]) -> None:
    if isinstance(obj, Tensor):
        if obj.requires_grad and found.setdefault(obj.name, obj) is not obj:
            raise ContractError(f"two trainable tensors are named {obj.name!r}")
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _collect(item, found)
    elif isinstance(obj, dict):
        for item in obj.values():
            _collect(item, found)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _collect(item, found)


class ParameterStore:
    def __init__(self, tensors: dict[str, Tensor], buffer: np.ndarray | None = None):
        """Lay `tensors` out in a new buffer, or adopt ones already viewing `buffer` in order."""
        self.tensors = dict(tensors)
        if buffer is None:
            buffer = np.concatenate([t.values.ravel() for t in self.tensors.values()])
            offset = 0
            for t in self.tensors.values():
                t.values = buffer[offset : offset + t.size].reshape(t.shape)
                offset += t.size
        self.buffer = buffer

    def index(self) -> list[list]:
        """[name, shape] per parameter, in buffer order."""
        return [[name, list(t.shape)] for name, t in self.tensors.items()]

    def split(self, n: int) -> tuple["ParameterStore", "ParameterStore"]:
        """The first `n` parameters and the rest, as stores over the same memory."""
        names = list(self.tensors)
        cut = sum(self.tensors[name].size for name in names[:n])
        head = ParameterStore({name: self.tensors[name] for name in names[:n]}, self.buffer[:cut])
        return head, ParameterStore({name: self.tensors[name] for name in names[n:]}, self.buffer[cut:])

    def load_values(self, arrays: dict, source: str = "checkpoint") -> None:
        """Copy one array per parameter into the buffer, after checking that
        the names and shapes match the layout."""
        missing = sorted(set(self.tensors) - set(arrays))
        extra = sorted(set(arrays) - set(self.tensors))
        if missing or extra:
            raise ConfigError(f"{source}/model parameter mismatch: missing={missing}, extra={extra}")
        for name, t in self.tensors.items():
            shape = np.shape(arrays[name])
            if shape != t.shape:
                raise ConfigError(f"{source} parameter {name} has shape {shape}, expected {t.shape}")
        np.concatenate([np.ravel(arrays[name]) for name in self.tensors], out=self.buffer)
