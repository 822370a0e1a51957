"""Adam with decoupled weight decay over a parameter store.

The optimizer owns a flat gradient buffer, ``grad``, in the store's layout
next to the moments ``m`` and ``v``. Each parameter's ``.grad`` views its
slice, so ``backward`` accumulates into it; rebinding ``.grad`` detaches the
parameter from the optimizer, as rebinding ``.values`` detaches it from the
store. A step is one elementwise update of the moments and of the store's
values (a model's whole store, or a contiguous run of one), then zeroes the
buffer, so a parameter the loss did not reach takes the zero-gradient step.
Weight decay acts on the values directly, not through the gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .store import ParameterStore

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamW:
    def __init__(self, store: ParameterStore, lr: float = 1e-5, weight_decay: float = 1e-5):
        self.store = store
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.grad = np.zeros_like(store.buffer)
        self.m = np.zeros_like(store.buffer)
        self.v = np.zeros_like(store.buffer)
        self._tmp = np.empty_like(store.buffer)
        offset = 0
        for name, p in store.tensors.items():
            if not p.requires_grad:
                raise ContractError(f"parameter {name} does not require grad")
            p.grad = self.grad[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        g, m, v, values, tmp = self.grad, self.m, self.v, self.store.buffer, self._tmp
        # in place, in the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # values -= lr*wd*values, values -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=tmp)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp
        if self.weight_decay:
            values -= np.multiply(values, self.lr * self.weight_decay, out=tmp)
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += EPSILON
        update = np.divide(m, bc1, out=g)  # the gradient is spent
        update *= self.lr
        update /= denom
        values -= update
        g[...] = 0.0
