"""Adam with decoupled weight decay over a parameter store.

The optimizer owns a flat gradient buffer, ``grad``, in the store's layout
next to the moments ``m`` and ``v``. Each parameter's ``.grad`` views its
slice, so ``backward`` accumulates into it; rebinding ``.grad`` detaches the
parameter from the optimizer, as rebinding ``.values`` detaches it from the
store. A step is one elementwise update of the moments and of the store's
values (a model's whole store, or a contiguous run of one), then zeroes the
buffer, so a parameter the loss did not reach takes the zero-gradient step.
Weight decay acts on the values directly, not through the gradient.

The bias corrections are computed once per step. A buffer of at least
``SPLIT_AT`` values updates its two contiguous halves on two threads
(``tensor.beside``), the first half on the worker; a smaller one updates on
the caller alone. Every operation is elementwise, so the split changes no bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .store import ParameterStore
from .tensor import beside

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# the measured crossover on 2 cores: one thread updates 40k values faster, two threads 50k
SPLIT_AT = 50_000


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
        n = self.grad.size
        if n < SPLIT_AT:
            self._update(slice(None), bc1, bc2)
        else:
            beside(lambda: self._update(slice(n // 2), bc1, bc2), lambda: self._update(slice(n // 2, n), bc1, bc2))

    def _update(self, part: slice, bc1: float, bc2: float) -> None:
        g, m, v, values, tmp = self.grad[part], self.m[part], self.v[part], self.store.buffer[part], self._tmp[part]
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
